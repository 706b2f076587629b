"""imbselect benchmark: one workload as a closed loop of one caller.

    python3 perfbench/run.py --workload cc-models --seed 0 --seconds 28 --trace 0

Run it from the repository root. It generates the workload's fixture from
``--seed`` (cached under .perfbench_cache/), then runs
``imbselect run`` at workers=2 again and again, one fresh process per run,
each started after the previous one ends. Runs in the first WARMUP_S
seconds are not timed; the timed runs then go on until ``--seconds`` have
passed. A final traced run at workers=1 records the layer spans. Every run
must write the same ``leaderboard.csv`` bytes, and at DEFAULT_SEED the
bytes pinned in workloads.py; otherwise the command exits 1.

The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above it
give every metric with its sample count. README.md says what each metric
should move.
"""

import argparse
import hashlib
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, PINNED_DIGESTS, SEPARATION, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
CACHE = Path(".perfbench_cache")
WORKERS = 2
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_RUNS = 3
# The first runs after an idle spell are up to 50% slower than the rest on a
# shared 2-vCPU VM, so runs in this warm-up window are gated but not timed.
WARMUP_S = 4.0
# The command must end within three minutes. The traced serial run takes
# about three untraced runs, so the loop stops early enough to leave room
# for it.
DEADLINE_S = 170.0
TRACED_RUN_FACTOR = 3.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchmarkError(RuntimeError):
    pass


def run_child(command, env, deadline):
    """Run ``command`` in its own process group; (exit code, stderr tail)."""
    proc = subprocess.Popen(
        [str(part) for part in command],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stderr, code = "timed out", None
    finally:
        try:  # pool workers a crashed run may leave behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    tail = stderr.strip().splitlines()[-1:] if stderr else []
    return code, tail[0] if tail else ""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(THREAD_PINS)
    return env


def ensure_fixture(workload, seed, env, deadline):
    name = f"{workload.name}-rows{workload.rows}-sep{SEPARATION:g}-seed{seed}.csv"
    path = (CACHE / "fixtures" / name).resolve()
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        code, error = run_child(
            [sys.executable, HERE / "fixture.py", "--workload", workload.name,
             "--seed", seed, "--out", path],
            env,
            deadline,
        )
        if code != 0:
            raise BenchmarkError(f"fixture generation failed: {error}")
    return path


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def session(workload, csv_path, seed, workers, trace, tag, env, deadline):
    """One ``imbselect run`` in a fresh process, traced or not; its measurements."""
    run_dir = (CACHE / "runs" / tag).resolve()
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True)
    config = run_dir / "run.ini"
    config.write_text(config_text(workload, csv_path, out_dir, seed, workers), encoding="utf-8")
    result_path = run_dir / "result.json"
    command = [sys.executable, HERE / "session.py", "--config", config, "--result", result_path]
    code, error = run_child(command + (["--trace"] if trace else []), env, deadline)
    if code == 0:
        record = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        record = {"error": f"run exited with code {code}: {error}"}
    leaderboard = out_dir / "leaderboard.csv"
    ok = not record["error"] and leaderboard.exists()
    record["digest"] = file_sha256(leaderboard) if ok else None
    record["report_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    record["attempted"] = workload.cells + 2
    record["failed"] = (
        record["failed_cells"] + 2 - record["vote_rows_ok"] if ok else record["attempted"]
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (1 - p / 100) >= 10:
            rank = min(len(ordered) - 1, int(len(ordered) * p / 100))
            return p, ordered[rank]
    return None


def summary(values, unit):
    """(median, unit, sample count, tail percentile or None)."""
    return statistics.median(values), unit, len(values), tail_percentile(values)


def end_to_end(runs):
    timed = [r for r in runs if "search_s" in r]
    if not timed:
        raise BenchmarkError("no run produced timings: " + runs[-1]["error"])
    return {
        "setup_s": summary([r["setup_s"] for r in timed], "s"),
        "search_s": summary([r["search_s"] for r in timed], "s"),
        "search_cpu_s": summary([r["search_cpu_s"] for r in timed], "s"),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in timed], "MB"),
    }


def per_layer(untraced, runs, traced):
    if "layers" not in traced:
        raise BenchmarkError("traced run produced no spans: " + traced["error"])
    metrics = {
        name: (value, unit, samples, None)
        for name, (value, unit, samples) in traced["layers"].items()
    }
    metrics["search.cell_s_p50"] = summary(traced["cell_times"], "s")
    metrics["search.cell_s_max"] = (max(traced["cell_times"]), "s", len(traced["cell_times"]), None)
    timed = [r for r in runs if "search_s" in r]
    metrics["search.pool_utilization"] = summary(
        [r["search_cpu_s"] / (WORKERS * r["search_s"]) for r in timed], "ratio"
    )
    attempted = sum(r["attempted"] for r in untraced)
    metrics["search.failed_frac"] = (
        sum(r["failed"] for r in untraced) / attempted, "ratio", attempted, None,
    )
    metrics["report.bytes"] = (traced["report_bytes"], "bytes", 1, None)
    metrics["trace.overhead_s"] = (
        traced["search_s"] - statistics.median(r["search_cpu_s"] for r in timed),
        "s",
        len(timed),
        None,
    )
    return metrics


def gate(workload, seed, untraced, traced):
    """Problems with the leaderboard bytes; empty when they are correct.

    A run that failed outright wrote no leaderboard; it counts in
    ``failed``, and only the leaderboards that exist are compared.
    """
    problems = []
    digests = {r["digest"] for r in untraced + [traced] if r["digest"]}
    if traced["digest"] is None:
        problems.append("the traced workers=1 run wrote no leaderboard.csv")
    if len(digests) > 1:
        problems.append(f"leaderboard.csv differs between runs: {sorted(digests)}")
    pinned = PINNED_DIGESTS.get(workload.name)
    if seed == DEFAULT_SEED and pinned and digests != {pinned}:
        problems.append(f"leaderboard.csv {sorted(digests)} is not the pinned {pinned}")
    return problems


def expected_names(root, trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "imbselect" / "__init__.py").is_file():
        print("run from the repository root: src/imbselect is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    try:
        csv_path = ensure_fixture(workload, args.seed, env, deadline)
        warmup = []
        warmup_ends = time.monotonic() + WARMUP_S
        while not warmup or time.monotonic() < warmup_ends:
            warmup.append(session(workload, csv_path, args.seed, WORKERS, False,
                                  f"{workload.name}-warmup-{len(warmup)}", env, deadline))
        runs = []
        started = time.monotonic()
        while True:
            runs.append(session(workload, csv_path, args.seed, WORKERS, False,
                                f"{workload.name}-{len(runs)}", env, deadline))
            now = time.monotonic()
            per_run = (now - started) / len(runs)
            if len(runs) >= MIN_RUNS and now + per_run - started > args.seconds:
                break
            if now + (1 + TRACED_RUN_FACTOR) * per_run > deadline:
                break
        traced = session(workload, csv_path, args.seed, 1, True,
                         f"{workload.name}-traced", env, deadline)
        untraced = warmup + runs
        metrics = per_layer(untraced, runs, traced) if args.trace else end_to_end(runs)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    everything = untraced + [traced]
    problems = gate(workload, args.seed, untraced, traced)
    print(f"workload {workload.name}: seed {args.seed}, {workload.cells} cells + 2 vote rows, "
          f"closed loop of 1 caller, {len(warmup)} warm-up + {len(runs)} timed runs at "
          f"workers={WORKERS} + 1 traced run at workers=1, fresh process each")
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    digests = sorted({r["digest"] for r in everything if r["digest"]})
    print("leaderboard.csv sha256: " + ", ".join(digests))
    for record in everything:
        if record["error"]:
            print(f"RUN FAILED: {record['error']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit, samples, tail) in metrics.items():
        extra = f"  p{tail[0]:g}={tail[1]:.6g}" if tail else ""
        print(f"  {name:<48} {value:>14.6g} {unit:<6} n={samples}{extra}")
    if not args.trace:
        for name in ("setup_s", "search_s", "search_cpu_s"):
            samples = [r[name] for r in runs if name in r]
            print(f"  {name} per run: " + " ".join(f"{v:.4g}" for v in samples))
    if args.trace:
        print("  spans (name, kind, calls, inclusive s, self s):")
        for name, kind, calls, inclusive, own in traced["spans"]:
            print(f"    {name:<22} {kind:<28} {calls:>6} {inclusive:>10.4f} {own:>10.4f}")

    names = expected_names(root, args.trace)
    if names is not None and names != set(metrics):
        print(f"metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _, _) in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
