"""One measured ``imbselect run`` in a fresh process.

    python3 perfbench/session.py --config RUN.ini --result OUT.json [--trace]

run.py starts this script once per run, so ``ru_maxrss`` covers this run
alone. It drives the real command line (``imbselect.cli.main``) and reads
its clock at two names the CLI calls: ``load_csv`` (set-up starts) and
``run_search`` (set-up ends, search starts and ends). With ``--trace`` it
also installs the layer spans of tracer.py.
"""

import argparse
import json
import resource
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from imbselect import cli
from imbselect.search import LeakageError

import tracer as layer_tracer


def cpu_seconds():
    """User+system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Clock:
    """Set-up and search timestamps taken at the CLI's calls."""

    def __init__(self):
        self.load_started = None
        self.search_started = None
        self.search_ended = None
        self.cpu_before = self.cpu_after = 0.0
        self.result = None

    def install(self, module):
        load_csv, run_search = module.load_csv, module.run_search

        def timed_load_csv(*args, **kwargs):
            self.load_started = time.perf_counter()
            return load_csv(*args, **kwargs)

        def timed_run_search(*args, **kwargs):
            self.search_started = time.perf_counter()
            self.cpu_before = cpu_seconds()
            try:
                self.result = run_search(*args, **kwargs)
                return self.result
            finally:
                self.search_ended = time.perf_counter()
                self.cpu_after = cpu_seconds()

        module.load_csv = timed_load_csv
        module.run_search = timed_run_search


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer)
    clock = Clock()
    clock.install(cli)

    error = ""
    try:
        code = cli.main(["run", "--config", args.config])
    except (LeakageError, BrokenProcessPool) as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        if code not in (0, 4):
            raise RuntimeError(f"imbselect run exited with code {code}")

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "error": error,
        "setup_s": clock.search_started - clock.load_started,
        "search_s": clock.search_ended - clock.search_started,
        "search_cpu_s": clock.cpu_after - clock.cpu_before,
        "peak_rss_mb": max(self_usage.ru_maxrss, children_usage.ru_maxrss) / 1024,
    }
    if clock.result is not None:
        record["failed_cells"] = clock.result.failed_cells
        record["vote_rows_ok"] = sum(1 for r in clock.result.ensemble_records if r.ok)
    if tracer is not None:
        metrics, table = layer_tracer.layer_metrics(tracer)
        record["layers"] = {name: list(value) for name, value in metrics.items()}
        record["cell_times"] = table.get(("search.cell", ""), (0, 0.0, 0.0, []))[3]
        record["spans"] = [
            [name, kind, calls, inclusive, own]
            for (name, kind), (calls, inclusive, own, _) in sorted(table.items())
        ]
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
