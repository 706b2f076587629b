"""The benchmark's workload configs still pass ``imbselect validate`` and
still write their pinned leaderboards.

``perfbench/workloads.py`` writes the INI that each benchmark workload
runs. A config change that one of them no longer satisfies (a deleted key,
a renamed option) would otherwise first show up as a failed benchmark run,
and so would a change that moves a seed-0 ``leaderboard.csv`` away from its
digest in ``PINNED_DIGESTS``. The module is loaded from its file and only
read.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from imbselect.cli import main
from imbselect.fixtures import make_fixture

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_validates(tmp_path, capsys, name):
    csv_path = tmp_path / "fixture.csv"
    make_fixture(
        "gaussian-imbalanced", 200, 0.1, seed=0, out_path=csv_path,
        n_features=workloads.ENCODED_FEATURES,
    )
    config = tmp_path / "run.ini"
    config.write_text(
        workloads.config_text(
            workloads.WORKLOADS[name], csv_path, tmp_path / "out", workloads.DEFAULT_SEED, 1
        ),
        encoding="utf-8",
    )
    code = main(["validate", "--config", str(config)])
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error:")]
    assert (code, errors) == (0, [])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_writes_its_pinned_leaderboard(tmp_path, name):
    # the fixture as perfbench/fixture.py writes it, and one run at one
    # worker with the benchmark's BLAS thread pins
    workload = workloads.WORKLOADS[name]
    csv_path = tmp_path / "fixture.csv"
    make_fixture(
        "gaussian-imbalanced", workload.rows, workloads.POSITIVE_FRACTION,
        workloads.DEFAULT_SEED, csv_path,
        n_features=workloads.ENCODED_FEATURES, separation=workloads.SEPARATION,
    )
    config = tmp_path / "run.ini"
    config.write_text(
        workloads.config_text(workload, csv_path, tmp_path / "out", workloads.DEFAULT_SEED, 1),
        encoding="utf-8",
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "imbselect.cli", "run", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256((tmp_path / "out" / "leaderboard.csv").read_bytes()).hexdigest()
    assert digest == workloads.PINNED_DIGESTS[name]
