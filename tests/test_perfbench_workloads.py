"""The benchmark's workload configs still pass ``imbselect validate``.

``perfbench/workloads.py`` writes the INI that each benchmark workload
runs. A config change that one of them no longer satisfies (a deleted key,
a renamed option) would otherwise first show up as a failed benchmark run.
The module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from imbselect.cli import main
from imbselect.fixtures import make_fixture

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
