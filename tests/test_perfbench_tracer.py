"""The benchmark's layer tracer still attaches to the package.

``perfbench/tracer.py`` rebinds names that ``imbselect.cli`` and
``imbselect.search`` look up at call time. A renamed or inlined call site
would silently drop its spans and break only the benchmark, so this runs a
traced ``imbselect run`` and checks the spans. It runs in a subprocess
because ``install`` patches the modules for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from imbselect.fixtures import make_fixture

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from imbselect import cli

spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["run", "--config", sys.argv[2]])
metrics, table = tracer.layer_metrics(spans)
calls = {}
for (name, _kind), row in table.items():
    calls[name] = calls.get(name, 0) + row[0]
print(json.dumps({
    "code": code,
    "calls": calls,
    "refits": metrics["search.ensemble_refits"][0],
}))
"""


@pytest.mark.parametrize("pre_encoded", [True, False], ids=["encoded", "pca"])
def test_tracer_records_every_layer(tmp_path, pre_encoded):
    data = tmp_path / "toy.csv"
    make_fixture("gaussian-imbalanced", 300, 0.1, seed=2, out_path=data, n_features=5)
    config = tmp_path / "run.ini"
    config.write_text(
        f"""
[dataset]
path = {data}
label_column = Class
positive_label = 1
pre_encoded = {"true" if pre_encoded else "false"}
standardize_columns = Time, Amount

[grid]
dims = 2, 3
samplers = none, random_under
classifiers = dummy, gaussian_nb, decision_tree
top_k = 3
master_seed = 4

[output]
dir = {tmp_path / 'out'}
formats = csv, json
workers = 1
""",
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(config)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["code"] == 0
    calls = out["calls"]
    assert calls["search.cell"] == 2 * 2 * 3
    assert out["refits"] == 3
    expected = {
        "dataset.load_csv", "dataset.split", "dataset.standardize",
        "decomposition.reduce", "sampling.resample", "classifiers.fit",
        "classifiers.score", "metrics.record", "search.ensemble", "search.run",
        "report.write",
    }
    if not pre_encoded:
        expected.add("decomposition.pca_fit")
    assert expected <= set(calls)
