"""The README's "Library use" snippet runs as written, and its override
tables list each kind's options.

The snippet reads ``data/demo.csv``, so the test writes a ``make_fixture``
CSV there in a scratch directory and executes the snippet unchanged. A name
the snippet imports that the package no longer exports fails here.
"""

import re
from pathlib import Path

from imbselect.classifiers import CLASSIFIER_REGISTRY
from imbselect.fixtures import make_fixture
from imbselect.sampling import SAMPLER_REGISTRY

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_snippet_runs_as_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    make_fixture(
        "gaussian-imbalanced", 400, 0.1, seed=3,
        out_path=tmp_path / "data" / "demo.csv", n_features=10,
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_snippet(), str(README), "exec"), {"__name__": "readme"})
    best, comparison = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(best.split()[-1]) <= 1.0
    assert "voting" in comparison


def override_table_rows():
    """(kinds, keys) per row of the sampler and classifier override tables."""
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            rows.append((re.findall(r"`(\w+)`", cells[1]), re.findall(r"`(\w+)`", cells[2])))
    return rows


def test_override_tables_list_every_kinds_options():
    registry = {**SAMPLER_REGISTRY, **CLASSIFIER_REGISTRY}
    listed = []
    for kinds, keys in override_table_rows():
        for kind in kinds:
            assert sorted(keys) == sorted(n for n in registry[kind].options if n != "seed"), kind
        listed += kinds
    assert sorted(listed) == sorted(registry)
