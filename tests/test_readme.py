"""The README's "Library use" snippet runs as written.

It reads ``data/demo.csv``, so the test writes a ``make_fixture`` CSV there
in a scratch directory and executes the snippet unchanged. A name the
snippet imports that the package no longer exports fails here.
"""

from pathlib import Path

from imbselect.fixtures import make_fixture

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
