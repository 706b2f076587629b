import csv
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from imbselect.cli import main
from imbselect.config import load_config, validate_config
from imbselect.fixtures import make_fixture
from imbselect.report import LEADERBOARD_COLUMNS


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "toy.csv"
    make_fixture("gaussian-imbalanced", 400, 0.1, seed=3, out_path=path, n_features=5)
    return path


def write_config(tmp_path, fixture_csv, **grid):
    defaults = {
        "dims": "2..3",
        "samplers": "none, random_under",
        "classifiers": "dummy, gaussian_nb, ridge",
        "metric": "f1",
        "top_k": "3",
        "test_fraction": "0.25",
        "master_seed": "11",
    }
    defaults.update(grid)
    grid_lines = "\n".join(f"{k} = {v}" for k, v in defaults.items())
    path = tmp_path / "run.ini"
    path.write_text(
        f"""
[dataset]
path = {fixture_csv}
label_column = Class
positive_label = 1
pre_encoded = true
standardize_columns = Time, Amount

[grid]
{grid_lines}

[output]
dir = {tmp_path / 'out'}
formats = csv, json
workers = 1
""",
        encoding="utf-8",
    )
    return path


class TestMakeFixture:
    def test_count_arithmetic(self, tmp_path):
        path = tmp_path / "f.csv"
        make_fixture("gaussian-imbalanced", 2000, 0.02, seed=1, out_path=path)
        rows = list(csv.DictReader(open(path, encoding="utf-8")))
        assert len(rows) == 2000
        assert sum(int(r["Class"]) for r in rows) == 40

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        make_fixture("segment-minority", 100, 0.2, seed=7, out_path=a)
        make_fixture("segment-minority", 100, 0.2, seed=7, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "kind, n, ratio, seed, options, digest",
        [
            ("gaussian-imbalanced", 40, 0.1, 3, {"n_features": 5},
             "0d18298e299cd5805a675b1b30aa8a96a38c90182eb779159efa15fa5e22e116"),
            ("gaussian-imbalanced", 57, 0.05, 11, {"n_features": 28, "separation": 1.5},
             "2cbeb86739a3881b7e7acc95ac9fb1c285ef3bb31d7cb5b42d0e258107c89633"),
            ("segment-minority", 30, 0.2, 5, {"n_features": 3},
             "a4065eb4458782863db044f7ffafbd93c7ff3f7362ba00e4e98e38c9e60d9bad"),
            ("segment-minority", 64, 0.5, 0, {"n_features": 8, "separation": 4.0},
             "9ea3fa210b9f934045ac1a01ebf867e83316cf4d483285a9d39d6da13ee7a159"),
        ],
    )
    def test_pinned_bytes(self, tmp_path, kind, n, ratio, seed, options, digest):
        path = make_fixture(kind, n, ratio, seed, tmp_path / "f.csv", **options)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_peak_memory_is_bounded(self, tmp_path):
        n, features = 20_000, 28
        tracemalloc.start()
        try:
            make_fixture(
                "gaussian-imbalanced", n, 0.02, seed=2, out_path=tmp_path / "big.csv",
                n_features=features,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * features * 8

    def test_balanced_ratio(self, tmp_path):
        path = tmp_path / "f.csv"
        make_fixture("gaussian-imbalanced", 100, 0.5, seed=0, out_path=path)
        rows = list(csv.DictReader(open(path, encoding="utf-8")))
        assert sum(int(r["Class"]) for r in rows) == 50

    def test_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="imbalance_ratio"):
            make_fixture("gaussian-imbalanced", 100, 0.9, 0, tmp_path / "x.csv")
        with pytest.raises(ValueError, match="n must be"):
            make_fixture("gaussian-imbalanced", 5, 0.2, 0, tmp_path / "x.csv")
        with pytest.raises(ValueError, match="unknown fixture kind"):
            make_fixture("spiral", 100, 0.2, 0, tmp_path / "x.csv")

    def test_cli_entry(self, tmp_path, capsys):
        out = tmp_path / "from_cli.csv"
        code = main([
            "make-fixture", "--rows", "50", "--ratio", "0.2",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_cli_unwritable_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main([
            "make-fixture", "--rows", "50", "--ratio", "0.2",
            "--out", str(blocker / "f.csv"),
        ])
        assert code == 1


class TestValidate:
    def test_valid_config_is_clean(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv)
        assert validate_config(config) == []
        assert main(["validate", "--config", str(config)]) == 0

    def test_top_k_above_grid(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv, top_k="13")
        diagnostics = validate_config(config)
        assert any("top_k" in d and "exceeds" in d for d in diagnostics)
        assert main(["validate", "--config", str(config)]) == 2

    def test_top_k_above_clamped_grid(self, tmp_path, fixture_csv):
        config = write_config(
            tmp_path, fixture_csv, dims="40, 50", samplers="none", classifiers="ridge",
            top_k="2",
        )
        assert any(
            d.startswith("error:") and "top_k 2 exceeds the grid size 1" in d
            for d in validate_config(config)
        )
        assert main(["run", "--config", str(config)]) == 2

    def test_dims_beyond_width_is_clamp_warning(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv, dims="2, 40")
        diagnostics = validate_config(config)
        assert any(d.startswith("warning:") and "clamped" in d for d in diagnostics)
        # warnings do not block the run
        assert main(["validate", "--config", str(config)]) == 0

    def test_unknown_classifier(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv, classifiers="dummy, mlp")
        assert any("unknown classifier" in d for d in validate_config(config))

    def test_missing_dataset(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, tmp_path / "gone.csv")
        assert any("not found" in d for d in validate_config(config))

    def test_even_top_k_warns(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv, top_k="4")
        diagnostics = validate_config(config)
        assert any(d.startswith("warning:") and "even" in d for d in diagnostics)


class TestRun:
    def test_end_to_end_reports(self, tmp_path, fixture_csv, capsys):
        config = write_config(tmp_path, fixture_csv)
        code = main(["run", "--config", str(config)])
        assert code == 0
        out = tmp_path / "out"
        board = out / "leaderboard.csv"
        rows = list(csv.reader(open(board, encoding="utf-8")))
        assert tuple(rows[0]) == LEADERBOARD_COLUMNS
        # 2 dims x 2 samplers x 3 classifiers + 2 vote rows
        assert len(rows) - 1 == 14
        models = {row[1] for row in rows[1:]}
        assert {"vote_hard", "vote_soft"} <= models
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["grid_size"] == 12
        assert manifest["failed_cells"] == 0
        setup = manifest["setup_seconds"]
        assert list(setup) == ["load_csv", "checksum", "split", "standardize"]
        assert all(seconds >= 0.0 for seconds in setup.values())
        payload = json.loads((out / "leaderboard.json").read_text())
        assert len(payload["records"]) == 14
        figures = sorted(p.name for p in (out / "figures").glob("*.csv"))
        assert "f1__none.csv" in figures
        series = list(csv.reader(open(out / "figures" / "f1__none.csv", encoding="utf-8")))
        assert len(series) - 1 == 2  # one row per dims entry

    def test_reports_follow_the_clamped_grid(self, tmp_path, fixture_csv):
        # the fixture has 5 encoded columns: 40 and 50 both run as dims 5
        config = write_config(tmp_path, fixture_csv, dims="3, 40, 50")
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        rows = list(csv.reader(open(out / "leaderboard.csv", encoding="utf-8")))
        assert len(rows) - 1 == 14  # 2 dims x 2 samplers x 3 classifiers + 2 votes
        keys = [(row[1], row[2], row[3]) for row in rows[1:]]
        assert len(set(keys)) == len(keys)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["grid_size"] == 12
        assert any("dropped" in w for w in manifest["clamp_warnings"])
        for path in (out / "figures").glob("*.csv"):
            series = list(csv.reader(open(path, encoding="utf-8")))
            assert [row[0] for row in series[1:]] == ["3", "5"]
            assert all(value != "" for row in series[1:] for value in row)

    def test_same_seed_byte_identical_leaderboards(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv)
        main(["run", "--config", str(config), "--out", str(tmp_path / "r1")])
        main(["run", "--config", str(config), "--out", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "leaderboard.csv").read_bytes()
        b = (tmp_path / "r2" / "leaderboard.csv").read_bytes()
        assert a == b

    def test_config_error_exit_code(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv, metric="f2")
        assert main(["run", "--config", str(config)]) == 2

    def test_dataset_error_exit_code(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv)
        header = open(fixture_csv, encoding="utf-8").readline()
        fixture_csv.write_text(header, encoding="utf-8")  # header, zero rows
        assert main(["run", "--config", str(config)]) == 3

    def test_checksum_mismatch_is_dataset_error(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv)
        text = config.read_text() + "\n"
        text = text.replace(
            "[grid]", "sha256 = 0000000000000000\n\n[grid]", 1
        )
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 3

    def test_failed_cells_exit_code(self, tmp_path, fixture_csv):
        config = write_config(
            tmp_path, fixture_csv,
            samplers="smote",
            classifiers="ridge",
            top_k="1",
        )
        extra = "\n[sampler.smote]\nk_neighbors = 4000\n"
        config.write_text(config.read_text() + extra, encoding="utf-8")
        code = main(["run", "--config", str(config)])
        assert code == 4
        rows = list(csv.reader(open(tmp_path / "out" / "leaderboard.csv", encoding="utf-8")))
        assert all(row[4] == "failed" for row in rows[1:])

    def test_flag_overrides(self, tmp_path, fixture_csv):
        config = write_config(tmp_path, fixture_csv)
        code = main([
            "run", "--config", str(config),
            "--seed", "77", "--metric", "gmean",
            "--out", str(tmp_path / "o2"), "--workers", "2",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "o2" / "leaderboard.json").read_text())
        assert payload["metric_key"] == "gmean"
        manifest = json.loads((tmp_path / "o2" / "run_manifest.json").read_text())
        assert manifest["master_seed"] == 77


def test_load_config_round_trip(tmp_path, fixture_csv):
    config_path = write_config(tmp_path, fixture_csv)
    config, warnings = load_config(config_path)
    assert warnings == []
    assert config.grid.dims_list == (2, 3)
    assert config.grid.pre_encoded
    assert [s.kind for s in config.grid.sampler_specs] == ["none", "random_under"]
    assert [c.kind for c in config.grid.classifier_specs] == [
        "dummy", "gaussian_nb", "ridge",
    ]
    assert config.standardize_columns == ("Time", "Amount")


@pytest.mark.parametrize(
    "grid, label",
    [
        ({"classifiers": "knn, dummy, knn"}, "knn"),
        ({"samplers": "iht, none, instance_hardness_threshold"}, "instance_hardness"),
        ({"dims": "2, 1..3"}, "grid.dims lists 2 "),
    ],
)
def test_duplicate_grid_entry_is_config_error(tmp_path, fixture_csv, capsys, grid, label):
    config = write_config(tmp_path, fixture_csv, **grid)
    assert main(["validate", "--config", str(config)]) == 2
    assert any(
        d.startswith("error:") and "more than once" in d and label in d
        for d in validate_config(config)
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("repeat", ["V1", "Class"])
def test_repeated_header_name_is_config_error(tmp_path, fixture_csv, capsys, repeat):
    lines = fixture_csv.read_text(encoding="utf-8").splitlines()
    # the copy of the first data column takes the repeated name
    lines[0] += f",{repeat}"
    lines[1:] = [line + "," + line.split(",")[0] for line in lines[1:]]
    fixture_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_config(tmp_path, fixture_csv)
    message = f"column '{repeat}' appears more than once in the header"
    assert main(["validate", "--config", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, option", [("random_forest", "n_tree"), ("knn", "chunk_rows")]
)
def test_unknown_classifier_option_is_config_error(
    tmp_path, fixture_csv, capsys, kind, option
):
    config = write_config(tmp_path, fixture_csv, classifiers=f"dummy, {kind}")
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"\n[classifier.{kind}]\n{option} = 1\n")
    message = f"classifier '{kind}': unknown option(s) ['{option}']"
    assert main(["validate", "--config", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
