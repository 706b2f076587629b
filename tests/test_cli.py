import csv
import hashlib
import json
import os
import platform
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from imbselect.cli import _file_sha256, main
from imbselect.config import load_config, validate_config
from imbselect.fixtures import make_fixture
from imbselect.report import LEADERBOARD_COLUMNS
from imbselect.sampling import SAMPLER_KINDS

ROOT = Path(__file__).resolve().parents[1]


def read_rows(path, reader=csv.reader):
    return list(reader(path.read_text(encoding="utf-8").splitlines()))


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
        rows = read_rows(path, csv.DictReader)
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
        rows = read_rows(path, csv.DictReader)
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

    def test_dims_that_clamp_to_one_width_warn_dropped(self, tmp_path, fixture_csv):
        # the fixture has 5 encoded columns: 40 and 50 both clamp to 5
        config = write_config(tmp_path, fixture_csv, dims="3, 40, 50")
        assert any(
            d.startswith("warning:") and "dims=50" in d and "dropped" in d
            for d in validate_config(config)
        )

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
        rows = read_rows(board)
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
        series = read_rows(out / "figures" / "f1__none.csv")
        assert len(series) - 1 == 2  # one row per dims entry

    def test_manifest_records_blas_and_its_threads(
        self, tmp_path, fixture_csv, capsys, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        config = write_config(
            tmp_path, fixture_csv, samplers="none", classifiers="dummy", top_k="1"
        )
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        text = (tmp_path / "out" / "run_manifest.json").read_text()
        manifest = json.loads(text)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        assert '"OMP_NUM_THREADS": null' in text

    def test_single_worker_run_starts_no_process(self, tmp_path, fixture_csv):
        # a child's peak RSS would stand in RUSAGE_CHILDREN for the workers'
        config = write_config(
            tmp_path, fixture_csv, samplers="none", classifiers="dummy", top_k="1"
        )
        script = (
            "import resource, sys\n"
            "from imbselect.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.split()[-1] == "0"
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        # the string platform.platform() gives where it has no processor name
        if platform.processor() in ("", platform.machine()):
            assert manifest["platform"] == platform.platform()

    def test_reports_follow_the_clamped_grid(self, tmp_path, fixture_csv):
        # the fixture has 5 encoded columns: 40 and 50 both run as dims 5
        config = write_config(tmp_path, fixture_csv, dims="3, 40, 50")
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        rows = read_rows(out / "leaderboard.csv")
        assert len(rows) - 1 == 14  # 2 dims x 2 samplers x 3 classifiers + 2 votes
        keys = [(row[1], row[2], row[3]) for row in rows[1:]]
        assert len(set(keys)) == len(keys)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["grid_size"] == 12
        assert any("dropped" in w for w in manifest["clamp_warnings"])
        for path in (out / "figures").glob("*.csv"):
            series = read_rows(path)
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
        with open(fixture_csv, encoding="utf-8") as handle:
            header = handle.readline()
        fixture_csv.write_text(header, encoding="utf-8")  # header, zero rows
        assert main(["run", "--config", str(config)]) == 3

    @pytest.mark.parametrize("n_positive, test_fraction", [(1, "0.25"), (3, "0.1")])
    def test_unsplittable_dataset_is_dataset_error(self, tmp_path, capsys, n_positive, test_fraction):
        # a class of one row cannot be split; three positives at 0.1 leave
        # the positive side of the test split empty
        path = tmp_path / "tiny.csv"
        rows = [f"{i}.0,{i % 3}.5,{i % 2}.0,1.0,{int(i < n_positive)}" for i in range(6 + n_positive)]
        path.write_text("Time,V1,V2,Amount,Class\n" + "\n".join(rows) + "\n", encoding="utf-8")
        config = write_config(tmp_path, path, dims="2", test_fraction=test_fraction)
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("dataset error: ") and "Traceback" not in err

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
        rows = read_rows(tmp_path / "out" / "leaderboard.csv")
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


@pytest.mark.parametrize("size", [0, 5, 3 * (1 << 16) + 5])
def test_file_sha256_matches_hashlib(tmp_path, size):
    # empty, shorter than one read buffer, and three buffers and a bit
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert _file_sha256(path) == hashlib.sha256(data).hexdigest()


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
    "kind, option",
    [
        ("random_forest", "n_tree"),
        ("knn", "chunk_rows"),
        ("random_forest", "seed"),
        # options that another sampler kind takes
        ("none", "target_ratio"),
        ("random_over", "k_neighbors"),
        ("random_over", "with_replacement"),
        ("smote", "iht_folds"),
        ("smote", "seed"),
    ],
)
def test_unknown_classifier_option_is_config_error(
    tmp_path, fixture_csv, capsys, kind, option
):
    # the seed is always derived, never an option of either family
    family = "sampler" if kind in SAMPLER_KINDS else "classifier"
    grid = {"samplers": kind} if family == "sampler" else {"classifiers": f"dummy, {kind}"}
    config = write_config(tmp_path, fixture_csv, **grid)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"\n[{family}.{kind}]\n{option} = 1\n")
    message = f"{family} '{kind}': unknown option(s) ['{option}']"
    assert main(["validate", "--config", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, text, message",
    [
        ("dataset", "standardise_all = true", "unknown key 'standardise_all' in [dataset]"),
        ("grid", "metrc = auroc_curve", "unknown key 'metrc' in [grid]"),
        ("output", "workes = 2", "unknown key 'workes' in [output]"),
        (None, "[sampler.smot]\nk_neighbors = 3", "unknown section [sampler.smot]"),
        (None, "[classifer.knn]\nk = 3", "unknown section [classifer.knn]"),
        (
            None,
            "[sampler.iht]\ntarget_ratio = 0.2",
            "[sampler.iht] must be spelt [sampler.instance_hardness_threshold]",
        ),
    ],
)
def test_misspelt_key_or_section_is_config_error(
    tmp_path, fixture_csv, capsys, section, text, message
):
    config = write_config(tmp_path, fixture_csv)
    body = config.read_text(encoding="utf-8")
    if section is None:
        body += f"\n{text}\n"
    else:
        body = body.replace(f"[{section}]\n", f"[{section}]\n{text}\n", 1)
    config.write_text(body, encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 2
    assert any(
        line.startswith("error:") and message in line
        for line in capsys.readouterr().out.splitlines()
    )
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "grid, text, message",
    [
        # override sections of kinds the grid does not list
        ({}, "[sampler.smote]\nk_neigbors = 0", "unknown option(s) ['k_neigbors']"),
        ({}, "[sampler.smote]\ntarget_ratio = 7", "target_ratio must be in (0, 1]"),
        ({}, "[classifier.knn]\nkk = 2", "unknown option(s) ['kk']"),
        # classifier constructors check their own ranges
        ({"classifiers": "dummy, knn"}, "[classifier.knn]\nk = 0", "k must be >= 1"),
        (
            {"classifiers": "random_forest"},
            "[classifier.random_forest]\nn_trees = 0",
            "n_trees must be >= 1",
        ),
        (
            {"classifiers": "sgd_hinge"},
            "[classifier.sgd_hinge]\neta0 = 0",
            "eta0 must be > 0, got 0",
        ),
        # options that fail every fit, or leave nothing to fit
        (
            {"classifiers": "random_forest"},
            "[classifier.random_forest]\nmax_features = log2",
            "max_features must be None, 'sqrt' or an int >= 1, got 'log2'",
        ),
        (
            {"classifiers": "adaboost_real"},
            "[classifier.adaboost_real]\nn_rounds = -3",
            "n_rounds must be >= 1",
        ),
        (
            {"classifiers": "decision_tree"},
            "[classifier.decision_tree]\nmax_depth = 0",
            "max_depth must be None or an int >= 1, got 0",
        ),
        # a count that is not an int, or a NaN, would fail or poison every fit
        ({}, "[classifier.adaboost_discrete]\nn_rounds = 2.5",
         "n_rounds must be >= 1 (an int), got 2.5"),
        ({}, "[classifier.knn]\nk = 2.5", "k must be >= 1 (an int), got 2.5"),
        ({}, "[classifier.random_forest]\nn_trees = 2.5",
         "n_trees must be >= 1 (an int), got 2.5"),
        ({}, "[classifier.perceptron]\nepochs = 1.5",
         "epochs must be >= 1 (an int), got 1.5"),
        ({}, "[classifier.logistic_regression]\nmax_epochs = 2.5",
         "max_epochs must be >= 1 (an int), got 2.5"),
        ({}, "[sampler.smote]\nk_neighbors = 2.5",
         "k_neighbors must be >= 1 (an int), got 2.5"),
        ({}, "[sampler.instance_hardness_threshold]\niht_folds = 2.5",
         "iht_folds must be >= 2 (an int), got 2.5"),
        ({}, "[classifier.ridge]\nl2 = nan", "l2 must be >= 0, got nan"),
        ({}, "[classifier.sgd_hinge]\neta0 = nan", "eta0 must be > 0, got nan"),
        ({}, "[classifier.quadratic_da]\nreg_ratio = -1", "reg_ratio must be >= 0, got -1"),
        # inf clears every > and >= check, and true reads as the int 1
        ({}, "[classifier.sgd_hinge]\nl2 = inf", "l2 must be > 0, got inf"),
        ({}, "[classifier.ridge]\nl2 = 1e999", "l2 must be >= 0, got inf"),
        ({}, "[classifier.ridge]\nl2 = true", "l2 must be >= 0, got True"),
        ({}, "[classifier.logistic_regression]\ntol = -1", "tol must be >= 0, got -1"),
        ({}, "[classifier.passive_aggressive]\naggressiveness = inf",
         "aggressiveness must be > 0, got inf"),
        ({}, "[classifier.gaussian_nb]\nvar_floor_ratio = inf",
         "var_floor_ratio must be > 0, got inf"),
        ({}, "[sampler.smote]\ntarget_ratio = true", "target_ratio must be in (0, 1], got True"),
        # a string used to pass the spec and then fail every fit
        ({}, "[classifier.decision_tree]\nmin_samples_split = abc",
         "min_samples_split must be >= 2 (an int), got 'abc'"),
        # every bad option of a section is named, in the kind's table order
        ({}, "[classifier.sgd_hinge]\neta0 = 0\nl2 = -1",
         "l2 must be > 0, got -1; eta0 must be > 0, got 0"),
        # none reads as None, which only some options take
        ({}, "[classifier.knn]\nk = None", "k must be >= 1 (an int), got None"),
        ({}, "[sampler.smote]\ntarget_ratio = NONE", "target_ratio must be in (0, 1], got None"),
    ],
    ids=["smote-k_neigbors", "smote-target_ratio", "knn-kk", "knn-k", "forest-n_trees",
         "sgd_hinge-eta0", "forest-max_features", "adaboost_real-n_rounds",
         "decision_tree-max_depth", "adaboost_discrete-n_rounds-float", "knn-k-float",
         "forest-n_trees-float", "perceptron-epochs-float",
         "logistic_regression-max_epochs-float", "smote-k_neighbors-float",
         "iht-iht_folds-float", "ridge-l2-nan", "sgd_hinge-eta0-nan",
         "quadratic_da-reg_ratio-negative", "sgd_hinge-l2-inf", "ridge-l2-1e999",
         "ridge-l2-bool", "logistic_regression-tol-negative", "passive_aggressive-inf",
         "gaussian_nb-var_floor_ratio-inf", "smote-target_ratio-bool",
         "decision_tree-min_samples_split-string", "sgd_hinge-two-bad-options",
         "knn-k-none", "smote-target_ratio-none"],
)
def test_bad_override_section_is_config_error(
    tmp_path, fixture_csv, capsys, grid, text, message
):
    config = write_config(tmp_path, fixture_csv, **grid)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"\n{text}\n")
    family, kind = text[1 : text.index("]")].split(".")
    message = f"{family} '{kind}': {message}"
    assert main(["validate", "--config", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line", ["keep_raw_columns = Time, Amount", "encoded_prefix = V"],
    ids=["keep_raw_columns", "encoded_prefix"],
)
def test_encoded_only_key_on_the_pca_path_is_config_error(tmp_path, fixture_csv, capsys, line):
    # the PCA path never reads these keys, so a run would quietly drop them
    config = write_config(tmp_path, fixture_csv)
    body = config.read_text(encoding="utf-8")
    config.write_text(
        body.replace("pre_encoded = true\n", f"pre_encoded = false\n{line}\n"),
        encoding="utf-8",
    )
    key = line.split(" =")[0]
    message = f"[dataset] {key} is read only when pre_encoded = true"
    assert main(["validate", "--config", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out.splitlines()
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", ["header", "row"])
def test_bytes_that_are_not_utf8_are_reported(tmp_path, fixture_csv, capsys, where):
    # the bad byte sits inside the first block a text reader decodes
    data = fixture_csv.read_bytes()
    header_end = data.index(b"\n")
    if where == "header":
        data = data[:3] + b"\xff" + data[3:]
    else:
        data = data[: header_end + 3] + b"\xff" + data[header_end + 3 :]
    fixture_csv.write_bytes(data)
    config = write_config(tmp_path, fixture_csv)
    assert main(["validate", "--config", str(config)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and "not UTF-8" in out
    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err
    if where == "header":
        # a header problem is a config error, as a missing label column is
        assert code == 2 and err.startswith("config error: ")
    else:
        assert code == 3 and err.startswith("dataset error: ")
        assert "row 2, column 'Time'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, text",
    [
        ("decision_tree", "max_depth = none\nmax_features = None"),
        ("random_forest", "n_trees = 3\nmax_depth = NONE\nmax_features = none"),
    ],
)
def test_none_in_an_override_section_is_none(tmp_path, fixture_csv, capsys, kind, text):
    config = write_config(tmp_path, fixture_csv, classifiers=f"dummy, {kind}")
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"\n[classifier.{kind}]\n{text}\n")
    assert validate_config(config) == []
    run_config, _ = load_config(config)
    spec = run_config.grid.classifier_specs[1]
    assert spec.params["max_depth"] is None and spec.params["max_features"] is None
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    models = {row[1] for row in read_rows(tmp_path / "out" / "leaderboard.csv")[1:]}
    assert spec.label in models


def test_none_in_a_fixed_key_stays_text(tmp_path, fixture_csv):
    config = write_config(tmp_path, fixture_csv)
    body = config.read_text(encoding="utf-8")
    config.write_text(body.replace("positive_label = 1", "positive_label = none"), "utf-8")
    assert load_config(config)[0].positive_label == "none"


def test_override_section_of_a_known_kind_outside_the_grid_is_accepted(
    tmp_path, fixture_csv
):
    config = write_config(tmp_path, fixture_csv)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write("\n[sampler.smote]\nk_neighbors = 3\n\n[classifier.knn]\nk = 3\n")
    assert validate_config(config) == []


# The benchmark and the shipped configs write their INI files by hand; with
# strict keys, a name they use that the reader does not know would stop them.
# perfbench is read, never imported into the package or written to.
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_benchmark_configs_validate(tmp_path, name):
    workload = WORKLOADS["WORKLOADS"][name]
    data = make_fixture(
        "gaussian-imbalanced", 200, 0.05, seed=1, out_path=tmp_path / "w.csv",
        n_features=WORKLOADS["ENCODED_FEATURES"],
    )
    config = tmp_path / "run.ini"
    config.write_text(
        WORKLOADS["config_text"](workload, data, tmp_path / "out", seed=0, workers=1),
        encoding="utf-8",
    )
    assert not [d for d in validate_config(config) if d.startswith("error:")]


@pytest.mark.parametrize(
    "name, n_features", [("quickstart.ini", 10), ("creditcard.ini", 28)]
)
def test_shipped_configs_validate(tmp_path, name, n_features):
    data = make_fixture(
        "gaussian-imbalanced", 200, 0.05, seed=1, out_path=tmp_path / "d.csv",
        n_features=n_features,
    )
    text = (ROOT / "configs" / name).read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^path = .*$", f"path = {data}", text)
    assert count == 1
    config = tmp_path / name
    config.write_text(text, encoding="utf-8")
    assert not [d for d in validate_config(config) if d.startswith("error:")]


# what importing the package adds to sys.modules, as top-level names outside
# the standard library; names a process preloads (site .pth hooks) are left out
IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import imbselect, imbselect.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(n for n in added - set(sys.stdlib_module_names) if not n.startswith("__"))))
"""


def test_numpy_is_the_only_dependency():
    # scipy and others may be installed; an import of one would pass every other test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", IMPORTED_PACKAGES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["imbselect", "numpy"]
