"""Grid search over (dimensionality, sampler, classifier) pipelines.

Every cell shares one stratified train/test split. A cell's pipeline is:
reduce dimensionality (fit on train only), rebalance the training rows,
fit the classifier, score the untouched test split. Cell seeds derive from
(master_seed, cell index) alone, so leaderboards are identical no matter
how many workers execute the grid.
"""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .base import derive_seed
from .classifiers import ClassifierSpec, make_classifier
from .decomposition import PrincipalComponents, encoded_column_names, select_encoded
from .metrics import METRIC_KEYS, MetricRecord, metric_record
from .sampling import SamplerSpec, resample


@dataclass(frozen=True)
class GridConfig:
    dims_list: tuple
    sampler_specs: tuple
    classifier_specs: tuple
    metric_key: str = "f1"
    top_k: int = 3
    test_fraction: float = 0.2
    master_seed: int = 0
    pre_encoded: bool = False
    encoded_prefix: str = "V"
    keep_raw_columns: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dims_list", tuple(int(d) for d in self.dims_list))
        object.__setattr__(self, "sampler_specs", tuple(self.sampler_specs))
        object.__setattr__(self, "classifier_specs", tuple(self.classifier_specs))
        object.__setattr__(self, "keep_raw_columns", tuple(self.keep_raw_columns))
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))

    def problems(self):
        out = []
        if not self.dims_list:
            out.append("dims_list is empty")
        elif min(self.dims_list, default=1) < 1:
            out.append("dims entries must be >= 1")
        if not self.sampler_specs:
            out.append("sampler_specs is empty")
        if not self.classifier_specs:
            out.append("classifier_specs is empty")
        if self.metric_key not in METRIC_KEYS:
            out.append(
                f"metric_key {self.metric_key!r} is not one of {METRIC_KEYS}"
            )
        if self.top_k < 1:
            out.append("top_k must be >= 1")
        if self.grid_size and self.top_k > self.grid_size:
            out.append(f"top_k {self.top_k} exceeds the grid size {self.grid_size}")
        if not 0.0 < self.test_fraction < 1.0:
            out.append("test_fraction must be in (0, 1)")
        return out

    @property
    def grid_size(self):
        return (
            len(self.dims_list) * len(self.sampler_specs) * len(self.classifier_specs)
        )


@dataclass(frozen=True)
class GridCell:
    index: int
    dims: int
    sampler: SamplerSpec
    classifier: ClassifierSpec


@dataclass(frozen=True)
class EvaluationRecord:
    model_label: str
    sampler_label: str
    dims_label: str
    seed_used: int
    metrics: MetricRecord = None
    status: str = "ok"
    error: str = ""
    cell: GridCell = None

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def cell_index(self):
        return self.cell.index if self.cell is not None else -1


def enumerate_grid(cfg):
    """Cartesian product: dims outer, sampler middle, classifier inner."""
    cells = []
    index = 0
    for dims in cfg.dims_list:
        for sampler in cfg.sampler_specs:
            for classifier in cfg.classifier_specs:
                cells.append(
                    GridCell(index=index, dims=dims, sampler=sampler, classifier=classifier)
                )
                index += 1
    return cells


def clamp_dims(cfg, width):
    """Cap dims entries at the dataset's usable width and keep the first
    entry of each resulting width; report what changed."""
    kept, warnings = [], []
    for orig in cfg.dims_list:
        new = min(orig, width)
        if new != orig:
            warnings.append(f"dims={orig} exceeds available width {width}; clamped to {new}")
        if new in kept:
            warnings.append(f"dims={orig} repeats width {new} already in the grid; dropped")
        else:
            kept.append(new)
    if not warnings:
        return cfg, []
    return replace(cfg, dims_list=tuple(kept)), warnings


class CellPipeline:
    """One grid cell end to end: reduce, rebalance, fit; predict on raw rows."""

    def __init__(self, cell, cfg, pca=None):
        self.cell = cell
        self.cfg = cfg
        self.pca = pca
        self.seed = derive_seed(cfg.master_seed, "cell", cell.index)

    def _reduce(self, dataset):
        if self.cfg.pre_encoded:
            return select_encoded(
                dataset,
                self.cell.dims,
                prefix=self.cfg.encoded_prefix,
                keep=self.cfg.keep_raw_columns,
            )
        scores = self.pca.transform(dataset.features, n_components=self.cell.dims)
        names = tuple(f"PC{i}" for i in range(1, self.cell.dims + 1))
        return dataset.with_features(scores, names)

    def fit(self, train):
        if not self.cfg.pre_encoded and self.pca is None:
            self.pca = PrincipalComponents().fit(train.features)
        start = time.perf_counter()
        reduced = self._reduce(train)
        balanced = resample(self.cell.sampler, reduced, seed=self.seed)
        self.model_ = make_classifier(self.cell.classifier, seed=self.seed).fit(
            balanced.features, balanced.labels
        )
        self.train_seconds_ = time.perf_counter() - start
        return self

    def predict(self, dataset):
        return self.model_.predict(self._reduce(dataset).features)

    def predict_score(self, dataset):
        return self.model_.predict_score(self._reduce(dataset).features)

    @property
    def supports_probability(self):
        return self.model_.supports_probability


def _failed(record, exc):
    """``record`` for a cell or vote that raised: it ranks last, the run goes on."""
    return replace(record, status="failed", error=f"{type(exc).__name__}: {exc}")


def evaluate_cell(cell, train, test, cfg, pca=None):
    """Full MetricRecord for one cell; failures become failed records."""
    record = EvaluationRecord(
        model_label=cell.classifier.label,
        sampler_label=cell.sampler.label,
        dims_label=str(cell.dims),
        seed_used=derive_seed(cfg.master_seed, "cell", cell.index),
        cell=cell,
    )
    try:
        pipeline = CellPipeline(cell, cfg, pca).fit(train)
        scores = pipeline.predict_score(test)
        # the expression BinaryClassifier.predict applies, without rescoring
        predictions = (scores >= pipeline.model_.decision_threshold).astype(np.int64)
        metrics = metric_record(
            test.labels,
            predictions,
            scores,
            train_time_seconds=pipeline.train_seconds_,
            extra_flags=pipeline.model_.fit_flags_,
        )
        return replace(record, metrics=metrics)
    except Exception as exc:
        return _failed(record, exc)


@dataclass(frozen=True)
class Leaderboard:
    records: tuple
    metric_key: str

    def top(self, k):
        ok = [r for r in self.records if r.ok]
        if len(ok) < k:
            raise ValueError(f"only {len(ok)} evaluated cells, cannot take top {k}")
        return ok[:k]


def rank(records, metric_key):
    """Total order: metric descending, failed cells last.

    Exact metric ties resolve by (dims, sampler, model), with the vote rows
    after every grid cell, so report bytes never depend on timing.
    """
    if metric_key not in METRIC_KEYS:
        raise KeyError(f"unknown metric key {metric_key!r}")

    def key(record):
        if not record.ok:
            return (1, 0.0, (), record.cell_index)
        dims = record.cell.dims if record.cell is not None else float("inf")
        return (
            0,
            -record.metrics.value(metric_key),
            (dims, record.sampler_label, record.model_label),
        )

    ordered = sorted(records, key=key)
    return Leaderboard(records=tuple(ordered), metric_key=metric_key)


class VotingEnsemble:
    """Combine top-k cell pipelines by hard majority or mean soft score.

    Soft mode passes probability scores through untouched and min-max
    normalizes margin scores over the evaluation batch; any normalized
    member is flagged in the evaluation record.
    """

    def __init__(self, members, mode):
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown vote mode {mode!r}")
        if mode == "hard" and len(members) % 2 == 0:
            raise ValueError("hard voting requires an odd member count")
        self.members = list(members)
        self.mode = mode
        self.normalized_members_ = []

    @property
    def train_seconds(self):
        return sum(m.train_seconds_ for m in self.members)

    def predict_score(self, dataset):
        self.normalized_members_ = []
        if self.mode == "hard":
            votes = np.zeros(dataset.n_rows)
            for member in self.members:
                votes += member.predict(dataset)
            return votes / len(self.members)
        total = np.zeros(dataset.n_rows)
        for i, member in enumerate(self.members):
            scores = member.predict_score(dataset)
            if not member.supports_probability:
                low, high = scores.min(), scores.max()
                scores = (
                    np.full_like(scores, 0.5)
                    if high == low
                    else (scores - low) / (high - low)
                )
                self.normalized_members_.append(member.cell.classifier.label)
            total += scores
        return total / len(self.members)

    def predict(self, dataset):
        return (self.predict_score(dataset) >= 0.5).astype(np.int64)


def build_ensemble(top_records, train, cfg, pca=None):
    """Refit the top cells on their own pipelines, once for both vote modes."""
    members = []
    for record in top_records:
        if record.cell is None:
            raise ValueError("ensemble members must come from grid cells")
        members.append(CellPipeline(record.cell, cfg, pca).fit(train))
    return members


def _vote_record(mode, seed_used):
    return EvaluationRecord(
        model_label=f"vote_{mode}",
        sampler_label="top_k_members",
        dims_label="",
        seed_used=seed_used,
    )


def evaluate_ensemble(members, mode, test, seed_used):
    """One vote row; a hard vote over an even member count fails here."""
    record = _vote_record(mode, seed_used)
    try:
        ensemble = VotingEnsemble(members, mode)
        scores = ensemble.predict_score(test)
        predictions = (scores >= 0.5).astype(np.int64)
        flags = (
            {"soft_vote_margin_minmax"} if ensemble.normalized_members_ else set()
        )
        metrics = metric_record(
            test.labels,
            predictions,
            scores,
            train_time_seconds=ensemble.train_seconds,
            extra_flags=flags,
        )
        dims = ",".join(str(d) for d in sorted({m.cell.dims for m in members}))
        return replace(record, dims_label=dims, metrics=metrics)
    except Exception as exc:
        return _failed(record, exc)


def dataset_checksum(dataset):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()


class LeakageError(RuntimeError):
    pass


_WORKER_CONTEXT = {}


def _init_worker(train, test, cfg, pca):
    _WORKER_CONTEXT["args"] = (train, test, cfg, pca)


def _evaluate_in_worker(cell):
    train, test, cfg, pca = _WORKER_CONTEXT["args"]
    return evaluate_cell(cell, train, test, cfg, pca)


@dataclass
class SearchResult:
    leaderboard: Leaderboard
    cell_records: list
    ensemble_records: list
    clamp_warnings: list
    test_checksum: str
    wall_seconds: float
    grid: GridConfig  # the grid that ran: dims clamped to the data's width
    failed_cells: int = 0
    ensemble_comparison: str = ""

    @property
    def all_records(self):
        return list(self.cell_records) + list(self.ensemble_records)


def run_search(train, test, cfg, workers=1):
    """Evaluate the whole grid plus both top-k voting ensembles.

    The test split is checksummed before the run and re-verified before
    the final ensemble evaluation; any drift aborts the run.
    """
    started = time.perf_counter()
    checksum = dataset_checksum(test)

    if cfg.pre_encoded:
        width = len(encoded_column_names(train.feature_names, cfg.encoded_prefix))
        if width == 0:
            raise ValueError(
                f"pre_encoded search needs {cfg.encoded_prefix}<n> columns; "
                f"dataset has {train.feature_names}"
            )
    else:
        width = train.n_features
    cfg, clamp_warnings = clamp_dims(cfg, width)

    pca = None
    if not cfg.pre_encoded:
        pca = PrincipalComponents().fit(train.features)

    cells = enumerate_grid(cfg)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        records = [evaluate_cell(cell, train, test, cfg, pca) for cell in cells]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(train, test, cfg, pca),
        ) as pool:
            records = list(pool.map(_evaluate_in_worker, cells, chunksize=1))

    board = rank(records, cfg.metric_key)

    if dataset_checksum(test) != checksum:
        raise LeakageError("test split changed during the grid run")

    ensemble_records = []
    comparison = ""
    evaluated = [r for r in board.records if r.ok]
    if len(evaluated) >= cfg.top_k:
        seeds = {
            mode: derive_seed(cfg.master_seed, "ensemble", mode) for mode in ("hard", "soft")
        }
        try:
            members = build_ensemble(board.top(cfg.top_k), train, cfg, pca)
        except Exception as exc:  # a member that cannot be fitted fails both votes
            ensemble_records = [
                _failed(_vote_record(mode, seed), exc) for mode, seed in seeds.items()
            ]
        else:
            ensemble_records = [
                evaluate_ensemble(members, mode, test, seed_used=seed)
                for mode, seed in seeds.items()
            ]
        comparison = _compare_ensembles(ensemble_records, cfg.metric_key)

    board = rank(list(records) + ensemble_records, cfg.metric_key)
    return SearchResult(
        leaderboard=board,
        cell_records=records,
        ensemble_records=ensemble_records,
        clamp_warnings=clamp_warnings,
        test_checksum=checksum,
        wall_seconds=time.perf_counter() - started,
        grid=cfg,
        failed_cells=sum(1 for r in records if not r.ok),
        ensemble_comparison=comparison,
    )


def _compare_ensembles(ensemble_records, metric_key):
    values = {}
    for record in ensemble_records:
        if record.ok:
            values[record.model_label] = record.metrics.value(metric_key)
    if len(values) < 2:
        return "ensemble comparison unavailable (a vote mode failed)"
    hard, soft = values["vote_hard"], values["vote_soft"]
    if hard > soft:
        verdict = "hard voting beat soft voting"
    elif soft > hard:
        verdict = "soft voting beat hard voting"
    else:
        verdict = "hard and soft voting tied"
    return f"{verdict} on {metric_key}: hard={hard:.4f} soft={soft:.4f}"
