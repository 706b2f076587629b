"""Grid search over (dimensionality, sampler, classifier) pipelines.

Every cell shares one stratified train/test split. A cell's pipeline is:
reduce dimensionality (fit on train only), rebalance the training rows,
fit the classifier, score the untouched test split. Cell seeds derive from
(master_seed, cell index) alone, so leaderboards are identical no matter
how many workers execute the grid.

The hard and soft votes reuse the test scores the grid already computed
for the top-k cells: nothing is refitted or rescored. Only those k score
vectors are held until the votes are done.
"""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .base import derive_seed
from .classifiers import ClassifierSpec, make_classifier
from .dataset import freeze
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
    # a cell's test scores and how its model reads them, kept for the votes
    test_scores: np.ndarray = field(default=None, repr=False, compare=False)
    decision_threshold: float = None
    supports_probability: bool = None

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


def usable_width(feature_names, pre_encoded, prefix):
    """The width dims entries can reach: the ``<prefix><n>`` columns of a
    pre-encoded grid, else every feature."""
    if pre_encoded:
        return len(encoded_column_names(feature_names, prefix))
    return len(feature_names)


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


def _reduce(cell, cfg, pca, dataset):
    """The cell's view of ``dataset``: its ``V<n>`` slice or its leading PCs."""
    if cfg.pre_encoded:
        return select_encoded(
            dataset, cell.dims, prefix=cfg.encoded_prefix, keep=cfg.keep_raw_columns
        )
    scores = pca.transform(dataset.features, n_components=cell.dims)
    names = tuple(f"PC{i}" for i in range(1, cell.dims + 1))
    return dataset.with_features(freeze(scores), names)


def _failed(record, exc):
    """``record`` for a cell or vote that raised: it ranks last, the run goes on."""
    return replace(record, status="failed", error=f"{type(exc).__name__}: {exc}")


def evaluate_cell(cell, train, test, cfg, pca):
    """Reduce, rebalance, fit and score the test split once.

    ``pca`` is the basis fitted on ``train`` (unused, and may be None, for a
    pre-encoded grid). The record keeps the test scores for the votes;
    failures become failed records.
    """
    seed = derive_seed(cfg.master_seed, "cell", cell.index)
    record = EvaluationRecord(
        model_label=cell.classifier.label,
        sampler_label=cell.sampler.label,
        dims_label=str(cell.dims),
        seed_used=seed,
        cell=cell,
    )
    try:
        start = time.perf_counter()
        balanced = resample(cell.sampler, _reduce(cell, cfg, pca, train), seed=seed)
        model = make_classifier(cell.classifier, seed=seed).fit(
            balanced.features, balanced.labels
        )
        train_seconds = time.perf_counter() - start
        scores = model.predict_score(_reduce(cell, cfg, pca, test).features)
        # the expression BinaryClassifier.predict applies, without rescoring
        predictions = (scores >= model.decision_threshold).astype(np.int64)
        metrics = metric_record(
            test.labels,
            predictions,
            scores,
            train_time_seconds=train_seconds,
            extra_flags=model.fit_flags_,
        )
        return replace(
            record,
            metrics=metrics,
            test_scores=scores,
            decision_threshold=model.decision_threshold,
            supports_probability=model.supports_probability,
        )
    except Exception as exc:
        return _failed(record, exc)


@dataclass(frozen=True)
class Leaderboard:
    records: tuple
    metric_key: str


def rank(records, metric_key):
    """Total order: metric descending, failed cells last.

    Exact metric ties resolve by (dims, sampler, model), with the vote rows
    after every grid cell, so report bytes never depend on timing.
    """
    ordered = sorted(records, key=_rank_key(metric_key))
    return Leaderboard(records=tuple(ordered), metric_key=metric_key)


def _rank_key(metric_key):
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

    return key


def build_ensemble(top, record, cfg):
    """Fold one cell record into ``top``, the running top-k vote members.

    Records arrive in grid order and the sort is stable, so ties keep
    their grid order: ``top`` always equals the first k evaluated records
    of ``rank(seen)``.
    """
    if not record.ok:
        return top
    return sorted(top + [record], key=_rank_key(cfg.metric_key))[: cfg.top_k]


def vote(members, mode):
    """Hard majority or mean soft score over the members' test scores.

    Soft mode passes probability scores through untouched and min-max
    normalizes margin scores over the test split. Returns the vote scores
    and the labels of the members it normalized.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"unknown vote mode {mode!r}")
    if mode == "hard" and len(members) % 2 == 0:
        raise ValueError("hard voting requires an odd member count")
    total = np.zeros(len(members[0].test_scores))
    normalized = []
    for member in members:
        scores = member.test_scores
        if mode == "hard":
            scores = scores >= member.decision_threshold
        elif not member.supports_probability:
            low, high = scores.min(), scores.max()
            scores = np.full_like(scores, 0.5) if high == low else (scores - low) / (high - low)
            normalized.append(member.model_label)
        total += scores
    return total / len(members), normalized


def evaluate_ensemble(members, mode, test, seed_used):
    """One vote row; a hard vote over an even member count fails here."""
    record = EvaluationRecord(
        model_label=f"vote_{mode}",
        sampler_label="top_k_members",
        dims_label="",
        seed_used=seed_used,
    )
    try:
        scores, normalized = vote(members, mode)
        metrics = metric_record(
            test.labels,
            (scores >= 0.5).astype(np.int64),
            scores,
            train_time_seconds=sum(m.metrics.train_time_seconds for m in members),
            extra_flags={"soft_vote_margin_minmax"} if normalized else set(),
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


def _gather(outcomes, cfg):
    """Cell records without their scores, and the top k that keep them."""
    records, members = [], []
    for record in outcomes:
        members = build_ensemble(members, record, cfg)
        records.append(replace(record, test_scores=None))
    return records, members


def run_search(train, test, cfg, workers=1):
    """Evaluate the whole grid plus both top-k voting ensembles.

    The test split is checksummed before the run and re-verified before
    the final ensemble evaluation; any drift aborts the run.
    """
    started = time.perf_counter()
    checksum = dataset_checksum(test)

    width = usable_width(train.feature_names, cfg.pre_encoded, cfg.encoded_prefix)
    if cfg.pre_encoded and width == 0:
        raise ValueError(
            f"pre_encoded search needs {cfg.encoded_prefix}<n> columns; "
            f"dataset has {train.feature_names}"
        )
    cfg, clamp_warnings = clamp_dims(cfg, width)

    pca = None
    if not cfg.pre_encoded:
        pca = PrincipalComponents().fit(train.features)

    cells = enumerate_grid(cfg)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        outcomes = (evaluate_cell(cell, train, test, cfg, pca) for cell in cells)
        records, members = _gather(outcomes, cfg)
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(train, test, cfg, pca),
        ) as pool:
            records, members = _gather(
                pool.map(_evaluate_in_worker, cells, chunksize=1), cfg
            )

    if dataset_checksum(test) != checksum:
        raise LeakageError("test split changed during the grid run")

    ensemble_records = []
    comparison = ""
    if len(members) == cfg.top_k:
        ensemble_records = [
            evaluate_ensemble(
                members, mode, test, seed_used=derive_seed(cfg.master_seed, "ensemble", mode)
            )
            for mode in ("hard", "soft")
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
