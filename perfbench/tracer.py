"""Layer spans recorded from outside imbselect.

``install`` rebinds the names that ``imbselect.cli`` and ``imbselect.search``
look up at call time, so each call into a layer's public function opens a
span (name, kind, start, end, parent). Spans stay in memory and are
reduced to per-layer metrics once the run is over. Install it only in a
``workers=1`` process: pool workers would record spans the parent never
sees.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# The kinds are spelled out, not read from imbselect's registries, so that
# the per-layer metric names stay fixed (BENCHMARK.json lists them) while
# the package changes.
SAMPLER_KINDS = (
    "none",
    "random_under",
    "instance_hardness_threshold",
    "random_over",
    "smote",
    "adasyn",
)
CLASSIFIER_KINDS = (
    "dummy",
    "logistic_regression",
    "gaussian_nb",
    "decision_tree",
    "random_forest",
    "knn",
    "perceptron",
    "ridge",
    "sgd_hinge",
    "passive_aggressive",
    "adaboost_discrete",
    "adaboost_real",
    "quadratic_da",
)
REPORT_WRITERS = (
    "write_leaderboard_csv",
    "write_timings_csv",
    "write_figure_series",
    "write_leaderboard_json",
    "write_manifest",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, kind, start, end, parent index or -1]
        self._open = []
        self.dataset_copies = 0
        self.dataset_copy_bytes = 0
        self.resample_rows_out = 0
        self.resample_inputs = set()

    @contextmanager
    def span(self, name, kind=""):
        record = [name, kind, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, kind=""):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, kind):
                return fn(*args, **kwargs)

        return traced


def install(tracer):
    """Route every layer call of ``imbselect run`` through ``tracer``."""
    from imbselect import cli, search
    from imbselect.dataset import Dataset

    cli.load_csv = tracer.wrap("dataset.load_csv", cli.load_csv)
    cli.stratified_split = tracer.wrap("dataset.split", cli.stratified_split)
    Dataset.subset = tracer.wrap("dataset.split", Dataset.subset)
    post_init = Dataset.__post_init__

    def counted_post_init(dataset):
        post_init(dataset)
        tracer.dataset_copies += 1
        tracer.dataset_copy_bytes += dataset.features.nbytes

    Dataset.__post_init__ = counted_post_init

    standardizer = cli.ColumnStandardizer
    cli.ColumnStandardizer = type(
        standardizer.__name__,
        (standardizer,),
        {
            "fit": tracer.wrap("dataset.standardize", standardizer.fit),
            "transform": tracer.wrap("dataset.standardize", standardizer.transform),
        },
    )
    components = search.PrincipalComponents
    search.PrincipalComponents = type(
        components.__name__,
        (components,),
        {
            "fit": tracer.wrap("decomposition.pca_fit", components.fit),
            "transform": tracer.wrap("decomposition.reduce", components.transform),
        },
    )
    search.select_encoded = tracer.wrap("decomposition.reduce", search.select_encoded)

    resample = search.resample

    def traced_resample(spec, train, seed=0):
        tracer.resample_inputs.add((train.feature_names, spec.label))
        with tracer.span("sampling.resample", spec.kind):
            balanced = resample(spec, train, seed=seed)
        tracer.resample_rows_out += balanced.n_rows
        return balanced

    search.resample = traced_resample

    make_classifier = search.make_classifier

    def traced_make_classifier(spec, seed=0):
        model = make_classifier(spec, seed=seed)
        model.fit = tracer.wrap("classifiers.fit", model.fit, spec.kind)
        model.predict_score = tracer.wrap("classifiers.score", model.predict_score, spec.kind)
        return model

    search.make_classifier = traced_make_classifier

    search.metric_record = tracer.wrap("metrics.record", search.metric_record)
    search.evaluate_cell = tracer.wrap("search.cell", search.evaluate_cell)
    search.build_ensemble = tracer.wrap("search.ensemble", search.build_ensemble)
    search.evaluate_ensemble = tracer.wrap("search.ensemble", search.evaluate_ensemble)
    cli.run_search = tracer.wrap("search.run", cli.run_search)
    for name in REPORT_WRITERS:
        setattr(cli, name, tracer.wrap("report.write", getattr(cli, name)))


def span_table(tracer):
    """{(name, kind): [calls, inclusive seconds, self seconds, durations]}."""
    spans = tracer.spans
    durations = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[4] >= 0:
            child_time[span[4]] += duration
    table = defaultdict(lambda: [0, 0.0, 0.0, []])
    for span, duration, children in zip(spans, durations, child_time):
        row = table[(span[0], span[1])]
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        row[3].append(duration)
    return dict(table)


def _under(tracer, index, name):
    """Whether span ``index`` runs inside a span called ``name``."""
    parent = tracer.spans[index][4]
    while parent >= 0:
        if tracer.spans[parent][0] == name:
            return True
        parent = tracer.spans[parent][4]
    return False


def layer_metrics(tracer):
    """Per-layer metrics as {name: (value, unit, samples)}, plus the span table."""
    table = span_table(tracer)

    def total(name, kinds=None, column=1):
        rows = [r for (n, k), r in table.items() if n == name and (kinds is None or k in kinds)]
        return sum(r[column] for r in rows), sum(r[0] for r in rows)

    def seconds(metric, name, kinds=None, column=1):
        value, calls = total(name, kinds, column)
        out[metric] = (value, "s", calls)

    out = {}
    seconds("dataset.load_csv_s", "dataset.load_csv")
    seconds("dataset.split_s", "dataset.split")
    seconds("dataset.standardize_s", "dataset.standardize")
    out["dataset.copies"] = (tracer.dataset_copies, "count", 1)
    out["dataset.copy_mb"] = (tracer.dataset_copy_bytes / 2**20, "MB", tracer.dataset_copies)

    seconds("decomposition.pca_fit_s", "decomposition.pca_fit")
    seconds("decomposition.reduce_s", "decomposition.reduce")
    out["decomposition.reduce_calls"] = (total("decomposition.reduce")[1], "count", 1)

    seconds("sampling.resample_s", "sampling.resample")
    for kind in SAMPLER_KINDS:
        seconds(f"sampling.resample_s.{kind}", "sampling.resample", {kind})
    resample_calls = total("sampling.resample")[1]
    out["sampling.resample_calls"] = (resample_calls, "count", 1)
    out["sampling.rows_out"] = (tracer.resample_rows_out, "count", resample_calls)
    out["sampling.unique_ratio"] = (
        len(tracer.resample_inputs) / max(resample_calls, 1), "ratio", resample_calls,
    )

    seconds("classifiers.fit_s", "classifiers.fit")
    seconds("classifiers.score_s", "classifiers.score")
    for kind in CLASSIFIER_KINDS:
        seconds(f"classifiers.fit_s.{kind}", "classifiers.fit", {kind})
        seconds(f"classifiers.score_s.{kind}", "classifiers.score", {kind})
    out["classifiers.fit_calls"] = (total("classifiers.fit")[1], "count", 1)
    out["classifiers.score_calls"] = (total("classifiers.score")[1], "count", 1)
    cells = total("search.cell")[1]
    grid_scores = sum(
        1
        for i, span in enumerate(tracer.spans)
        if span[0] == "classifiers.score" and _under(tracer, i, "search.cell")
    )
    out["classifiers.score_useful_ratio"] = (cells / max(grid_scores, 1), "ratio", grid_scores)

    seconds("metrics.record_s", "metrics.record")
    out["metrics.record_calls"] = (total("metrics.record")[1], "count", 1)

    seconds("search.run_s", "search.run")
    seconds("search.run_self_s", "search.run", column=2)
    seconds("search.grid_s", "search.cell")
    seconds("search.grid_self_s", "search.cell", column=2)
    seconds("search.ensemble_s", "search.ensemble")
    seconds("search.ensemble_self_s", "search.ensemble", column=2)
    out["search.ensemble_refits"] = (
        sum(
            1
            for i, span in enumerate(tracer.spans)
            if span[0] == "classifiers.fit" and _under(tracer, i, "search.ensemble")
        ),
        "count",
        1,
    )
    seconds("report.write_s", "report.write")
    return out, table
