"""Spans around the calls into each labelbridge module, taken from outside.

The tracer replaces each public function at the name its caller looks it up
by (for example ``labelbridge.model.fusion_forward_batch``, which
``Network.forward_batch`` calls) with a wrapper that records a span: name,
start, end, parent span, workload and repeat. Spans stay in memory and are
written once, when the measured process ends. The program itself is not
changed.

Allocation peaks are read with tracemalloc around the fusion forward calls
only; the time spent switching tracemalloc on and off is recorded as a
``tracer`` span, so it is taken out of the caller's self time.
"""

import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

import labelbridge.backbone
import labelbridge.cli
import labelbridge.jsonio
import labelbridge.model
import labelbridge.training

_CLI = labelbridge.cli
_MODEL = labelbridge.model
_TRAINING = labelbridge.training

# (span name, owner, attribute): the owner is the module or class whose
# attribute the caller looks up at call time.
SPANS = [
    ("data.load_features", _CLI, "load_features"),
    ("data.parse_labels", _CLI, "parse_pipe_labels"),
    ("data.parse_labels", _CLI, "parse_columnar_labels"),
    ("backbone.synthetic", _CLI, "generate_synthetic_dataset"),
    ("backbone.toy_mlp", labelbridge.backbone.ToyMlp, "forward_batch"),
    ("backbone.toy_mlp", labelbridge.backbone.ToyMlp, "backward_batch"),
    ("graph.build", _CLI, "count_cooccurrence"),
    ("graph.build", _CLI, "build_correlation_graph"),
    ("embeddings", _CLI, "load_word_vectors"),
    ("embeddings", _CLI, "embed_labels"),
    ("embeddings", _CLI, "synthetic_embeddings"),
    ("gcn.forward", _MODEL, "gcn_forward"),
    ("gcn.backward", _MODEL, "gcn_backward"),
    ("fusion.forward", _MODEL, "fusion_forward_batch"),
    ("fusion.backward", _MODEL, "fusion_backward_batch"),
    ("model.forward_batch", _MODEL.Network, "forward_batch"),
    ("model.backward_batch", _MODEL.Network, "backward_batch"),
    ("model.predict_logits", _MODEL.Network, "predict_logits"),
    ("training.loss", _TRAINING, "multilabel_loss_batch"),
    ("training.sgd_step", _TRAINING, "sgd_step"),
    ("training.train", _CLI, "train"),
    ("training.save_checkpoint", _CLI, "save_checkpoint"),
    ("training.load_checkpoint", _CLI, "load_checkpoint"),
    ("metrics.mean_val_auc", _TRAINING, "mean_val_auc"),
    ("metrics.build_report", _CLI, "build_report"),
    ("metrics.top_k_table", _CLI, "top_k_table"),
]

# Called hundreds of thousands of times per command: counted, not spanned.
COUNTERS = [
    ("jsonio.format_float", _CLI, "format_float"),
    ("jsonio.format_float", labelbridge.jsonio, "format_float"),
]

ROOT = "cli"
ALLOC_SPAN = "fusion.forward"
ROWS_SPAN = "data.load_features"
TRACER_SPAN = "tracer"

# Span record fields.
NAME, START, END, PARENT, WORKLOAD, REPEAT, EXTRA = range(7)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()     # (repeat, name) -> calls
        self._repeat = 0
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}

    @property
    def repeat(self) -> int:
        return self._repeat

    @repeat.setter
    def repeat(self, value: int) -> None:
        self._flush_counts()
        self._repeat = value

    def _flush_counts(self) -> None:
        for name, cell in self._cells.items():
            if cell[0]:
                self.counts[(self._repeat, name)] += cell[0]
                cell[0] = 0

    def install(self) -> None:
        for name, owner, attr in SPANS:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name, owner, attr in COUNTERS:
            setattr(owner, attr, self._count(name, getattr(owner, attr)))

    def command(self, fn, *args):
        """Run one CLI command as a root span."""
        return self._wrap(ROOT, fn)(*args)

    def _reserve(self) -> tuple[int, int]:
        """Index for a new span, and its parent's index (-1 for a root)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        return len(self.spans) - 1, parent

    def _record(self, index, name, start, end, parent, extra=None) -> None:
        # A finished span is a tuple of atoms, which the garbage collector
        # stops tracking, so a long trace does not slow the program's
        # collections.
        self.spans[index] = (name, start, end, parent, self.workload, self._repeat, extra)

    def _switch(self, action) -> None:
        """Run a tracemalloc switch as a span of its own."""
        index, parent = self._reserve()
        start = time.perf_counter()
        action()
        self._record(index, TRACER_SPAN, start, time.perf_counter(), parent)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        with_alloc = name == ALLOC_SPAN
        with_rows = name == ROWS_SPAN

        def traced(*args, **kwargs):
            if with_alloc:
                self._switch(tracemalloc.start)
            index, parent = self._reserve()
            self._stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                self._stack.pop()
                extra = None
                if with_alloc:
                    extra = tracemalloc.get_traced_memory()[1]
                elif with_rows and result is not None:
                    extra = len(result)
                self._record(index, name, start, end, parent, extra)
                if with_alloc:
                    self._switch(tracemalloc.stop)
        return traced

    def _count(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path: str) -> None:
        self._flush_counts()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[r, n, c] for (r, n), c in sorted(self.counts.items())]},
                      fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(trace: dict, repeats: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the given repeats; value -> (number, unit).

    busy_s is the time spent inside a layer's calls in one repeat (a train
    plus an eval command); every busy_s layer but model.predict_logits is a
    leaf, so for them this is self time. self_s is self time per repeat. Both are
    medians over repeats. ms_per_call is the median over all calls; calls and
    rows are counts per repeat.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    wanted = set(repeats)
    busy = defaultdict(lambda: dict.fromkeys(repeats, 0.0))
    own = defaultdict(lambda: dict.fromkeys(repeats, 0.0))
    calls = defaultdict(lambda: dict.fromkeys(repeats, 0))
    rows = dict.fromkeys(repeats, 0)
    per_call = defaultdict(list)
    peak = 0
    for span, self_s in zip(spans, selfs):
        r = span[REPEAT]
        if r not in wanted:
            continue
        name = span[NAME]
        busy[name][r] += span[END] - span[START]
        own[name][r] += self_s
        calls[name][r] += 1
        per_call[name].append(span[END] - span[START])
        if name == ALLOC_SPAN:
            peak = max(peak, span[EXTRA])
        elif name == ROWS_SPAN:
            rows[r] += span[EXTRA]
    for r, name, n in trace["counts"]:
        if r in wanted:
            calls[name][r] += n

    def med(table):
        return statistics.median(table.values())

    def ms(name):
        return 1000.0 * statistics.median(per_call[name]) if per_call[name] else 0.0

    model_self = {r: sum(own[n][r] for n in ("model.forward_batch", "model.backward_batch",
                                             "model.predict_logits")) for r in repeats}
    return {
        "data.load_features.busy_s": (med(busy["data.load_features"]), "s"),
        "data.load_features.rows": (med(rows), "count"),
        "data.parse_labels.busy_s": (med(busy["data.parse_labels"]), "s"),
        "backbone.synthetic.busy_s": (med(busy["backbone.synthetic"]), "s"),
        "backbone.toy_mlp.busy_s": (med(busy["backbone.toy_mlp"]), "s"),
        "graph.build.busy_s": (med(busy["graph.build"]), "s"),
        "embeddings.busy_s": (med(busy["embeddings"]), "s"),
        "gcn.forward.ms_per_call": (ms("gcn.forward"), "ms"),
        "gcn.backward.ms_per_call": (ms("gcn.backward"), "ms"),
        "gcn.forward.calls": (med(calls["gcn.forward"]), "count"),
        "fusion.forward.ms_per_call": (ms("fusion.forward"), "ms"),
        "fusion.backward.ms_per_call": (ms("fusion.backward"), "ms"),
        "fusion.forward.peak_alloc_mb": (peak / 1e6, "MB"),
        "model.self_s": (med(model_self), "s"),
        "model.predict_logits.busy_s": (med(busy["model.predict_logits"]), "s"),
        "training.loss.busy_s": (med(busy["training.loss"]), "s"),
        "training.sgd_step.ms_per_call": (ms("training.sgd_step"), "ms"),
        "training.train.self_s": (med(own["training.train"]), "s"),
        "training.save_checkpoint.busy_s": (med(busy["training.save_checkpoint"]), "s"),
        "training.load_checkpoint.busy_s": (med(busy["training.load_checkpoint"]), "s"),
        "metrics.mean_val_auc.busy_s": (med(busy["metrics.mean_val_auc"]), "s"),
        "metrics.build_report.busy_s": (med(busy["metrics.build_report"]), "s"),
        "metrics.top_k_table.busy_s": (med(busy["metrics.top_k_table"]), "s"),
        "jsonio.format_float.calls": (med(calls["jsonio.format_float"]), "count"),
        "cli.self_s": (med(own[ROOT]), "s"),
    }


def command_self_sums(trace: dict) -> list[float]:
    """Per command (root span), in order: the sum of the self times of its spans."""
    spans = trace["spans"]
    root_of: list[int] = []
    sums: dict[int, float] = defaultdict(float)
    for k, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        root_of.append(k if span[PARENT] < 0 else root_of[span[PARENT]])
        sums[root_of[k]] += self_s
    return [sums[k] for k in sorted(sums)]
