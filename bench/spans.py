"""Span recording around tcto's layers, and the per-layer metrics built from it.

The tracer wraps functions where the program looks them up (a module
attribute or a class attribute), so tcto itself is unchanged. Each call of
a wrapped function becomes one span ``[name, start, end, parent, info]``:
``parent`` is the index of the enclosing span or -1, and ``info`` is a small
per-call value the metrics need (matrix width and digest for ``evaluate``,
node count for ``cluster_nodes``, whether an operation or ``add_node``
produced something). Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its direct children
cover; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute) for module-level functions, patched where
# the caller looks them up. Spans that no metric names still count: they
# keep their time out of their callers' self time.
MODULE_TARGETS = (
    ("evaluator.evaluate", "tcto.pipeline", "evaluate"),
    ("evaluator.evaluate", "tcto.cli", "evaluate"),
    ("evaluator.mutual_information", "tcto.roadmap", "mutual_information"),
    ("clustering.cluster_nodes", "tcto.pipeline", "cluster_nodes"),
    ("opset.apply", "tcto.pipeline", "apply_unary"),
    ("opset.apply", "tcto.pipeline", "apply_binary"),
    ("reward.step_reward", "tcto.pipeline", "step_reward"),
    ("tabular.column_stats", "tcto.roadmap", "column_stats"),
    ("tabular.load_csv", "tcto.cli", "load_csv"),
    ("tabular.stratified_split", "tcto.pipeline", "stratified_split"),
    ("tabular.stratified_split", "tcto.cli", "stratified_split"),
    ("encoder.snapshot_from_roadmap", "tcto.encoder", "snapshot_from_roadmap"),
    ("encoder.rgcn_forward", "tcto.encoder", "rgcn_forward"),
    ("encoder.rgcn_backward", "tcto.encoder", "rgcn_backward"),
    ("encoder.state_forward", "tcto.encoder", "state_forward"),
    ("encoder.state_backward", "tcto.encoder", "state_backward"),
    ("encoder.encoder_sgd_step", "tcto.encoder", "encoder_sgd_step"),
    ("agents.select_candidate", "tcto.agents", "select_candidate"),
    ("agents.operation_q_values", "tcto.agents", "operation_q_values"),
    ("agents.train_step", "tcto.agents", "train_step"),
    ("agents.push_transition", "tcto.agents", "push_transition"),
    ("agents.sync_target", "tcto.agents", "sync_target"),
    ("cli.train", "tcto.cli", "_cmd_train"),
    ("cli.apply", "tcto.cli", "_cmd_apply"),
)

ROADMAP_METHODS = (
    "from_dataset",
    "import_json",
    "add_node",
    "adjacency_matrix",
    "materialize",
    "take_snapshot",
    "restore",
    "prune_node_wise",
    "export_json",
)

PIPELINE_METHODS = (("__init__", "pipeline.init"), ("_run", "pipeline.run"), ("_step", "pipeline.step"))


def _matrix_digest(x) -> tuple:
    """Width and identity of a feature matrix: shape plus sha256 of its bytes."""
    a = np.ascontiguousarray(x, dtype=float)
    return (a.shape[1], f"{a.shape}:{hashlib.sha256(a.tobytes()).hexdigest()}")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Per-call info, computed after the call returns (outside the span's time).
INFO = {
    "evaluator.evaluate": lambda args, kwargs, out: _matrix_digest(_arg(args, kwargs, 0, "X")),
    "clustering.cluster_nodes": lambda args, kwargs, out: len(_arg(args, kwargs, 2, "node_ids")),
    "opset.apply": lambda args, kwargs, out: out is not None,
    "roadmap.add_node": lambda args, kwargs, out: out.created,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every traced layer of an imported tcto in place.

        A target the program no longer has is skipped with a warning, so its
        metrics read 0 instead of the traced run failing.
        """
        from tcto.pipeline import Pipeline
        from tcto.roadmap import Roadmap

        targets = [(name, importlib.import_module(module), attr) for name, module, attr in MODULE_TARGETS]
        targets += [(f"roadmap.{method}", Roadmap, method) for method in ROADMAP_METHODS]
        targets += [(name, Pipeline, method) for method, name in PIPELINE_METHODS]
        for name, owner, attr in targets:
            raw = vars(owner).get(attr)
            if raw is None:
                print(f"trace: {owner.__name__}.{attr} not found; {name} not traced", file=sys.stderr)
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, train_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``spans`` holds one traced process: a ``tcto train`` (root span
    ``cli.train``) followed by a ``tcto apply`` of its best roadmap. Counts
    and times sum over both; ``share_of_train``, ``repeat_ratio`` and the
    per-step ratio use the spans under ``cli.train`` only. ``train_s`` is
    that process's train time, and ``overhead_ratio`` traced over untraced
    train time, minus 1.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(idx(name)))

    def self_s(name):
        return float(sum(selfs[i] for i in idx(name)))

    def total_s(name):
        return float(sum(spans[i][2] - spans[i][1] for i in idx(name)))

    def in_train(i):
        return "cli.train" in _ancestors(spans, i)

    m: dict = {}
    ev = idx("evaluator.evaluate")
    ev_ms = [1000.0 * (spans[i][2] - spans[i][1]) for i in ev] or [0.0]
    ev_train = [i for i in ev if in_train(i)]
    seen: set = set()
    repeats = 0
    for i in ev_train:
        key = spans[i][4][1]
        repeats += key in seen
        seen.add(key)
    m["evaluator.evaluate.calls"] = (calls("evaluator.evaluate"), "count")
    m["evaluator.evaluate.self_s"] = (self_s("evaluator.evaluate"), "s")
    m["evaluator.evaluate.p50_ms"] = (float(np.percentile(ev_ms, 50)), "ms")
    m["evaluator.evaluate.p90_ms"] = (float(np.percentile(ev_ms, 90)), "ms")
    m["evaluator.evaluate.cols_mean"] = (
        statistics.fmean([spans[i][4][0] for i in ev]) if ev else 0.0,
        "cols",
    )
    m["evaluator.evaluate.share_of_train"] = (
        sum(selfs[i] for i in ev_train) / train_s,
        "ratio",
    )
    m["evaluator.evaluate.repeat_ratio"] = (repeats / max(len(ev_train), 1), "ratio")
    m["evaluator.mutual_information.calls"] = (calls("evaluator.mutual_information"), "count")
    m["evaluator.mutual_information.self_s"] = (self_s("evaluator.mutual_information"), "s")

    cl = idx("clustering.cluster_nodes")
    nodes = [spans[i][4] for i in cl] or [0]
    cl_ms = [1000.0 * (spans[i][2] - spans[i][1]) for i in cl] or [0.0]
    m["clustering.cluster_nodes.calls"] = (calls("clustering.cluster_nodes"), "count")
    m["clustering.cluster_nodes.self_s"] = (self_s("clustering.cluster_nodes"), "s")
    m["clustering.cluster_nodes.p90_ms"] = (float(np.percentile(cl_ms, 90)), "ms")
    m["clustering.cluster_nodes.nodes_mean"] = (statistics.fmean(nodes), "nodes")
    m["clustering.cluster_nodes.nodes_max"] = (float(max(nodes)), "nodes")

    for name in ("encoder.rgcn_forward", "encoder.rgcn_backward", "encoder.snapshot_from_roadmap"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    steps_train = [i for i in idx("pipeline.step") if in_train(i)]
    outside = sum(
        1
        for i in idx("encoder.rgcn_forward")
        if in_train(i) and "agents.train_step" not in _ancestors(spans, i)
    )
    m["encoder.rgcn_forward.outside_learning_per_step"] = (
        outside / max(len(steps_train), 1),
        "1/step",
    )

    m["agents.train_step.calls"] = (calls("agents.train_step"), "count")
    m["agents.train_step.self_s"] = (self_s("agents.train_step"), "s")
    m["agents.train_step.total_s"] = (total_s("agents.train_step"), "s")
    m["agents.select_candidate.self_s"] = (self_s("agents.select_candidate"), "s")
    m["agents.operation_q_values.self_s"] = (self_s("agents.operation_q_values"), "s")

    ops = idx("opset.apply")
    m["opset.apply.calls"] = (calls("opset.apply"), "count")
    m["opset.apply.self_s"] = (self_s("opset.apply"), "s")
    m["opset.apply.accept_ratio"] = (
        sum(1 for i in ops if spans[i][4]) / max(len(ops), 1),
        "ratio",
    )

    adds = idx("roadmap.add_node")
    m["roadmap.add_node.calls"] = (calls("roadmap.add_node"), "count")
    m["roadmap.add_node.self_s"] = (self_s("roadmap.add_node"), "s")
    m["roadmap.add_node.new_ratio"] = (
        sum(1 for i in adds if spans[i][4]) / max(len(adds), 1),
        "ratio",
    )
    m["roadmap.materialize.self_s"] = (self_s("roadmap.materialize"), "s")
    m["roadmap.export_json.calls"] = (calls("roadmap.export_json"), "count")
    m["roadmap.export_json.self_s"] = (self_s("roadmap.export_json"), "s")
    m["roadmap.prune_node_wise.calls"] = (calls("roadmap.prune_node_wise"), "count")
    m["roadmap.restore.calls"] = (calls("roadmap.restore"), "count")
    # Alive nodes peak right after growth, which is when a step evaluates.
    widths = [spans[i][4][0] for i in ev] + [spans[i][4] for i in cl]
    m["roadmap.alive_max"] = (float(max(widths, default=0)), "nodes")

    m["tabular.load_csv.self_s"] = (self_s("tabular.load_csv"), "s")
    m["tabular.column_stats.calls"] = (calls("tabular.column_stats"), "count")
    m["tabular.column_stats.self_s"] = (self_s("tabular.column_stats"), "s")
    m["reward.step_reward.self_s"] = (self_s("reward.step_reward"), "s")
    m["pipeline.steps"] = (calls("pipeline.step"), "count")
    m["pipeline.self_s"] = (self_s("pipeline.step") + self_s("pipeline.run"), "s")
    m["cli.train.self_s"] = (self_s("cli.train"), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
