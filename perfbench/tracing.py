"""In-memory spans and counters recorded around calls into structseg.

The benchmark never edits the program. It replaces module attributes
(functions and methods the trainer, model, CLI and verification code look
up at call time) with wrappers. A wrapper either records a span (name,
start, end, parent span, operation id) or only hands the call's arguments
and result to a capture callback that the correctness checks read. Spans
stay in memory until the run ends; ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

SETUP_OP = -1   # spans recorded during set-up and warm-up operations
CHECK_OP = -2   # spans recorded while the benchmark checks outputs

PAIR_OPS = ("take_rows", "square", "mul", "sum", "div", "sqrt")

# (metric, unit, better, how, span or counter names)
#   self  - per timed operation, summed self time of the spans
#   total - per timed operation, summed duration of the spans
#   count - per timed operation, summed counter
#   setup_self / setup_count - the same over set-up and warm-up, once per run
#   ratio - first counter over second counter, over all timed operations
LAYERS = (
    ("tensor.conv2d_fwd_ms", "ms", "lower", "self", ("tensor.conv2d_fwd",)),
    ("tensor.conv2d_bwd_ms", "ms", "lower", "self", ("tensor.bwd.conv2d",)),
    ("tensor.backward_ms", "ms", "lower", "total", ("tensor.backward",)),
    ("tensor.pair_ops_bwd_ms", "ms", "lower", "self",
     tuple("tensor.bwd." + op for op in PAIR_OPS)),
    ("tensor.tape_nodes", "count", "lower", "count", ("tensor.tape_nodes",)),
    ("model.student_forward_ms", "ms", "lower", "total", ("model.student_forward",)),
    ("model.teacher_forward_ms", "ms", "lower", "total", ("model.teacher_forward",)),
    ("model.eval_forward_ms", "ms", "lower", "total", ("model.eval_forward",)),
    ("model.forward_calls", "count", "lower", "count", ("model.forward_calls",)),
    ("losses.structured_ms", "ms", "lower", "self", ("losses.structured",)),
    ("losses.consistency_ms", "ms", "lower", "self", ("losses.consistency",)),
    ("losses.relaxed_ce_ms", "ms", "lower", "self", ("losses.relaxed_ce",)),
    ("losses.pairs", "count", "lower", "count", ("losses.pairs",)),
    ("cutmix.generate_boxes_ms", "ms", "lower", "self", ("cutmix.generate_boxes",)),
    ("cutmix.compose_ms", "ms", "lower", "self", ("cutmix.compose",)),
    ("cutmix.drop_pairs_ms", "ms", "lower", "self", ("cutmix.drop_pairs",)),
    ("cutmix.box_draws_per_set", "draws/set", "lower", "ratio",
     ("cutmix.box_draws", "cutmix.box_sets")),
    ("synthdata.scene_ms", "ms", "lower", "self", ("synthdata.scene",)),
    ("synthdata.scenes", "count", "lower", "count", ("synthdata.scenes",)),
    ("synthdata.setup_scene_ms", "ms", "lower", "setup_self", ("synthdata.scene",)),
    ("synthdata.setup_scenes", "count", "lower", "setup_count", ("synthdata.scenes",)),
    ("synthdata.augment_ms", "ms", "lower", "self", ("synthdata.augment",)),
    ("optim.sgd_step_ms", "ms", "lower", "self", ("optim.sgd_step",)),
    ("ema.update_ms", "ms", "lower", "self", ("ema.update",)),
    ("metrics.accumulate_ms", "ms", "lower", "self", ("metrics.accumulate",)),
    ("checkpoint.read_ms", "ms", "lower", "self", ("checkpoint.read",)),
    ("checkpoint.bytes", "bytes", "lower", "count", ("checkpoint.bytes",)),
    ("trainer.build_ms", "ms", "lower", "total", ("trainer.build",)),
    ("verification.gradcheck_ms", "ms", "lower", "total", ("verification.gradcheck",)),
    ("verification.oracle_ms", "ms", "lower", "total", ("verification.oracle",)),
    ("verification.loss_evals", "count", "lower", "count", ("verification.loss_evals",)),
)


class Tracer:
    """Span and counter store; records nothing while ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = SETUP_OP
        # One column per span field. Flat lists of numbers and strings stay
        # cheap for the cyclic garbage collector, where one small list per
        # span made collections slower as the trace grew.
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []      # index of the parent span, -1 for none
        self.ops: list = []          # operation the span belongs to
        self.stack: list = []        # indices of open spans
        self.counts = defaultdict(float)  # (op, name) -> value

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counts[(self.op, name)] += n

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def wrap(self, owner, attr: str, name=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper.

        ``name`` is a span name, or a callable ``(args, kwargs) -> name``;
        with tracing off, or with no name, no span is recorded. ``after`` is
        called as ``after(args, kwargs, result)`` once the call returns.
        """
        fn = getattr(owner, attr)
        if not self.enabled:
            name = None
        if name is None and after is None:
            return
        span_of = name if callable(name) else (lambda a, kw: name)

        if name is None:
            def wrapped(*a, **kw):
                out = fn(*a, **kw)
                after(a, kw, out)
                return out
        else:
            def wrapped(*a, **kw):
                idx = self.begin(span_of(a, kw))
                try:
                    out = fn(*a, **kw)
                finally:
                    self.end(idx)
                if after is not None:
                    after(a, kw, out)
                return out

        setattr(owner, attr, functools.wraps(fn)(wrapped))

    def wrap_backward(self, owner, attr: str, tape) -> None:
        """Span the backward pass and, inside it, each tape node's backward
        callable, named by the node's op; counts the nodes."""
        if not self.enabled:
            return
        fn = getattr(owner, attr)

        def node_span(name, node_fn):
            def run(g):
                idx = self.begin(name)
                try:
                    node_fn(g)
                finally:
                    self.end(idx)
            return run

        def wrapped(loss):
            nodes = tape().nodes
            self.count("tensor.tape_nodes", len(nodes))
            for node in nodes:
                node.backward = node_span("tensor.bwd." + node.op, node.backward)
            idx = self.begin("tensor.backward")
            try:
                fn(loss)
            finally:
                self.end(idx)

        setattr(owner, attr, functools.wraps(fn)(wrapped))

    # -- reduction ----------------------------------------------------------
    def self_and_total(self):
        """Per (op, name): summed self time and summed duration, in ms."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, dur in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += dur
        self_ms = defaultdict(float)
        total_ms = defaultdict(float)
        for key, dur, in_children in zip(zip(self.ops, self.names), durations, child):
            self_ms[key] += 1e3 * (dur - in_children)
            total_ms[key] += 1e3 * dur
        return self_ms, total_ms

    def layer_metrics(self, ops) -> dict:
        """Per-layer metrics over the timed operations with ids ``ops``."""
        self_ms, total_ms = self.self_and_total()
        source = {"self": self_ms, "total": total_ms, "count": self.counts}
        out = {}
        for metric, unit, _, how, names in LAYERS:
            if how == "ratio":
                num = sum(self.counts[(k, names[0])] for k in ops)
                den = sum(self.counts[(k, names[1])] for k in ops)
                value = num / den if den else 0.0
            elif how.startswith("setup_"):
                table = source[how[len("setup_"):]]
                value = sum(table[(SETUP_OP, n)] for n in names)
            else:
                table = source[how]
                value = statistics.median(
                    sum(table[(k, n)] for n in names) for k in ops)
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start and end in microseconds
        from the first span, parent index (-1 for none), operation id."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, op in zip(
                    self.names, self.starts, self.ends, self.parents, self.ops):
                f.write(json.dumps([name, round((start - t0) * 1e6, 3),
                                    round((end - t0) * 1e6, 3), parent, op]) + "\n")
