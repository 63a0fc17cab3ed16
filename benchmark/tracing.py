"""In-memory spans around the package's public functions, for the traced run.

Each wrapper is installed at the module attribute through which the package
calls the function (``attncert.verify.margin_lower_bound``,
``attncert.attention.directional_min``, ...), so the package's own calls go
through it and no source file of the package changes.  A span is
``(name, start_ns, end_ns, parent, item, note)``; spans live in a list until
the run ends.  A span's self time is its duration minus its children's
durations.  Calls are single-threaded and nest, so the self times of one
item's spans sum exactly (in integer nanoseconds) to the item's root span.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import NamedTuple

ITEM = "item"
# Box sizes with their own per-row metrics: the K values of the rows workload.
KS = (4, 16, 64, 256)


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    item: int
    note: object


def _row_size(args, result):
    return len(args[0])


def _certified_note(args, result):
    return (len(args[0]), result.saturated, result.float_value - result.lower)


def _target_count(args, result):
    return len(result.bounds)


# (module, attribute, span name, note).  The first group are the calls the
# benchmark itself makes; the rest are the package's internal call sites.
INSTRUMENTS = (
    ("attncert", "certify_targets", "verify", _target_count),
    ("attncert", "run_sweep", "harness.sweep", None),
    ("attncert.cli", "main", "cli", None),
    ("attncert.cli", "load_model", "model.load", None),
    ("attncert.cli", "forward", "model.forward", None),
    ("attncert.cli", "certify_targets", "verify", _target_count),
    ("attncert.cli", "attack_min_margin", "harness.attack_margin", None),
    ("attncert.verify", "interval_forward", "suffix.interval_forward", None),
    ("attncert.verify", "relu_suffix_bound", "suffix.relu_bound", None),
    ("attncert.verify", "value_coefficients", "attention.value_coeffs", None),
    ("attncert.verify", "model_score_boxes", "attention.score_boxes", None),
    ("attncert.verify", "margin_lower_bound", "attention.margin", None),
    ("attncert.verify", "baseline_directional_min", "baseline", _row_size),
    ("attncert.verify", "certified_directional_min", "certified", _certified_note),
    ("attncert.attention", "directional_min", "solver", _row_size),
    ("attncert.suffix", "model_score_boxes", "attention.score_boxes", None),
    ("attncert.suffix", "directional_min", "solver", _row_size),
    ("attncert.suffix", "directional_max", "solver", _row_size),
    ("attncert.certified", "directional_min", "solver", _row_size),
    ("attncert.harness", "directional_min", "solver", _row_size),
    ("attncert.harness", "baseline_directional_min", "baseline", _row_size),
    ("attncert.harness", "certified_directional_min", "certified", _certified_note),
    ("attncert.harness", "attack_min_objective", "harness.attack_objective", None),
    ("attncert.harness", "forward", "model.forward", None),
    ("attncert.harness", "forward_batch", "model.forward_batch", None),
)


class Tracer:
    """Collects spans from wrappers while installed; one item at a time."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.item = -1

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = note(args, result) if note is not None and result is not None else None
                spans[idx] = Span(name, start, end, parent, self.item, info)

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper in INSTRUMENTS; restore the originals on exit."""
        restore = []
        try:
            for mod_name, attr, name, note in INSTRUMENTS:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
                restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, note))
            yield self
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)

    def run_item(self, item_id: int, fn, *args):
        """Call fn(*args) as the root span of one item."""
        self.item = item_id
        try:
            return self._wrap(fn, ITEM, None)(*args)
        finally:
            self.item = -1


def self_times(spans: list[Span]) -> list[int]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def check_item_sums(spans: list[Span], own: list[int]) -> None:
    """Raise if some item's self times do not sum to its root span."""
    totals: dict[int, int] = {}
    roots: dict[int, int] = {}
    for s, t in zip(spans, own):
        totals[s.item] = totals.get(s.item, 0) + t
        if s.name == ITEM:
            roots[s.item] = s.end - s.start
    for item, total in totals.items():
        if roots.get(item) != total:
            raise RuntimeError(f"item {item}: self times sum to {total} ns, root span is {roots.get(item)} ns")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times over the given spans (one pass of the pool)."""
    own = self_times(spans)
    check_item_sums(spans, own)
    count: dict[str, int] = {}
    busy: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    by_k: dict[tuple[str, int], list[int]] = {}
    block_rows = fast_rows = saturated = 0
    slack: list[float] = []
    targets = 0
    for s, t in zip(spans, own):
        d = s.end - s.start
        count[s.name] = count.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0) + d
        self_ns[s.name] = self_ns.get(s.name, 0) + t
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name in ("solver", "baseline"):
            acc = by_k.setdefault((s.name, s.note), [0, 0])
            acc[0] += 1
            acc[1] += d
            block_rows += s.name == "solver" and parent == "suffix.interval_forward"
            fast_rows += s.name == "solver" and parent == "certified"
        elif s.name == "certified" and s.note is not None:
            k, sat, gap = s.note
            acc = by_k.setdefault(("certified", k), [0, 0])
            acc[0] += 1
            acc[1] += d
            saturated += sat
            slack.append(gap)
        elif s.name == "verify" and s.note is not None:
            targets += s.note

    def secs(table, name):
        return table.get(name, 0) / 1e9

    def us_per_row(name, k=None):
        if k is None:
            n, ns = count.get(name, 0), busy.get(name, 0)
        else:
            n, ns = by_k.get((name, k), (0, 0))
        return ns / n / 1e3 if n else 0.0

    m: dict[str, float] = {}
    for layer in ("solver", "certified", "baseline"):
        m[f"{layer}.rows"] = count.get(layer, 0)
        m[f"{layer}.busy_s"] = secs(busy, layer)
        m[f"{layer}.us_per_row"] = us_per_row(layer)
        for k in KS:
            m[f"{layer}.us_per_row.K{k}"] = us_per_row(layer, k)
    m["certified.saturated"] = saturated
    m["certified.fast_rows"] = fast_rows
    m["certified.slack_mean"] = sum(slack) / len(slack) if slack else 0.0
    m["attention.margin_calls"] = count.get("attention.margin", 0)
    m["attention.margin_s"] = secs(busy, "attention.margin")
    m["attention.margin_self_s"] = secs(self_ns, "attention.margin")
    m["attention.score_boxes_s"] = secs(busy, "attention.score_boxes")
    m["attention.value_coeffs_s"] = secs(busy, "attention.value_coeffs")
    m["suffix.interval_forward_s"] = secs(busy, "suffix.interval_forward")
    m["suffix.interval_forward_self_s"] = secs(self_ns, "suffix.interval_forward")
    m["suffix.block_rows"] = block_rows
    m["suffix.relu_bound_s"] = secs(busy, "suffix.relu_bound")
    m["harness.attack_margin_s"] = secs(busy, "harness.attack_margin")
    m["harness.attack_margin_self_s"] = secs(self_ns, "harness.attack_margin")
    m["harness.attack_objective_s"] = secs(busy, "harness.attack_objective")
    m["model.forward_calls"] = count.get("model.forward", 0)
    m["model.forward_s"] = secs(busy, "model.forward")
    m["model.forward_batch_calls"] = count.get("model.forward_batch", 0)
    m["model.forward_batch_s"] = secs(busy, "model.forward_batch")
    m["model.load_s"] = secs(busy, "model.load")
    m["verify.self_s"] = secs(self_ns, "verify")
    m["verify.targets"] = targets
    m["cli.self_s"] = secs(self_ns, "cli")
    m["bench.self_s"] = secs(self_ns, ITEM)
    return m
