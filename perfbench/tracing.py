"""Outside-in tracing: time the calls into each xdesign layer without changing them.

``Tracer.install`` replaces the names each pipeline module imported (for
example ``xdesign.risk.replay`` or ``xdesign.cli.score_grid``) with wrappers
that record a span and then call the original, so the work done is unchanged.
Spans are kept in memory as (name, start, end, parent) and turned into
per-layer metrics by :func:`layer_metrics` when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from array import array
from time import perf_counter

# (module, imported name, span name). A span name is "<layer>.<function>".
TARGETS = (
    ("xdesign.cli", "run_select", "cli.run_select"),
    ("xdesign.cli", "run_sweep", "cli.run_sweep"),
    ("xdesign.cli", "score_grid", "risk.score_grid"),
    ("xdesign.cli", "risk_surface", "selector.risk_surface"),
    ("xdesign.cli", "robust_select", "selector.robust_select"),
    ("xdesign.cli", "regime_sweep", "diagnostics.regime_sweep"),
    ("xdesign.cli", "write_bar_chart", "svg.write_bar_chart"),
    ("xdesign.cli", "write_line_chart", "svg.write_line_chart"),
    ("xdesign.cli", "write_scatter", "svg.write_scatter"),
    ("xdesign.cli", "write_heat_table", "svg.write_heat_table"),
    ("xdesign.diagnostics", "score_grid", "risk.score_grid"),
    ("xdesign.diagnostics", "risk_surface", "selector.risk_surface"),
    ("xdesign.diagnostics", "robust_select", "selector.robust_select"),
    ("xdesign.diagnostics", "generate_synthetic_panel", "panel.generate_synthetic_panel"),
    ("xdesign.diagnostics", "calibrate_scales", "panel.calibrate_scales"),
    ("xdesign.config", "generate_synthetic_panel", "panel.generate_synthetic_panel"),
    ("xdesign.config", "calibrate_scales", "panel.calibrate_scales"),
    ("xdesign.risk", "component_scores", "risk.component_scores"),
    ("xdesign.risk", "replay", "designs.replay"),
    ("xdesign.risk", "exposure_features", "exposure.exposure_features"),
    ("xdesign.risk", "geometry_score", "exposure.geometry_score"),
    ("xdesign.risk", "simulate_outcomes", "risk.simulate_outcomes"),
    ("xdesign.risk", "variance_component", "risk.variance_component"),
    ("xdesign.risk", "contamination", "risk.contamination"),
    ("xdesign.risk", "estimand_mismatch", "risk.estimand_mismatch"),
)

HOOK_SPAN = "trace.hook"


def _replay_key(args, kwargs) -> str:
    """Replay input identity: the design plus the seed's entropy and spawn key."""
    design = args[0] if args else kwargs["design"]
    seed = kwargs["seed"] if "seed" in kwargs else (args[3] if len(args) > 3 else 0)
    if hasattr(seed, "entropy"):
        return f"{design.name}|{seed.entropy}|{seed.spawn_key}"
    return f"{design.name}|{seed}"


def _features_key(args, kwargs) -> bytes:
    """Exposure input identity: the assignment's treatment bytes plus the locality."""
    assignment = args[0] if args else kwargs["assignment"]
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    return hashlib.blake2b(assignment.z.tobytes(), digest_size=16).digest() + theta.locality.encode()


# Span name -> function of the call's arguments giving its input identity.
# Keys are str/bytes, which the garbage collector does not track.
DISTINCT_KEYS = {"designs.replay": _replay_key, "exposure.exposure_features": _features_key}


class Tracer:
    """Records spans for the wrapped calls of one process; single-threaded.

    Spans live in typed arrays rather than lists of tuples, so that holding
    hundreds of thousands of them adds no work for the garbage collector.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        # Per operation: span name -> [calls, set of distinct input keys].
        self.ops: list[dict[str, list]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _count(self, name: str, args, kwargs) -> None:
        # The hashing is bookkeeping, so it gets a span of its own and does not
        # count as self time of the caller.
        idx = self._open(self._name_id(HOOK_SPAN))
        try:
            entry = self.ops[-1].setdefault(name, [0, set()])
            entry[0] += 1
            entry[1].add(DISTINCT_KEYS[name](args, kwargs))
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counted = name in DISTINCT_KEYS
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted and self.ops:
                self._count(name, args, kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # The module no longer imports this name; its layer then
                # reports no calls instead of failing the run.
                continue
            # One wrapper per original function and span name, shared by every
            # module that imported it.
            key = (id(original), span_name)
            if key not in wrapped:
                wrapped[key] = self.wrap(span_name, original)
            self._originals.append((module, attr, original))
            setattr(module, attr, wrapped[key])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def begin_op(self) -> None:
        self.ops.append({})

    def spans(self):
        """Yield (name, start, end, parent index) for every recorded span."""
        for i in range(len(self.span_name)):
            yield self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i]

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                out.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def span_totals(spans) -> dict[str, list[float]]:
    """Span name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its child spans cover; calls
    are single-threaded, so children never overlap and their durations add up.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return totals


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the spans of the traced operations.

    Returns (values, notes): totals are per operation, ``*_us`` values per
    call, and ``notes`` gives each distinct ratio as an exact count with its
    base.
    """
    totals = span_totals(tracer.spans())
    n_ops = max(len(tracer.ops), 1)

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(*names):
        return sum(totals.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(prefix):
        return sum(v[2] for n, v in totals.items() if n.startswith(prefix))

    def per_call_us(name):
        n = calls(name)
        return totals[name][2] / n * 1e6 if n else 0.0

    def distinct(name):
        per_op = [(len(op[name][1]), op[name][0]) if name in op else (0, 0) for op in tracer.ops]
        n_distinct = sum(d for d, _ in per_op)
        n_calls = sum(c for _, c in per_op)
        counts = sorted(set(per_op))
        note = ", ".join(f"{d}/{c}" for d, c in counts) + f" per op ({len(per_op)} ops)"
        return (n_distinct / n_calls if n_calls else 0.0), note

    reps = calls("designs.replay")
    replay_ratio, replay_note = distinct("designs.replay")
    features_ratio, features_note = distinct("exposure.exposure_features")
    svg_names = [n for n in totals if n.startswith("svg.")]
    values = {
        "designs.replay_us": per_call_us("designs.replay"),
        "designs.replay_calls": reps / n_ops,
        "designs.replay_distinct_ratio": replay_ratio,
        "exposure.features_us": per_call_us("exposure.exposure_features"),
        "exposure.features_calls": calls("exposure.exposure_features") / n_ops,
        "exposure.features_distinct_ratio": features_ratio,
        "exposure.geometry_us": per_call_us("exposure.geometry_score"),
        "risk.simulate_us": per_call_us("risk.simulate_outcomes"),
        "risk.variance_us": per_call_us("risk.variance_component"),
        "risk.contamination_us": per_call_us("risk.contamination"),
        "risk.mismatch_us": per_call_us("risk.estimand_mismatch"),
        "risk.pair_self_us_per_rep": self_s("risk.component_scores") / reps * 1e6 if reps else 0.0,
        "risk.us_per_rep": total_s("risk.score_grid") / reps * 1e6 if reps else 0.0,
        "risk.score_grid_s": total_s("risk.score_grid") / n_ops,
        "selector.surface_ms": total_s("selector.risk_surface") / n_ops * 1e3,
        "selector.select_ms": total_s("selector.robust_select") / n_ops * 1e3,
        "diagnostics.self_ms": self_s("diagnostics.") / n_ops * 1e3,
        "cli.self_ms": self_s("cli.") / n_ops * 1e3,
        "svg.write_ms": total_s(*svg_names) / n_ops * 1e3,
        "panel.build_ms": total_s("panel.generate_synthetic_panel") / n_ops * 1e3,
        "panel.calibrate_ms": total_s("panel.calibrate_scales") / n_ops * 1e3,
    }
    notes = {
        "designs.replay_distinct_ratio": replay_note,
        "exposure.features_distinct_ratio": features_note,
    }
    return values, notes
