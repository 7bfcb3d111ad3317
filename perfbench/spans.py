"""Span tracing of g2lab from outside, for the per-layer metrics.

``Tracer.install`` wraps each traced function in every ``g2lab.*`` module
namespace that binds it (``from .x import y`` makes several bindings of one
function), and each traced method on its class.  A wrapper records a span
(name, parent, start, end) while recording is on and costs one flag test
otherwise.  Spans stay in memory as flat arrays until ``save``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: traced callables per layer; "Class.method" entries are patched on the class
TARGETS = {
    "cli": ("main",),
    "catalog": ("get",),
    "liealg": ("killing_matrix", "check_jacobi", "structure_flags",
               "derivation_space", "betti", "ce_differential", "LieAlgebra.d_matrix"),
    "linalg": ("matmul", "rref", "nullspace", "det", "lstsq"),
    "exterior": ("wedge", "hodge", "interior"),
    "g2": ("G2Structure.__init__", "torsion_form", "curvature",
           "closed_3form_basis", "search_closed_positive"),
    "su3": ("reconstruct_su3", "su3_torsion_class", "w2_of"),
    "flow": ("laplacian_flow", "algebraic_soliton_solve", "FlowKernel.rhs",
             "FlowKernel.torsion", "FlowKernel.metric"),
}

#: name of the root span the benchmark opens around each op
OP_SPAN = "op"


def span_name(layer: str, target: str) -> str:
    """'g2.G2Structure' for a constructor, 'flow.FlowKernel.rhs' for a method."""
    return "%s.%s" % (layer, target.removesuffix(".__init__"))


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.recording = False
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, fn):
        """Run fn() under a root span."""
        self.recording = True
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.recording = False

    def _wrap(self, fn, name_id):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "g2lab" or n.startswith("g2lab."))]
        for layer, targets in TARGETS.items():
            module = sys.modules.get("g2lab." + layer)
            for target in targets:
                name = span_name(layer, target)
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self.names.append(name)
                wrapper = self._wrap(original, len(self.names) - 1)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict:
        """Arrays name, parent, start, end, duration and self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent, "start": start, "end": end,
                "duration": dur, "self": dur - child}

    def by_name(self, spans: dict, name: str):
        """(durations, self times) of the spans called name."""
        if name not in self.names:
            return np.zeros(0), np.zeros(0)
        mask = spans["name"] == self.names.index(name)
        return spans["duration"][mask], spans["self"][mask]

    def save(self, path):
        spans = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=spans["name"],
                            parent=spans["parent"], start=spans["start"],
                            end=spans["end"])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, statistic, span).  calls: span count; self_s: summed self time;
#: self_ms: median self time per call; ms / us: median duration per call;
#: share: summed duration over summed op time.
LAYER_SPECS = (
    ("cli.main.calls", "calls", "cli.main"),
    ("cli.main.self_ms", "self_ms", "cli.main"),
    ("catalog.get.calls", "calls", "catalog.get"),
    ("catalog.get.ms", "ms", "catalog.get"),
    ("catalog.get.share", "share", "catalog.get"),
    ("liealg.killing_matrix.calls", "calls", "liealg.killing_matrix"),
    ("liealg.killing_matrix.self_s", "self_s", "liealg.killing_matrix"),
    ("liealg.check_jacobi.calls", "calls", "liealg.check_jacobi"),
    ("liealg.check_jacobi.self_s", "self_s", "liealg.check_jacobi"),
    ("liealg.structure_flags.self_s", "self_s", "liealg.structure_flags"),
    ("liealg.derivation_space.self_s", "self_s", "liealg.derivation_space"),
    ("liealg.betti.self_s", "self_s", "liealg.betti"),
    ("liealg.ce_differential.calls", "calls", "liealg.ce_differential"),
    ("liealg.ce_differential.self_s", "self_s", "liealg.ce_differential"),
    ("liealg.d_matrix.self_s", "self_s", "liealg.LieAlgebra.d_matrix"),
    ("linalg.matmul.calls", "calls", "linalg.matmul"),
    ("linalg.matmul.self_s", "self_s", "linalg.matmul"),
    ("linalg.rref.calls", "calls", "linalg.rref"),
    ("linalg.rref.self_s", "self_s", "linalg.rref"),
    ("linalg.nullspace.self_s", "self_s", "linalg.nullspace"),
    ("linalg.det.self_s", "self_s", "linalg.det"),
    ("linalg.lstsq.self_s", "self_s", "linalg.lstsq"),
    ("exterior.wedge.calls", "calls", "exterior.wedge"),
    ("exterior.wedge.self_s", "self_s", "exterior.wedge"),
    ("exterior.hodge.calls", "calls", "exterior.hodge"),
    ("exterior.hodge.self_s", "self_s", "exterior.hodge"),
    ("exterior.interior.calls", "calls", "exterior.interior"),
    ("g2.G2Structure.self_s", "self_s", "g2.G2Structure"),
    ("g2.torsion_form.self_s", "self_s", "g2.torsion_form"),
    ("g2.curvature.self_s", "self_s", "g2.curvature"),
    ("g2.closed_3form_basis.self_s", "self_s", "g2.closed_3form_basis"),
    ("su3.reconstruct_su3.self_s", "self_s", "su3.reconstruct_su3"),
    ("su3.su3_torsion_class.self_s", "self_s", "su3.su3_torsion_class"),
    ("su3.w2_of.self_s", "self_s", "su3.w2_of"),
    ("flow.rhs_evals", "calls", "flow.FlowKernel.rhs"),
    ("flow.torsion_evals", "calls", "flow.FlowKernel.torsion"),
    ("flow.metric_evals", "calls", "flow.FlowKernel.metric"),
    ("flow.torsion.us", "us", "flow.FlowKernel.torsion"),
    ("flow.metric.us", "us", "flow.FlowKernel.metric"),
    ("flow.laplacian_flow.self_s", "self_s", "flow.laplacian_flow"),
    ("flow.algebraic_soliton_solve.self_s", "self_s", "flow.algebraic_soliton_solve"),
)

_UNITS = {"calls": "count", "self_s": "s", "self_ms": "ms", "ms": "ms",
          "us": "us", "share": "ratio"}


def _median(x) -> float:
    return float(np.median(x)) if len(x) else 0.0


def layer_metrics(tracer: Tracer, records) -> dict:
    """Per-layer metrics of one traced pass.

    records are the pass's (label, seconds, failure, counters) tuples; the
    counters carry what the checks measured from outside (search candidates
    and hits from the replay, accepted flow steps, closed-form deviation).
    """
    spans = tracer.spans()
    op_time = float(tracer.by_name(spans, OP_SPAN)[0].sum())
    out = {}
    for name, stat, span in LAYER_SPECS:
        dur, self_time = tracer.by_name(spans, span)
        value = {
            "calls": lambda: len(dur),
            "self_s": lambda: float(self_time.sum()),
            "self_ms": lambda: 1e3 * _median(self_time),
            "ms": lambda: 1e3 * _median(dur),
            "us": lambda: 1e6 * _median(dur),
            "share": lambda: float(dur.sum()) / op_time if op_time > 0 else 0.0,
        }[stat]()
        out[name] = {"value": value, "unit": _UNITS[stat]}

    def total(key):
        return sum(r[3].get(key, 0) for r in records)

    candidates, hits = total("candidates"), total("hits")
    search_self = float(tracer.by_name(spans, "g2.search_closed_positive")[1].sum())
    steps = total("accepted_steps")
    rhs = out["flow.rhs_evals"]["value"]
    derived = {
        "g2.search.candidates": (candidates, "count"),
        "g2.search.hits": (hits, "count"),
        "g2.search.hit_ratio": (hits / candidates if candidates else 0.0, "ratio"),
        "g2.search.us_per_candidate": (1e6 * search_self / candidates if candidates else 0.0,
                                       "us"),
        "flow.accepted_steps": (steps, "count"),
        "flow.rhs_evals_per_step": (rhs / steps if steps else 0.0, "evals/step"),
        "flow.max_dev": (max((r[3].get("max_dev", 0.0) for r in records), default=0.0),
                         "abs"),
    }
    out.update({k: {"value": v, "unit": u} for k, (v, u) in derived.items()})
    return out
