"""The three seeded workloads: input generation, set-up, ops and output checks.

A plan is the list of inputs a workload seed generates; making it touches no
g2lab code.  ``prepare`` turns a plan into ops: it builds what the workload
treats as set-up (catalog entries, structures, the search kernels), warms the
library's combinatorial caches and returns one ``Op`` per plan item.  An op's
``call`` is the timed library call; its ``check`` validates the result with
the benchmark's own code and returns (failure reason or None, counters).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference
# library calls go through module attributes so that the traced run, which
# patches the g2lab namespaces, sees them
from g2lab import catalog, cli, flow, g2

SCHEMA = "g2lab-report/1"
FLOW_T_END = 0.3
FLOW_MAX_DEV = 1e-6
SEARCH_ATTEMPTS = 30000


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def _rational(rng, lo, hi, dens=(1, 2, 3, 4), ok=lambda x: True) -> Fraction:
    """A seeded rational in [lo, hi] with one of the given denominators."""
    lo, hi = Fraction(lo), Fraction(hi)
    while True:
        den = rng.choice(dens)
        first, last = math.ceil(lo * den), math.floor(hi * den)
        if first > last:
            continue
        x = Fraction(rng.randint(first, last), den)
        if ok(x):
            return x


def _nonzero(x):
    return x != 0


# ---------------------------------------------------------------------------
# exact_reports: one in-process CLI report per op
# ---------------------------------------------------------------------------

ANALYZE_ENTRIES = ("abelian7", "n1", "n2", "ffkm_n", "s_ab", "g_a", "g_ab",
                   "g_abk", "nonsolv_1", "nonsolv_2", "nonsolv_3", "nonsolv_levi")
G2_ENTRIES = ("abelian7", "g_a", "g_ab", "g_abk")
SU3_ENTRIES = ("n1", "n2", "s_ab")
#: n1 and n2 are coupled with c = -1, s_ab with c = b (b != 0 here)
SU3_COUPLING = {"n1": Fraction(-1), "n2": Fraction(-1)}


def exact_params(rng) -> dict:
    """One parameter set per catalog family, inside its documented range."""
    return {
        "s_ab": {"a": _rational(rng, -2, 2), "b": _rational(rng, -2, 2, ok=_nonzero)},
        "g_a": {"a": _rational(rng, Fraction(1, 4), 3)},
        "g_ab": {"a": _rational(rng, -2, 2), "b": _rational(rng, -2, 2)},
        "g_abk": {"a": _rational(rng, -2, 2), "b": _rational(rng, -2, 2, ok=_nonzero),
                  "k": _rational(rng, -2, 2)},
        "nonsolv_1": {"variant": rng.choice("AB")},
        "nonsolv_2": {"mu": _rational(rng, -1, Fraction(1, 2), ok=lambda x: x > -1)},
        "nonsolv_3": {"mu": _rational(rng, 0, 3, ok=lambda x: x > 0)},
    }


def _argv(command, entry, params, *extra):
    argv = [command, entry, *extra]
    if params:
        argv += ["--param"] + ["%s=%s" % kv for kv in sorted(params.items())]
    return tuple(argv)


def exact_plan(seed: int) -> list:
    """The report mix in a seeded order.

    Items are (kind, entry, params, argv, recheck); one seeded item per
    command kind has recheck set, and its check runs the report again.
    """
    rng = random.Random("exact_reports:%d" % seed)
    params = exact_params(rng)
    items = [("analyze", e) for e in ANALYZE_ENTRIES]
    items += [(kind, e) for kind in ("g2", "g2-float", "soliton") for e in G2_ENTRIES]
    items += [("su3", e) for e in SU3_ENTRIES]
    kinds = sorted(set(kind for kind, _ in items))
    recheck = {kind: rng.choice([e for k, e in items if k == kind]) for kind in kinds}
    plan = []
    for kind, e in items:
        p = params.get(e, {})
        extra = ("--backend", "float") if kind == "g2-float" else ()
        plan.append((kind, e, p, _argv(kind.split("-")[0], e, p, *extra),
                     recheck[kind] == e))
    rng.shuffle(plan)
    return plan


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_report(kind, entry, params, argv, code, text, first_text=None):
    """Failure reason for one captured report, or None."""
    if code != 0:
        return "exit code %s" % code
    report = json.loads(text)
    if report.get("schema") != SCHEMA:
        return "schema %r" % report.get("schema")
    if report.get("command") != list(argv[:2]) or report.get("status") != "ok":
        return "command %r status %r" % (report.get("command"), report.get("status"))
    results = report["results"]
    if kind == "analyze" and results.get("jacobi_residual") != "0":
        return "jacobi_residual %r" % results.get("jacobi_residual")
    if kind == "soliton" and entry == "g_a":
        want = reference.soliton_lambda(params["a"])
        if not results.get("feasible") or Fraction(results["lambda"]) != want:
            return "soliton lambda %r, expected %s" % (results.get("lambda"), want)
    if kind == "soliton" and entry == "g_abk" and params["a"] != 0:
        if results.get("feasible") is not False:
            return "g_abk with a, b != 0 reported a feasible soliton"
    if kind == "soliton" and entry == "g_abk" and params["a"] == 0:
        # at a = 0 the extension is a shrinking soliton with lambda = -4 b^2
        # (d tau = lambda phi + B.phi holds exactly with B a derivation), so
        # the catalog's "never a soliton for b != 0" needs a != 0
        want = -4 * params["b"] ** 2
        if not results.get("feasible") or Fraction(results["lambda"]) != want:
            return "g_abk at a = 0: lambda %r, expected %s" % (results.get("lambda"), want)
    if kind == "su3":
        want = SU3_COUPLING.get(entry, params.get("b"))
        if results.get("torsion_class") != "coupled" or Fraction(results["c"]) != want:
            return "su3 class %r c %r, expected coupled c = %s" % (
                results.get("torsion_class"), results.get("c"), want)
    if first_text is not None and text != first_text:
        return "repeated invocation gave a different report"
    return None


def prepare_exact(plan) -> list:
    # warm-up: one cheap report per dimension fills the combinatorial caches
    for argv in (("su3", "n2"), ("g2", "abelian7", "--backend", "float")):
        code, _ = _invoke(argv)
        if code != 0:
            raise RuntimeError("warm-up report %s exited %s" % (argv, code))
    first_reports = {}

    def make(kind, entry, params, argv, recheck):
        def check(result):
            code, text = result
            if recheck and argv not in first_reports:
                # the repeated invocation runs here, outside the timed call
                first_reports[argv] = _invoke(argv)[1]
            reason = check_report(kind, entry, params, argv, code, text,
                                  first_reports.get(argv))
            first_reports.setdefault(argv, text)
            return reason, {}
        return Op(" ".join(argv), lambda: _invoke(argv), check)

    return [make(*item) for item in plan]


# ---------------------------------------------------------------------------
# flow_trajectories: one Laplacian-flow run to t = 0.3 per op
# ---------------------------------------------------------------------------

#: one trajectory per stratum.  The step count to t = 0.3 depends on one
#: parameter only (a on g_a, b on g_abk; a and k of g_abk do not change it),
#: so the strata fix the cost order of a pass: three short g_abk runs (9-22
#: steps), three g_a runs with a in [6/5, 11/8] (47-50 steps) in the middle
#: and three long runs (67-100 steps).  The median latency is therefore
#: always taken among runs of nearly the same length, whatever the seed.
#: Runs of 2 s and more (a near 1/2: 140-150 steps) are left out: the host's
#: speed can change within such a run, which the probes around it miss.
#: All keep a >= 1/4, a != 1 on g_a and b != 0, 3/(8 b^2) > 0.3 on g_abk.
FLOW_STRATA = (
    ("g_abk", "b", ("1/4", "1/2")),
    ("g_abk", "b", ("-1/2", "-1/4")),
    ("g_abk", "b", ("1/2", "5/8")),
    ("g_a", "a", ("6/5", "11/8")),
    ("g_a", "a", ("6/5", "11/8")),
    ("g_a", "a", ("6/5", "11/8")),
    ("g_abk", "b", ("7/8", "9/10")),
    ("g_a", "a", ("15/8", "2")),
    ("g_a", "a", ("27/40", "29/40")),
)


def flow_plan(seed: int) -> list:
    """Items are (entry, params) in a seeded order."""
    rng = random.Random("flow_trajectories:%d" % seed)
    items = []
    for entry, key, (lo, hi) in FLOW_STRATA:
        params = {key: _rational(rng, lo, hi, dens=(40,))}
        if entry == "g_abk":
            params["a"] = _rational(rng, -2, 2)
            params["k"] = _rational(rng, -2, 2)
        items.append((entry, params))
    rng.shuffle(items)
    return items


def flow_reference(entry, params):
    if entry == "g_a":
        return lambda t: reference.lauret_phi(params["a"], t)
    return lambda t: reference.gabk_phi(params["b"], t)


def check_trajectory(traj, ref) -> tuple:
    """(failure reason or None, counters) for one trajectory."""
    worst = max(float(np.max(np.abs(s.phi.np_coeffs - ref(s.t)))) for s in traj.samples)
    stats = {"accepted_steps": len(traj.samples) - 1, "max_dev": worst}
    if traj.status != "completed":
        return "status %s" % traj.status, stats
    if abs(traj.samples[-1].t - FLOW_T_END) > 1e-12:
        return "stopped at t = %r" % traj.samples[-1].t, stats
    if not worst < FLOW_MAX_DEV:
        return "deviation %.3g from the closed form" % worst, stats
    return None, stats


def prepare_flow(plan) -> list:
    ops = []
    for entry, params in plan:
        cat = catalog.get(entry, **params)
        struct = g2.G2Structure(cat.algebra, cat.phi)
        # warm-up: one short run fills the tables and the algebra's d matrices
        flow.laplacian_flow(struct, 1e-3)
        ref = flow_reference(entry, params)
        label = "flow %s %s" % (
            entry, " ".join("%s=%s" % kv for kv in sorted(params.items())))
        ops.append(Op(label, lambda s=struct: flow.laplacian_flow(s, FLOW_T_END),
                      lambda traj, r=ref: check_trajectory(traj, r)))
    return ops


# ---------------------------------------------------------------------------
# closed_search: one randomized closed-positive search per op
# ---------------------------------------------------------------------------

#: (entry, parameter draw, ops per pass).  ffkm_n, nonsolv_levi and
#: nonsolv_2 with mu in [1/4, 1/2] hit after about 1 000-2 500 draws;
#: nonsolv_1 variant B and nonsolv_3 with mu in (0, 1/4] screen all 30 000.
#: Misses are the majority, so the median op is a full screen.
SEARCH_SLOTS = (
    ("ffkm_n", lambda rng: {}, 1),
    ("nonsolv_levi", lambda rng: {}, 1),
    ("nonsolv_2", lambda rng: {"mu": _rational(rng, Fraction(1, 4), Fraction(1, 2),
                                                 dens=(4, 5, 6, 7, 8))}, 1),
    ("nonsolv_1", lambda rng: {"variant": "B"}, 2),
    ("nonsolv_3", lambda rng: {"mu": _rational(rng, 0, Fraction(1, 4), dens=(4, 6, 8, 12),
                                                 ok=lambda x: x > 0)}, 3),
)


def search_plan(seed: int) -> list:
    """Items are (entry, params, search seed) in a seeded order."""
    rng = random.Random("closed_search:%d" % seed)
    items = []
    for entry, draw, count in SEARCH_SLOTS:
        params = draw(rng)
        items += [(entry, params, rng.randrange(2 ** 32)) for _ in range(count)]
    rng.shuffle(items)
    return items


def check_search(phi, kernel, consts, seed, replays=None) -> tuple:
    """Replays the draw stream; the result must be its first positive draw.

    ``replays``, when given, keeps the replay for the next check of the same
    op: its inputs do not change between passes, so neither does the draw.
    """
    if replays is None:
        replays = {}
    if seed not in replays:
        replays[seed] = reference.replay(kernel, seed, SEARCH_ATTEMPTS)
    index, expected = replays[seed]
    stats = {"candidates": SEARCH_ATTEMPTS if index is None else index + 1,
             "hits": 0 if index is None else 1}
    if phi is None:
        return (None if index is None else "missed the hit at draw %d" % index), stats
    y = np.asarray(phi.np_coeffs, dtype=float)
    if index is None:
        return "returned a form although no draw is positive", stats
    if float(np.max(np.abs(y - expected))) > 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        return "returned form is not draw %d" % index, stats
    if not reference.closed(consts, y):
        return "returned form is not closed", stats
    if not reference.positive(y)[0]:
        return "returned form is not positive", stats
    return None, stats


def prepare_search(plan) -> list:
    algebras = {}
    ops = []
    for entry, params, seed in plan:
        key = (entry, tuple(sorted(params.items())))
        if key not in algebras:
            alg = catalog.get(entry, **params).algebra
            # the replay needs the search's kernel; computing it here also
            # fills the algebra's cached d matrix
            kernel = np.array([f.np_coeffs for f in g2.closed_3form_basis(alg)])
            algebras[key] = (alg, kernel, reference.structure_constants(alg))
        alg, kernel, consts = algebras[key]
        label = "search %s %s seed=%d" % (
            entry, " ".join("%s=%s" % kv for kv in sorted(params.items())), seed)
        replays = {}  # the replay of this op's draws, made at its first check
        ops.append(Op(
            label,
            lambda a=alg, s=seed: g2.search_closed_positive(a, attempts=SEARCH_ATTEMPTS,
                                                             seed=s),
            lambda phi, k=kernel, c=consts, s=seed, r=replays: check_search(phi, k, c, s, r)))
    return ops


WORKLOADS = {
    "exact_reports": (exact_plan, prepare_exact),
    "flow_trajectories": (flow_plan, prepare_flow),
    "closed_search": (search_plan, prepare_search),
}
