"""Batch command-line front end.

Commands: analyze | g2 | su3 | flow | soliton | search-closed | catalog.
Inputs are catalog ids (with rational --param key=value pairs) or JSON files;
outputs are deterministic JSON reports (or a readable text rendering with
--format pretty), CSV trajectories for the flow command, and exit codes
  0 ok, 1 stdout closed by the reader (nothing is written to stderr), 2
  parse/parameter failure (a rejected flag or input file, an unknown
  entry, a parameter value that is not rational, an unwritable --out or an
  unusable user catalog), 3 invalid algebra (Jacobi fails), 4 invalid
  structure (also a form of the wrong degree, or an algebra of the wrong
  dimension for the command), 5 numerical inconsistency or ambiguous
  residual.  EXIT_CODES is the one map from a failure to its code, and each
  failure it maps is reported as a g2lab-report/1 error report.

The environment variable G2LAB_CATALOG_PATH may point to a JSON file with
additional user catalog entries.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache, partial

from . import catalog
from .exterior import KForm
from .flow import (
    AmbiguousResidualError,
    algebraic_soliton_solve,
    derived_series_to_csv,
    gabk_phi,
    laplacian_flow,
    lauret_solution,
    trajectory_to_csv,
)
from .g2 import (
    G2Structure,
    NotERPError,
    curvature,
    erp_diagnostics,
    erp_residual,
    search_closed_positive,
    torsion,
)
from .liealg import (
    InvalidStructureError,
    LieAlgebra,
    _derivation_dim,
    betti,
    check_jacobi,
    is_unimodular,
    structure_flags,
)
from .scalars import FLOAT, RATIONAL
from .su3 import check_dw2_prop_psi, reconstruct_su3, w2_of

SCHEMA = "g2lab-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_ALGEBRA = 3
EXIT_INVALID_STRUCTURE = 4
EXIT_NUMERICAL = 5


class CliError(Exception):
    """A rejected flag or input file (exit 2)."""


#: (exception types, exit code), read by ``main`` in order, most specific
#: first: the only map from a failure to its exit code.  Every other ValueError
#: the library raises is a rejected argument, and every ArithmeticError a failed
#: numerical check (AmbiguousResidualError reports status "ambiguous").
EXIT_CODES = (
    (InvalidStructureError, EXIT_INVALID_ALGEBRA),
    ((CliError, catalog.UnknownEntryError, catalog.ParamError,
      catalog.AmbiguousEntryError, OSError), EXIT_PARSE),
    ((catalog.CatalogVerificationError, ValueError), EXIT_INVALID_STRUCTURE),
    (ArithmeticError, EXIT_NUMERICAL),
)


def _parse_params(tokens):
    """Parse --param tokens 'name=value[,value...]' into sweep dictionaries."""
    keys = []
    values = []
    for tok in tokens or []:
        if tok.count("=") != 1:  # in a=1,b=2 "b=2" would be read as a value of a
            raise CliError("malformed parameter %r (expected name=value)" % tok)
        name, _, raw = tok.partition("=")
        if name in keys:
            raise CliError("parameter %s given twice" % name)
        keys.append(name)
        values.append([v.strip() for v in raw.split(",")])  # catalog.get converts
    sweeps = [{}]
    for name, vals in zip(keys, values):
        sweeps = [dict(s, **{name: v}) for s in sweeps for v in vals]
    return sweeps


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _read(what, load):
    """load(); a file that cannot be read or decoded is a parse error."""
    try:
        return load()
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            AttributeError, ZeroDivisionError) as exc:
        raise CliError("cannot load %s: %s" % (what, exc)) from None


def _load_algebra(spec, params):
    """Resolve a catalog id or a JSON file path into a CatalogEntry.  A registered
    id wins over a file of that name, which ``./n1`` or a ``.json`` name reads."""
    if spec.endswith(".json") or (spec not in catalog.entry_ids() and os.path.exists(spec)):
        alg = _read("algebra file %s" % spec,
                    lambda: LieAlgebra.from_json_dict(_json(spec)))
        if params:
            raise CliError("--param applies to catalog entries only")
        if check_jacobi(alg) != 0:
            raise InvalidStructureError("structure equations violate the Jacobi identity")
        return catalog.CatalogEntry(
            id=spec, algebra=alg, params={}, su3_pair=None, phi=None,
            expected={}, description="file input")
    return catalog.get(spec, **params)


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report(command, digested, results, status="ok"):
    """A g2lab-report/1 report; its input_digest is the digest of ``digested``."""
    return {
        "schema": SCHEMA,
        "command": command,
        "input_digest": _digest(digested),
        "status": status,
        "results": results,
    }


def _scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_analyze(entry, args):
    alg = entry.algebra
    flags = structure_flags(alg)
    return {
        "n": alg.n,
        "params": {k: str(v) for k, v in entry.params.items()},
        "jacobi_residual": str(check_jacobi(alg)),
        "unimodular": is_unimodular(alg),
        "solvable": flags.solvable,
        "nilpotent": flags.nilpotent,
        "nilpotent_step": flags.nilpotent_step,
        "radical_dim": flags.radical_dim,
        "levi_type": flags.levi_type,
        "betti": [betti(alg, k) for k in range(alg.n + 1)],
        "dim_der": _derivation_dim(alg),
    }


def _structure_from_args(entry, args):
    if getattr(args, "phi", None):
        phi = _read("phi", lambda: KForm.from_json_dict(_json(args.phi)))
    else:
        phi = entry.phi
        if phi is None:
            raise ValueError("entry %s has no attached 3-form%s" % (
                entry.id, "; pass --phi" if hasattr(args, "phi") else ""))
    if args.backend == FLOAT:
        phi = phi.to_float()
    return G2Structure(entry.algebra, phi)


def _cmd_g2(entry, args):
    struct = _structure_from_args(entry, args)
    results = {"closed": struct.is_closed()}
    if not results["closed"]:
        results.update({"tau": None, "tau_norm_sq": None, "scal": None,
                        "ric_eigenvalues": None, "erp_residual": None})
        return results
    tor = torsion(struct)
    cur = curvature(struct)
    results.update({
        "tau": tor.tau.to_json_dict(),
        "tau_norm_sq": float(tor.tau_norm_sq),
        "scal": float(cur.scal),
        "ric_eigenvalues": [float(e) for e in cur.ric_eigenvalues],
        "erp_residual": erp_residual(struct),
    })
    if args.erp_diagnostics:
        try:
            diag = erp_diagnostics(struct)
            fields = asdict(diag)
            del fields["residual"], fields["tau_norm_sq"]  # reported above
            results["erp_diagnostics"] = dict(fields, passed=diag.passed)
        except NotERPError as exc:
            results["erp_diagnostics"] = {"error": str(exc)}
    return results


def _su3_from_args(entry, args):
    if bool(args.omega) != bool(args.psi):
        raise CliError("--omega and --psi must be given together")
    if args.omega:
        pair = _read("SU(3) pair", lambda: tuple(
            KForm.from_json_dict(_json(path)) for path in (args.omega, args.psi)))
    elif entry.su3_pair is None:
        raise ValueError("entry %s has no attached SU(3) pair; pass "
                         "--omega/--psi" % entry.id)
    else:
        pair = entry.su3_pair
    if args.backend == FLOAT:
        return reconstruct_su3(entry.algebra, *(f.to_float() for f in pair))
    if pair is entry.su3_pair:
        return entry.su3_structure
    return reconstruct_su3(entry.algebra, *pair)


def _cmd_su3(entry, args):
    struct = _su3_from_args(entry, args)
    tc = struct.torsion_class
    results = {
        "torsion_class": tc.kind,
        "c": _scalar(tc.c),
        "psi_hat": struct.psi_hat.to_json_dict(),
    }
    if tc.kind in ("coupled", "symplectic_half_flat"):
        data = w2_of(struct)
        prop = check_dw2_prop_psi(struct, data.w2)
        results["w2"] = data.w2.to_json_dict()
        results["dw2_proportional_to_psi"] = prop.proportional
        results["dw2_factor"] = _scalar(prop.factor)
    return results


def _cmd_soliton(entry, args):
    sol = algebraic_soliton_solve(_structure_from_args(entry, args))
    results = {
        "feasible": sol.feasible,
        "residual_ratio": sol.residual_ratio,
    }
    if sol.feasible:
        results.update({
            "lambda": _scalar(sol.lam),
            "character": sol.character,
            "derivation": [[_scalar(x) for x in row]
                           for row in sol.derivation.rows],
        })
    return results


def _cmd_flow(entry, args):
    for flag, value in (("--t-end", args.t_end), ("--dt", args.dt), ("--tol", args.tol)):
        if value is not None and not 0 < value < float("inf"):
            raise CliError("%s must be a finite positive number" % flag)
    closed_form = _closed_form(entry, args.compare) if args.compare else None
    struct = _structure_from_args(entry, args)
    paths = ()
    if args.out:
        root, ext = os.path.splitext(args.out)
        paths = (args.out, root + "_derived" + (ext or ".csv"))
    created = []  # removed again if the run fails: no partial CSV is left
    try:
        for path in paths:  # an unwritable --out fails here, before the run
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                created.append(path)
        traj = laplacian_flow(struct, args.t_end, dt0=args.dt, tol=args.tol)
        results = {
            "status": traj.status,
            "steps": len(traj.samples) - 1,
            "t_final": traj.samples[-1].t,
            "tau_norm_sq_final": traj.samples[-1].tau_norm_sq,
            "scal_final": traj.samples[-1].scal,
        }
        if args.compare:
            results["comparison"] = args.compare
            results["max_deviation"] = max(float((s.phi - closed_form(s.t)).max_abs())
                                           for s in traj.samples)
        if paths:
            trajectory_to_csv(traj, paths[0])
            derived_series_to_csv(traj, paths[1])
            results["csv"] = args.out
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    return results


#: --compare choice -> (catalog id, its parameter, closed-form solution phi(param, t))
_CLOSED_FORMS = {"lauret": ("g_a", "a", lauret_solution),
                 "gabk": ("g_abk", "b", gabk_phi)}


def _closed_form(entry, which):
    """The closed-form solution t -> phi(t) of --compare, checked at t = 0."""
    entry_id, param, solution = _CLOSED_FORMS[which]
    if entry.id != entry_id:
        raise CliError("--compare %s applies to %s only" % (which, entry_id))
    solution(entry.params[param], 0.0)  # a degenerate parameter fails before the run
    return partial(solution, entry.params[param])


def _cmd_search_closed(entry, args):
    for flag, value in (("--attempts", args.attempts), ("--seed", args.seed)):
        if value < 0:
            raise CliError("%s must not be negative" % flag)
    phi = search_closed_positive(entry.algebra, attempts=args.attempts,
                                 seed=args.seed,
                                 initial=entry.phi)
    results = {"found": phi is not None, "attempts": args.attempts,
               "seed": args.seed}
    if phi is not None:
        results["phi"] = phi.to_json_dict()
    return results


def _cmd_catalog_list(args):
    entries = []
    for eid in catalog.entry_ids():
        spec = catalog.describe(eid)
        entries.append({
            "id": eid,
            "params": spec.param_doc,
            "description": spec.description,
            "ambiguous": spec.ambiguous,
        })
    return {"entries": entries}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "g2": _cmd_g2,
    "su3": _cmd_su3,
    "soliton": _cmd_soliton,
    "flow": _cmd_flow,
    "search-closed": _cmd_search_closed,
}


def _load_user_catalog():
    """Register the entries of G2LAB_CATALOG_PATH, when it is set."""
    user_catalog = os.environ.get("G2LAB_CATALOG_PATH")
    if user_catalog:
        _read("user catalog", lambda: catalog.load_user_catalog(user_catalog))


def _init_worker():
    """Pool initializer: a spawned worker registers the user catalog once
    (main has already reported an unusable one; raising here would hang the pool)."""
    with contextlib.suppress(CliError):
        _load_user_catalog()


def _run_job(job):
    command, spec, params, args_dict = job
    args = argparse.Namespace(**args_dict)
    entry = _load_algebra(spec, params)
    results = _COMMANDS[command](entry, args)
    return entry, results


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)  # once per process: parse_args leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=["json", "pretty"], default="json")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--backend", choices=[RATIONAL, FLOAT], default=RATIONAL)
    shared.add_argument("--jobs", type=int, default=1)

    p = argparse.ArgumentParser(
        prog="g2lab",
        parents=[shared],
        description="analysis of closed G2-structures, SU(3)-structures and "
                    "Laplacian flow on low-dimensional Lie algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def algebra_command(name, **kwargs):
        sp = sub.add_parser(name, parents=[shared], **kwargs)
        sp.add_argument("algebra", help="catalog id or JSON file")
        sp.add_argument("--param", nargs="*", default=[],
                        metavar="NAME=VALUE", help="rational parameters; "
                        "comma-separated values sweep")
        return sp

    algebra_command("analyze", help="structural report")

    sp = algebra_command("g2", help="torsion/curvature report for a 3-form")
    sp.add_argument("--phi", help="JSON file with the 3-form")
    sp.add_argument("--default", action="store_true",
                    help="the default behaviour, accepted and ignored: without "
                         "--phi the catalog form attached to the entry is used")
    sp.add_argument("--erp-diagnostics", action="store_true")

    sp = algebra_command("su3", help="SU(3) torsion report")
    sp.add_argument("--omega")
    sp.add_argument("--psi")
    sp.add_argument("--default", action="store_true",
                    help="the default behaviour, accepted and ignored: without "
                         "--omega and --psi the catalog pair of the entry is used")

    algebra_command("soliton", help="algebraic soliton solve")

    sp = algebra_command("flow", help="Laplacian flow integration")
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--dt", type=float, default=None,
                    help="first step tried (default: chosen from the start)")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", help="trajectory CSV path")
    sp.add_argument("--compare", choices=list(_CLOSED_FORMS))

    sp = algebra_command("search-closed", help="randomized closed-positive search")
    sp.add_argument("--attempts", type=int, default=10000)

    sp = sub.add_parser("catalog", parents=[shared], help="catalog inspection")
    sp.add_argument("action", choices=["list"])
    return p


def _render(report, fmt) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True)
    lines = ["status: %s" % report["status"]]
    for key, value in sorted(report["results"].items()):
        lines.append("%s: %r" % (key, value))
    return "\n".join(lines)


def _execute(args):
    """The report of one invocation and its exit code."""
    command = [args.command, args.action if args.command == "catalog" else args.algebra]
    try:
        if args.jobs < 1:
            raise CliError("--jobs must be at least 1")
        _load_user_catalog()
        if args.command == "catalog":
            return _report(command, {"command": "catalog-list"},
                           _cmd_catalog_list(args)), EXIT_OK

        sweeps = _parse_params(args.param)
        jobs = [(args.command, args.algebra, params, vars(args))
                for params in sweeps]
        if len(jobs) > 1 and args.jobs > 1:
            # spawn avoids inheriting BLAS thread state into the workers
            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(processes=min(args.jobs, len(jobs)),
                          initializer=_init_worker) as pool:
                outcomes = pool.map(_run_job, jobs)
        else:
            outcomes = [_run_job(job) for job in jobs]

        algebras = [e.algebra.to_json_dict() for e, _ in outcomes]
        if len(outcomes) == 1:  # a sweep digests every item's algebra
            algebras, results = algebras[0], outcomes[0][1]
        else:
            results = {"sweep": [{"params": {k: str(v) for k, v in e.params.items()},
                                  "results": r} for e, r in outcomes]}
        return _report(command, {"command": command, "algebra": algebras}, results), EXIT_OK
    except Exception as exc:
        code = next((code for types, code in EXIT_CODES if isinstance(exc, types)), None)
        if code is None:  # not a rejected input: a bug, shown with its traceback
            raise
        status = "ambiguous" if isinstance(exc, AmbiguousResidualError) else "error"
        return _report(command, {"command": args.command}, {"error": str(exc)}, status), code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report, code = _execute(args)
    try:
        print(_render(report, args.format), flush=True)
    except BrokenPipeError:  # the reader closed stdout, as `g2lab catalog list | head` does
        # the flush at exit then meets devnull, not the closed pipe (Python
        # docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
