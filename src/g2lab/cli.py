"""Batch command-line front end.

Commands: analyze | g2 | su3 | flow | soliton | search-closed | catalog.
Inputs are catalog ids (with rational --param key=value pairs) or JSON files;
outputs are deterministic JSON reports (or a readable text rendering with
--format pretty), CSV trajectories for the flow command, and exit codes
  0 ok, 2 parse/parameter failure, 3 invalid algebra (Jacobi fails),
  4 invalid structure, 5 numerical inconsistency or ambiguous residual.

The environment variable G2LAB_CATALOG_PATH may point to a JSON file with
additional user catalog entries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
from fractions import Fraction

from . import catalog
from .exterior import KForm
from .flow import (
    AmbiguousResidualError,
    algebraic_soliton_solve,
    ansatz_coefficients,
    derived_series_to_csv,
    gabk_solution,
    laplacian_flow,
    lauret_solution,
    trajectory_to_csv,
)
from .g2 import (
    G2Structure,
    NotClosedError,
    NotERPError,
    NotPositiveError,
    curvature,
    erp_diagnostics,
    erp_residual,
    search_closed_positive,
    torsion_form,
)
from .liealg import (
    InvalidStructureError,
    LieAlgebra,
    betti,
    check_jacobi,
    derivation_space,
    is_unimodular,
    structure_flags,
)
from .scalars import FLOAT, RATIONAL
from .su3 import (
    SU3ConstructionError,
    check_dw2_prop_psi,
    reconstruct_su3,
    su3_torsion_class,
    w2_of,
)

SCHEMA = "g2lab-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_ALGEBRA = 3
EXIT_INVALID_STRUCTURE = 4
EXIT_NUMERICAL = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # sweep workers send errors back pickled; keep the code with the message
        return (CliError, (str(self), self.code))


def _parse_params(tokens):
    """Parse --param tokens 'name=value[,value...]' into sweep dictionaries."""
    keys = []
    values = []
    for tok in tokens or []:
        if "=" not in tok:
            raise CliError("malformed parameter %r (expected name=value)" % tok,
                           EXIT_PARSE)
        name, _, raw = tok.partition("=")
        try:
            vals = [_parse_rational_or_str(v) for v in raw.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError("cannot parse parameter %r: %s" % (tok, exc),
                           EXIT_PARSE) from None
        keys.append(name)
        values.append(vals)
    sweeps = [{}]
    for name, vals in zip(keys, values):
        sweeps = [dict(s, **{name: v}) for s in sweeps for v in vals]
    return sweeps


def _parse_rational_or_str(text):
    text = text.strip()
    if text and text[0].isalpha():
        return text  # e.g. variant=A
    return Fraction(text)


def _load_algebra(spec, params):
    """Resolve a catalog id or a JSON file path into a CatalogEntry."""
    if os.path.exists(spec) or spec.endswith(".json"):
        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("cannot read algebra file %s: %s" % (spec, exc),
                           EXIT_PARSE) from None
        try:
            alg = LieAlgebra.from_json_dict(data)
        except (KeyError, ValueError) as exc:
            raise CliError("malformed algebra JSON: %s" % exc, EXIT_PARSE) from None
        if params:
            raise CliError("--param applies to catalog entries only", EXIT_PARSE)
        if check_jacobi(alg) != 0:
            raise CliError("structure equations violate the Jacobi identity",
                           EXIT_INVALID_ALGEBRA)
        return catalog.CatalogEntry(
            id=spec, algebra=alg, params={}, su3_pair=None, phi=None,
            expected={}, description="file input")
    try:
        return catalog.get(spec, **params)
    except catalog.UnknownEntryError:
        raise CliError("unknown catalog entry %r" % spec, EXIT_PARSE) from None
    except (catalog.AmbiguousEntryError, catalog.ParamError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    except TypeError as exc:
        raise CliError("bad parameters: %s" % exc, EXIT_PARSE) from None
    except InvalidStructureError as exc:
        raise CliError(str(exc), EXIT_INVALID_ALGEBRA) from None
    except catalog.CatalogVerificationError as exc:
        raise CliError(str(exc), EXIT_INVALID_STRUCTURE) from None


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report(command, entry, results, status="ok"):
    return {
        "schema": SCHEMA,
        "command": command,
        "input_digest": _digest({
            "command": command,
            "algebra": entry.algebra.to_json_dict() if entry else None,
        }),
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
    der = derivation_space(alg)
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
        "dim_der": der.dim,
    }


def _structure_from_args(entry, args):
    if getattr(args, "phi", None):
        try:
            with open(args.phi) as fh:
                phi = KForm.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError("cannot read phi: %s" % exc, EXIT_PARSE) from None
    else:
        phi = entry.phi
        if phi is None:
            raise CliError("entry %s has no attached 3-form; pass --phi"
                           % entry.id, EXIT_INVALID_STRUCTURE)
    if args.backend == FLOAT:
        phi = phi.to_float()
    try:
        return G2Structure(entry.algebra, phi)
    except NotPositiveError as exc:
        raise CliError(str(exc), EXIT_INVALID_STRUCTURE) from None


def _cmd_g2(entry, args):
    struct = _structure_from_args(entry, args)
    results = {"closed": struct.is_closed()}
    if not results["closed"]:
        results.update({"tau": None, "tau_norm_sq": None, "scal": None,
                        "ric_eigenvalues": None, "erp_residual": None})
        return results
    tor = torsion_form(struct)
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
            results["erp_diagnostics"] = {
                "tau_cubed_zero": diag.tau_cubed_zero,
                "tau_tau_closed": diag.tau_tau_closed,
                "star_tau_tau_closed": diag.star_tau_tau_closed,
                "tau_tau_simple": diag.tau_tau_simple,
                "annihilator_dim": diag.annihilator_dim,
                "ric_matches_j_formula": diag.ric_matches_j_formula,
                "ric_eigenvalue_pattern": diag.ric_eigenvalue_pattern,
                "passed": diag.passed,
            }
        except NotERPError as exc:
            results["erp_diagnostics"] = {"error": str(exc)}
    return results


def _su3_from_args(entry, args):
    if args.omega and args.psi:
        try:
            with open(args.omega) as fh:
                omega = KForm.from_json_dict(json.load(fh))
            with open(args.psi) as fh:
                psi = KForm.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError("cannot read SU(3) pair: %s" % exc, EXIT_PARSE) from None
    else:
        if entry.su3_pair is None:
            raise CliError("entry %s has no attached SU(3) pair; pass "
                           "--omega/--psi" % entry.id, EXIT_INVALID_STRUCTURE)
        omega, psi = entry.su3_pair
    if args.backend == FLOAT:
        omega, psi = omega.to_float(), psi.to_float()
    try:
        return reconstruct_su3(entry.algebra, omega, psi)
    except SU3ConstructionError as exc:
        raise CliError(str(exc), EXIT_INVALID_STRUCTURE) from None


def _cmd_su3(entry, args):
    struct = _su3_from_args(entry, args)
    tc = su3_torsion_class(struct)
    results = {
        "torsion_class": tc.kind,
        "c": _scalar(tc.c),
        "psi_hat": struct.psi_hat.to_json_dict(),
    }
    if tc.kind in ("coupled", "symplectic_half_flat"):
        data = w2_of(struct, tc.c if tc.kind == "coupled" else 0)
        prop = check_dw2_prop_psi(struct, data.w2)
        results["w2"] = data.w2.to_json_dict()
        results["dw2_proportional_to_psi"] = prop.proportional
        results["dw2_factor"] = _scalar(prop.factor)
    return results


def _cmd_soliton(entry, args):
    struct = _structure_from_args(entry, args)
    try:
        sol = algebraic_soliton_solve(struct)
    except AmbiguousResidualError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL) from None
    except NotClosedError as exc:
        raise CliError(str(exc), EXIT_INVALID_STRUCTURE) from None
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
    if not 0 < args.t_end < float("inf"):
        raise CliError("--t-end must be a positive number", EXIT_PARSE)
    struct = _structure_from_args(entry, args)
    try:
        traj = laplacian_flow(struct, args.t_end, dt0=args.dt, tol=args.tol)
    except NotClosedError as exc:
        raise CliError(str(exc), EXIT_INVALID_STRUCTURE) from None
    results = {
        "status": traj.status,
        "steps": len(traj.samples) - 1,
        "t_final": traj.samples[-1].t,
        "tau_norm_sq_final": traj.samples[-1].tau_norm_sq,
        "scal_final": traj.samples[-1].scal,
    }
    if args.out:
        trajectory_to_csv(traj, args.out)
        root, ext = os.path.splitext(args.out)
        derived_series_to_csv(traj, root + "_derived" + (ext or ".csv"))
        results["csv"] = args.out
    if args.compare:
        results["comparison"] = args.compare
        results["max_deviation"] = _compare_closed_form(entry, traj, args.compare)
    return results


def _compare_closed_form(entry, traj, which):
    worst = 0.0
    if which == "lauret":
        if "a" not in entry.params:
            raise CliError("--compare lauret needs parameter a", EXIT_PARSE)
        for s in traj.samples:
            ref = lauret_solution(entry.params["a"], s.t)
            worst = max(worst, float((s.phi - ref).max_abs()))
    elif which == "gabk":
        if "b" not in entry.params:
            raise CliError("--compare gabk needs parameter b", EXIT_PARSE)
        b = entry.params["b"]
        for s in traj.samples:
            coeffs = ansatz_coefficients(s.phi)
            if coeffs is None:
                raise CliError("flow sample left the ansatz support",
                               EXIT_NUMERICAL)
            c1, c2, c3 = gabk_solution(b, s.t)
            ref = (c1, c2, c3, c2, c2, c2, c2)
            worst = max(worst, max(abs(float(x) - r)
                                   for x, r in zip(coeffs.c, ref)))
    else:
        raise CliError("unknown comparison %r" % which, EXIT_PARSE)
    return worst


def _cmd_search_closed(entry, args):
    if args.attempts < 0:
        raise CliError("--attempts must not be negative", EXIT_PARSE)
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


def _run_job(job):
    command, spec, params, args_dict = job
    user_catalog = os.environ.get("G2LAB_CATALOG_PATH")
    if user_catalog and os.path.exists(user_catalog):
        try:
            catalog.load_user_catalog(user_catalog)
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            pass  # the parent already reported unusable catalogs
    args = argparse.Namespace(**args_dict)
    entry = _load_algebra(spec, params)
    results = _COMMANDS[command](entry, args)
    return entry, results


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

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
                    help="use the catalog form attached to the entry")
    sp.add_argument("--erp-diagnostics", action="store_true")

    sp = algebra_command("su3", help="SU(3) torsion report")
    sp.add_argument("--omega")
    sp.add_argument("--psi")
    sp.add_argument("--default", action="store_true")

    algebra_command("soliton", help="algebraic soliton solve")

    sp = algebra_command("flow", help="Laplacian flow integration")
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", help="trajectory CSV path")
    sp.add_argument("--compare", choices=["lauret", "gabk"])

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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    user_catalog = os.environ.get("G2LAB_CATALOG_PATH")
    if user_catalog:
        try:
            catalog.load_user_catalog(user_catalog)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print("cannot load user catalog: %s" % exc, file=sys.stderr)
            return EXIT_PARSE

    try:
        if args.command == "catalog":
            report = {
                "schema": SCHEMA,
                "command": ["catalog", args.action],
                "input_digest": _digest({"command": "catalog-list"}),
                "status": "ok",
                "results": _cmd_catalog_list(args),
            }
            print(_render(report, args.format))
            return EXIT_OK

        sweeps = _parse_params(args.param)
        jobs = [(args.command, args.algebra, params, vars(args))
                for params in sweeps]
        if len(jobs) > 1 and args.jobs > 1:
            # spawn avoids inheriting BLAS thread state into the workers
            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(processes=args.jobs) as pool:
                outcomes = pool.map(_run_job, jobs)
        else:
            outcomes = [_run_job(job) for job in jobs]

        if len(outcomes) == 1:
            entry, results = outcomes[0]
            report = _report([args.command, args.algebra], entry, results)
        else:
            entry = outcomes[0][0]
            report = _report([args.command, args.algebra], entry, {
                "sweep": [
                    {"params": {k: str(v) for k, v in e.params.items()},
                     "results": r}
                    for e, r in outcomes
                ],
            })
        print(_render(report, args.format))
        return EXIT_OK
    except (CliError, ArithmeticError) as exc:
        code = exc.code if isinstance(exc, CliError) else EXIT_NUMERICAL
        ambiguous = isinstance(exc, CliError) and code == EXIT_NUMERICAL
        report = {
            "schema": SCHEMA,
            "command": [args.command, getattr(args, "algebra", "")],
            "input_digest": _digest({"command": args.command}),
            "status": "ambiguous" if ambiguous else "error",
            "results": {"error": str(exc)},
        }
        print(_render(report, args.format))
        return code


if __name__ == "__main__":
    sys.exit(main())
