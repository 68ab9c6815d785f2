"""Command-line front end: every check and table as a subcommand with
machine-readable JSON or CSV output.

Matrices are passed row-major as comma-separated entries, each entry either
a bare real (``1,1,0,1``) or a ``re:im`` pair (``1:0,1:2,0:0,1:0``);
standalone complex scalars also accept ``1+2j``/``1+2i``.  A plain
``key = value`` config file can seed any option of the chosen subcommand.
Exit codes: 0 all checks passed, 1 a check failed, 2 invalid configuration.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import acceptance
from .asymptotics import ratio_row
from .deformed import NORM_BOUND_LOG_SLACK, biorth_gram, dual_norm_sq, norm_bound_violation, norm_bounds, norm_identity_deviation, norm_sq, riesz_growth
from .displacement import (
    bicoherent,
    compose_check,
    covariance_check,
    kernel_reproducing_check,
    norm_growth_certificate,
    resolution_check,
    weight_diagonal_table,
)
from .fock import ccr_deviation, cuntz_deviation, deformed_ccr_deviation, ladder_deviation, metric_deviation, pseudo_commutator_deviation, pseudo_pair
from .gl2 import GL2Matrix, homomorphism_deviation, inverse_deviation, random_gl2, rep_block, rep_diag, rep_full, star_deviation
from .hermite import hermite_coeffs, hermite_via_contraction, orthonormality_deviation
from .quantize import (
    drift_weight,
    isotropic_gaussian_weight,
    oracle_deviation,
    pseudo_canonical_defect,
    unit_weight,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def parse_complex(text: str) -> complex:
    text = text.strip()
    if ":" in text:
        re_s, im_s = text.split(":")
        return complex(float(re_s), float(im_s))
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def parse_gl2(text: str) -> GL2Matrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"matrix needs 4 comma-separated entries, got {len(parts)}")
    vals = [parse_complex(p) for p in parts]
    try:
        return GL2Matrix(*vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pblab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_csv(results: list[dict]) -> str:
    buf = io.StringIO()
    # columns in order of first appearance over all rows
    keys = list(dict.fromkeys(k for row in results for k in row))
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    writer.writerows(results)
    return buf.getvalue()


def emit_report(args, command: str, params: dict, results: list[dict], passed: bool) -> int:
    if args.format == "csv":
        text = _to_csv(results)
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "results": results,
            "passed": passed,
        }
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _check_row(name: str, deviation: float, tolerance: float, **extra) -> dict:
    row = {
        "check": name,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "pass": bool(deviation <= tolerance),
    }
    row.update(extra)
    return row


# -- subcommand implementations ----------------------------------------------

def cmd_hermite(args) -> int:
    results = []
    params = {"check": args.check}
    if args.eval is not None:
        z = parse_complex(args.eval)
        val = hermite_coeffs(args.n1, args.n2)(z)
        params.update({"n1": args.n1, "n2": args.n2, "z": str(z)})
        results.append({"check": "eval", "re": val.real, "im": val.imag, "pass": True})
        return emit_report(args, "hermite", params, results, True)
    params["max_degree"] = args.max_degree
    if args.check == "orthonormality":
        results.append(_check_row("orthonormality", orthonormality_deviation(args.max_degree), args.tol))
    elif args.check == "equivalence":
        worst = np.max([
            np.max(np.abs((hermite_coeffs(n1, L - n1) - hermite_via_contraction(n1, L - n1)).coeff))
            for L in range(args.max_degree + 1)
            for n1 in range(L + 1)
        ])
        results.append(_check_row("construction-equivalence", worst, args.tol))
    else:
        raise ConfigError("hermite needs --eval or --check {orthonormality,equivalence}")
    return emit_report(args, "hermite", params, results, all(r["pass"] for r in results))


def cmd_rep(args) -> int:
    g = parse_gl2(args.g)
    rng = np.random.default_rng(args.seed)
    results = []
    params = {"g": args.g, "L": args.L, "check": args.check, "seed": args.seed}
    if args.check == "block":
        block = rep_block(g, args.L)
        results.append(
            {
                "check": "block",
                "L": args.L,
                "mat": [[[c.real, c.imag] for c in row] for row in block],
                "pass": True,
            }
        )
    elif args.check == "homomorphism":
        worst = np.max([homomorphism_deviation(g, random_gl2(rng), args.L) for _ in range(args.trials)])
        results.append(_check_row("homomorphism", worst, args.tol, trials=args.trials))
    elif args.check == "inverse":
        results.append(_check_row("inverse", inverse_deviation(g, args.L), args.tol))
    elif args.check == "star":
        results.append(_check_row("star", star_deviation(g, args.L), args.tol))
    elif args.check == "diag":
        block = rep_block(g, args.L)
        diag = [rep_diag(g, n1, args.L - n1) for n1 in range(args.L + 1)]
        worst = np.max([abs(val - block[n1, n1]) / max(1.0, abs(val)) for n1, val in enumerate(diag)])
        results.append(_check_row("diag-vs-block", worst, args.tol))
    return emit_report(args, "rep", params, results, all(r["pass"] for r in results))


def cmd_deformed(args) -> int:
    g = parse_gl2(args.g)
    results = []
    params = {"g": args.g, "l_max": args.l_max, "check": args.check}
    if args.check == "gram":
        _, dev = biorth_gram(g, args.l_max)
        results.append(_check_row("biorthonormality-gram", dev, args.tol))
    elif args.check == "norm-identity":
        worst = norm_identity_deviation(g, range(args.l_max + 1))
        results.append(_check_row("norm-identity-rel", worst, args.tol))
    elif args.check == "table":
        for L in range(args.l_max + 1):
            for n1 in range(L + 1):
                n2 = L - n1
                row = {
                    "n1": n1,
                    "n2": n2,
                    "norm_sq": norm_sq(g, n1, n2),
                    "dual_norm_sq": dual_norm_sq(g, n1, n2),
                }
                if min(n1, n2) >= 1:
                    nb = norm_bounds(g, n1, n2)
                    row.update(lower=nb.lower, upper=nb.upper)
                    row["product"] = row["norm_sq"] * row["dual_norm_sq"]
                    row["pass"] = bool(norm_bound_violation(g, n1, n2) <= NORM_BOUND_LOG_SLACK)
                else:
                    row["pass"] = True
                results.append(row)
    return emit_report(args, "deformed", params, results, all(r.get("pass", True) for r in results))


def cmd_bounds(args) -> int:
    g = parse_gl2(args.g)
    l_list = [int(x) for x in args.l_list.split(",")]
    rows = riesz_growth(g, l_list)
    results = []
    for row in rows:
        out = dict(row)
        out["pass"] = bool(row["log_product"] >= row["log_lower_bound"] - 1e-10)
        if math.isnan(out["growth_ratio"]):
            out["growth_ratio"] = ""
        results.append(out)
    params = {"g": args.g, "l_list": args.l_list}
    return emit_report(args, "bounds", params, results, all(r["pass"] for r in results))


def cmd_asympt(args) -> int:
    if args.h:
        h = parse_gl2(args.h)
    else:
        r = args.r
        if not 0 < r < 1:
            raise ConfigError(f"need 0 < r < 1, got {r}")
        h = GL2Matrix(1.0, math.sqrt(r), math.sqrt(r), 1.0)
    results = []
    for n1 in [int(x) for x in args.n1.split(",")]:
        if args.nu is not None:
            row = ratio_row(h, n1, nu=args.nu)
        else:
            row = ratio_row(h, n1, d=args.d)
        row["pass"] = bool(row["log_error_per_degree"] <= args.tol)
        results.append(row)
    params = {"h": args.h or f"r={args.r}", "d": args.d, "nu": args.nu, "tol": args.tol}
    return emit_report(args, "asympt", params, results, all(r["pass"] for r in results))


def cmd_fock(args) -> int:
    g = parse_gl2(args.g)
    L_max = args.l_max
    results = []
    wanted = args.check
    if wanted in ("all", "ccr"):
        results.append(_check_row("two-mode-ccr", ccr_deviation(L_max), args.tol))
    if wanted in ("all", "deformed"):
        results.append(_check_row("deformed-ccr", deformed_ccr_deviation(g, L_max), args.tol))
    if wanted in ("all", "pseudo"):
        pair = pseudo_pair(g, L_max)
        results.append(_check_row("pseudo-commutator", pseudo_commutator_deviation(pair), args.tol))
        results.append(_check_row("ladder-on-deformed-family", ladder_deviation(pair), args.tol))
    if wanted in ("all", "cuntz"):
        results.append(_check_row("cuntz-relations", cuntz_deviation(L_max), args.tol))
    if wanted in ("all", "metric"):
        results.append(_check_row("metric-inverse-pair", metric_deviation(g, L_max), args.tol))
    params = {"g": args.g, "l_max": L_max, "check": wanted, "tol": args.tol}
    return emit_report(args, "fock", params, results, all(r["pass"] for r in results))


def cmd_displace(args) -> int:
    g = parse_gl2(args.g)
    z1 = parse_complex(args.z1)
    z2 = parse_complex(args.z2)
    results = []
    if args.check in ("all", "compose"):
        dev = compose_check(z1, z2, args.l_max, check_L=args.check_l)
        results.append(_check_row("composition", dev, args.tol))
    if args.check in ("all", "covariance"):
        dev = covariance_check(z1, z2, g, args.l_max, check_L=args.check_l)
        results.append(_check_row("projective-covariance", dev, args.tol))
    if args.check in ("all", "kernel"):
        dev = kernel_reproducing_check(z1, z2)
        results.append(_check_row("kernel-reproducing", dev, args.tol))
    if args.check in ("all", "resolution"):
        dev = resolution_check(g, min(args.l_max, 14))
        results.append(_check_row("resolution-of-identity", dev, max(args.tol, 1e-8)))
    if args.check in ("all", "growth"):
        _, r_env, ok = norm_growth_certificate(rep_full(g, min(args.l_max, 14)), g.gram())
        results.append({"check": "norm-growth", "r": r_env, "alpha": 0.0, "pass": bool(ok)})
    if args.check in ("all", "bicoherent"):
        state = bicoherent(z1, g, min(args.l_max, 20), args.eps)
        dev = abs(state.overlap() - 1.0)
        results.append(
            _check_row(
                "bicoherent-overlap", dev, 10 * args.eps,
                n_cut=state.n_cut, tail_bound=state.tail_bound,
            )
        )
    params = {
        "g": args.g, "z1": args.z1, "z2": args.z2, "l_max": args.l_max,
        "check_l": args.check_l, "check": args.check, "tol": args.tol,
    }
    return emit_report(args, "displace", params, results, all(r["pass"] for r in results))


def _weight_from_args(args):
    if args.weight == "unit":
        return unit_weight()
    if args.weight == "gauss-s":
        return isotropic_gaussian_weight(args.s)
    if args.weight == "drift":
        return drift_weight(parse_complex(args.alpha), parse_complex(args.beta), args.s)
    raise ConfigError(f"unknown weight {args.weight!r}")


def cmd_quantize(args) -> int:
    results = []
    params = {"weight": args.weight, "s": args.s, "check": args.check}
    if args.check == "table":
        if args.s >= 1:
            raise ConfigError("isotropic family needs s < 1")
        for row in weight_diagonal_table(args.s, args.n_max):
            row.pop("rel_err")
            row["pass"] = bool(row["abs_err"] <= args.tol * max(1.0, abs(row["closed_form"])))
            results.append(row)
        params["n_max"] = args.n_max
    elif args.check == "pseudo-canonical":
        g = parse_gl2(args.g)
        w = _weight_from_args(args)
        dev = pseudo_canonical_defect(w, g, args.l_max)
        results.append(_check_row("pseudo-canonical-commutator", dev, args.tol))
        params.update({"g": args.g, "l_max": args.l_max})
    elif args.check == "oracle":
        pair = pseudo_pair(parse_gl2(args.g), args.l_max)
        dev = oracle_deviation(pair, "z", args.regularizer, _weight_from_args(args))
        results.append(
            _check_row(
                "oracle-vs-lowering", dev, args.tol,
                regularizer=args.regularizer, block_L=min(4, args.l_max),
            )
        )
        params.update({"g": args.g, "l_max": args.l_max, "regularizer": str(args.regularizer)})
    return emit_report(args, "quantize", params, results, all(r["pass"] for r in results))


def cmd_suite(args) -> int:
    results = []
    all_pass = True
    for res in acceptance.run_all():
        print(res.line(), file=sys.stderr)
        all_pass = all_pass and res.passed
        row = {
            "check": res.name,
            "criterion": res.number,
            "deviation": res.deviation,
            "tolerance": res.tolerance,
            "pass": res.passed,
            "runtime_s": round(res.runtime_s, 3),
        }
        results.append(row)
    return emit_report(args, "suite", {}, results, all_pass)


# -- argument plumbing ---------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this path (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="plain key = value file with option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hermite", help="orthonormality / construction checks, point evaluation")
    p.add_argument("--n1", type=int, default=0)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--eval", help="evaluate h_{n1,n2} at this complex point")
    p.add_argument("--check", choices=("orthonormality", "equivalence"))
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("rep", help="representation block laws")
    p.add_argument("--g", required=True)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--check", choices=("homomorphism", "inverse", "star", "diag", "block"), default="homomorphism")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("deformed", help="deformed-family Gram / norm identities / tables")
    p.add_argument("--g", required=True)
    p.add_argument("--l-max", type=int, default=6)
    p.add_argument("--check", choices=("gram", "norm-identity", "table"), default="gram")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(func=cmd_deformed)

    p = sub.add_parser("bounds", help="norm-product growth table")
    p.add_argument("--g", required=True)
    p.add_argument("--l-list", default="10,20,40,60")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("asympt", help="asymptotic-estimate validation rows")
    p.add_argument("--h", help="positive Hermitian matrix (row-major)")
    p.add_argument("--r", type=float, default=0.5, help="off-diagonal ratio when --h is omitted")
    p.add_argument("--n1", default="200")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--nu", type=float)
    p.add_argument("--tol", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_asympt)

    p = sub.add_parser("fock", help="truncated operator-algebra checks")
    p.add_argument("--g", default="1,1,0,1")
    p.add_argument("--l-max", type=int, default=12)
    p.add_argument("--check", choices=("all", "ccr", "deformed", "pseudo", "cuntz", "metric"), default="all")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("displace", help="displacement algebra / bi-coherent checks")
    p.add_argument("--g", default="1,1,0,1")
    p.add_argument("--z1", default="1")
    p.add_argument("--z2", default="0:1")
    p.add_argument("--l-max", type=int, default=30)
    p.add_argument("--check-l", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-10, help="bi-coherent tail bound")
    p.add_argument(
        "--check",
        choices=("all", "compose", "covariance", "kernel", "resolution", "growth", "bicoherent"),
        default="all",
    )
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_displace)

    p = sub.add_parser("quantize", help="weight-operator tables and quantization checks")
    p.add_argument("--weight", choices=("unit", "gauss-s", "drift"), default="gauss-s")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--alpha", default="0")
    p.add_argument("--beta", default="0")
    p.add_argument("--g", default="1,1,0,1")
    p.add_argument("--l-max", type=int, default=8)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--regularizer", type=float, default=0.01, metavar="LAMBDA")
    p.add_argument("--check", choices=("table", "pseudo-canonical", "oracle"), default="table")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Peel --config out of argv and fold its key = value pairs in as
    defaults of the chosen subcommand; unknown keys are rejected."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError as exc:
        raise ConfigError("--config needs a file path") from exc
    sub_name = argv[0] if argv and not argv[0].startswith("-") else None
    if sub_name is None:
        raise ConfigError("--config requires a subcommand")
    sub_parser = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub_parser = action.choices.get(sub_name)
    if sub_parser is None:
        raise ConfigError(f"unknown subcommand {sub_name!r}")
    known = {a.dest for a in sub_parser._actions}
    overrides = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r} for {sub_name!r}")
            overrides[dest] = value
    for action in sub_parser._actions:
        if action.dest in overrides:
            raw = overrides.pop(action.dest)
            value = action.type(raw) if action.type else raw
            sub_parser.set_defaults(**{action.dest: value})
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
