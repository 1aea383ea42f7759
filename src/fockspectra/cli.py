"""Command-line front end.

Subcommands: spectrum, basis, gpoly, straighten, hooks, tmatrix, verify.
Output is deterministic: fixed key order, rationals as "numerator/denominator"
strings, monomials as sorted [variable, exponent] pairs, generator products
as [degree, length] pairs in basis order.  Exit codes: 0 success, 1
verification or internal consistency failure, 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import genfun, partitions, spectral, transfer
from .errors import ConsistencyError
from .genfun import GCombination, GProduct, gcombination_str, gproduct_str
from .poly import Monomial, Polynomial, mono_str, monomial_basis

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_MAX_DIM = 2000


class UsageError(Exception):
    """Invalid parameters or a request beyond the configured resource limit."""


# ---------------------------------------------------------------------------
# serialization (stable JSON payloads; every payload parses back)

def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


def mono_payload(m: Monomial) -> list[list[int]]:
    return [[k, a] for k, a in m]


def mono_from_payload(obj: Sequence[Sequence[int]]) -> Monomial:
    return tuple((int(k), int(a)) for k, a in obj)


def poly_payload(f: Polynomial) -> list[list]:
    return [[mono_payload(m), fraction_str(c)] for m, c in f.terms()]


def poly_from_payload(obj: Sequence[Sequence]) -> Polynomial:
    return Polynomial({mono_from_payload(m): parse_fraction(c) for m, c in obj})


def gproduct_payload(p: GProduct) -> list[list[int]]:
    return [[d, ell] for d, ell in p]


def gproduct_from_payload(obj: Sequence[Sequence[int]]) -> GProduct:
    return tuple((int(d), int(ell)) for d, ell in obj)


def gcombination_payload(comb: GCombination) -> list[list]:
    ordered = sorted(comb, key=partitions.product_sort_key)
    return [[gproduct_payload(p), fraction_str(comb[p])] for p in ordered]


def gcombination_from_payload(obj: Sequence[Sequence]) -> GCombination:
    return {gproduct_from_payload(p): parse_fraction(c) for p, c in obj}


# ---------------------------------------------------------------------------
# command helpers

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _guard_dimension(d: int, ell: int, max_dim: int) -> None:
    dim = partitions.count_partitions(d, ell)
    _require(
        dim <= max_dim,
        f"component ({d},{ell}) has dimension {dim}, above the --max-dim limit {max_dim}",
    )


def _parse_partition_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError as e:
        raise UsageError(f"cannot parse partition {text!r}: {e}") from None
    try:
        return partitions.check_partition(parts)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _run_spectrum(args) -> tuple[dict, str, Optional[str]]:
    d, ell = args.d, args.ell
    _require(d >= ell >= 1, f"need d >= ell >= 1, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    report = spectral.spectrum(d, ell, with_eigenvectors=args.eigenvectors)
    entries = []
    for e in report.entries:
        item = {"eigenvalue": e.eigenvalue, "sequence": gproduct_payload(e.sequence)}
        if args.eigenvectors:
            item["eigenvector"] = poly_payload(e.eigenvector)
        entries.append(item)
    result = {
        "d": d,
        "ell": ell,
        "eigenvalues": list(report.eigenvalues),
        "dominant": report.dominant,
        "has_zero": report.has_zero,
        "entries": entries,
    }

    lines = [
        f"spectrum on component ({d},{ell}): {list(report.eigenvalues)}",
        f"dominant eigenvalue: {report.dominant}",
        f"zero eigenvalue: {'yes' if report.has_zero else 'no'}",
    ]
    for e in report.entries:
        lines.append(f"  {e.eigenvalue:>6}  {gproduct_str(e.sequence)}")
        if args.eigenvectors:
            lines.append(f"          eigenvector: {e.eigenvector}")
    human = "\n".join(lines)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eigenvalue", "sequence"])
    for e in report.entries:
        writer.writerow([e.eigenvalue, gproduct_str(e.sequence)])
    return result, human, buf.getvalue().rstrip("\n")


def _run_basis(args) -> tuple[dict, str, Optional[str]]:
    d, ell = args.d, args.ell
    _require(d >= ell >= 1, f"need d >= ell >= 1, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    basis = spectral.s_basis(d, ell)
    entries = [
        {
            "product": gproduct_payload(p),
            "partition": list(partitions.profile_to_partition(p)),
        }
        for p in basis
    ]
    result = {"d": d, "ell": ell, "size": len(basis), "entries": entries}
    lines = [f"basis of component ({d},{ell}), {len(basis)} elements:"]
    for item in entries:
        prod = gproduct_from_payload(item["product"])
        lines.append(f"  {gproduct_str(prod)}  <->  partition {tuple(item['partition'])}")
    return result, "\n".join(lines), None


def _run_gpoly(args) -> tuple[dict, str, Optional[str]]:
    d, ell = args.d, args.ell
    _require(d >= 0 and ell >= 0, f"need d, ell >= 0, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    f = genfun.g_poly(d, ell)
    result = {"d": d, "ell": ell, "polynomial": poly_payload(f), "text": str(f)}
    return result, str(f), None


def _run_straighten(args) -> tuple[dict, str, Optional[str]]:
    try:
        comb = transfer.straighten_pair(args.d1, args.l1, args.d2, args.l2)
    except ValueError as e:
        raise UsageError(str(e)) from None
    regular = transfer.is_regular_pair(args.d1, args.l1, args.d2, args.l2)
    result = {
        "input": [[args.d1, args.l1], [args.d2, args.l2]],
        "regular": regular,
        "combination": gcombination_payload(comb),
        "text": gcombination_str(comb),
    }
    label = "regular (unchanged)" if regular else "straightened"
    human = f"g({args.d1},{args.l1})g({args.d2},{args.l2}) {label}: {gcombination_str(comb)}"
    return result, human, None


def _run_hooks(args) -> tuple[dict, str, Optional[str]]:
    parts = _parse_partition_arg(args.partition)
    profile = partitions.hook_leg_profile(parts)
    result = {
        "partition": list(parts),
        "entries": [
            {"hook": e.hook, "leg": e.leg, "increment": e.increment} for e in profile
        ],
    }
    pairs = " ".join(f"({e.hook},{e.leg})" for e in profile)
    incs = ",".join(str(e.increment) for e in profile)
    human = (
        f"partition {tuple(parts)}\n"
        f"hook/leg pairs: {pairs}\n"
        f"leg increments: {incs}"
    )
    return result, human, None


def _run_tmatrix(args) -> tuple[dict, str, Optional[str]]:
    d, ell = args.d, args.ell
    _require(d >= ell >= 1, f"need d >= ell >= 1, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    matrix = spectral.t_matrix(d, ell, basis=args.basis)
    if args.basis == "monomial":
        texts = [mono_str(m) for m in matrix.col_labels]
        labels = [mono_payload(m) for m in matrix.col_labels]
    else:
        texts = [gproduct_str(p) for p in matrix.col_labels]
        labels = [gproduct_payload(p) for p in matrix.col_labels]
    result = {
        "d": d,
        "ell": ell,
        "basis": args.basis,
        "labels": labels,
        "rows": [[fraction_str(v) for v in row] for row in matrix.entries],
    }
    lines = [f"matrix of the operator on ({d},{ell}), {args.basis} basis:"]
    lines.append("columns: " + ", ".join(texts))
    for row in matrix.entries:
        lines.append("  [" + ", ".join(_short_fraction(v) for v in row) + "]")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in matrix.entries:
        writer.writerow([_short_fraction(v) for v in row])
    return result, "\n".join(lines), buf.getvalue().rstrip("\n")


def _short_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# verification sweep

def _verify_checks(max_d: int) -> list[dict]:
    pairs = [(d, ell) for d in range(1, max_d + 1) for ell in range(1, d + 1)]
    checks: list[dict] = []

    def record(name: str, cases: int, failures: list[str]) -> None:
        checks.append(
            {
                "name": name,
                "status": "pass" if not failures else "fail",
                "cases": cases,
                "failures": failures,
            }
        )

    failures = []
    for d, ell in pairs:
        dim = partitions.count_partitions(d, ell)
        if not len(spectral.s_basis(d, ell)) == len(monomial_basis(d, ell)) == dim:
            failures.append(f"({d},{ell})")
    record("dimension agreement", len(pairs), failures)

    failures = []
    for d, ell in pairs:
        ok, _ = spectral.verify_triangular(d, ell)
        if not ok:
            failures.append(f"({d},{ell})")
    record("triangularity", len(pairs), failures)

    failures = []
    for d, ell in pairs:
        try:
            spectral.spectrum(d, ell)
            if not spectral.char_poly_check(d, ell):
                failures.append(f"({d},{ell}) characteristic polynomial")
        except ConsistencyError as e:
            failures.append(f"({d},{ell}) {e}")
    record("spectrum consistency", len(pairs), failures)

    failures = []
    for d, ell in pairs:
        if not spectral.verify_self_adjoint(d, ell):
            failures.append(f"({d},{ell})")
    record("self-adjointness", len(pairs), failures)

    failures = []
    for d, ell in pairs:
        lam = spectral.dominant_eigenvalue(d, ell)
        g = genfun.g_poly(d, ell)
        if transfer.apply_t(g) != g * lam:
            failures.append(f"({d},{ell}) eigenfunction")
        elif max(spectral.spectrum(d, ell).eigenvalues) != lam:
            failures.append(f"({d},{ell}) maximum")
    record("dominant eigenvalue", len(pairs), failures)

    failures = []
    for d, ell in pairs:
        if (0 in spectral.spectrum(d, ell).eigenvalues) != (d >= ell * ell):
            failures.append(f"({d},{ell})")
    record("zero-eigenvalue law", len(pairs), failures)

    failures = []
    products = 0
    for d, ell in pairs:
        for p in genfun.spanning_products(d, ell):
            products += 1
            direct = transfer.apply_t(genfun.g_product_expand(p))
            structural = genfun.expand_combination(transfer.apply_t_structural(p))
            if direct != structural:
                failures.append(f"product {gproduct_str(p)}")
    record("structural action agreement", products, failures)

    failures = []
    cases = 0
    for d in range(1, max_d + 1, 2):
        n = (d - 1) // 2
        for m in range(1, n + 1):
            for p in range(1, m + 1):
                for lp in range(2 * p - 1, 2 * m):
                    cases += 1
                    if not transfer.alternating_identity_residual(n, m, p, lp).is_zero():
                        failures.append(f"(n={n},m={m},p={p},lp={lp})")
    record("alternating identity residuals", cases, failures)

    return checks


def _run_verify(args) -> tuple[dict, str, Optional[str]]:
    _require(args.max_d >= 1, f"--max-d must be >= 1, got {args.max_d}")
    worst = max(
        partitions.count_partitions(d, ell)
        for d in range(1, args.max_d + 1)
        for ell in range(1, d + 1)
    )
    _require(
        worst <= args.max_dim,
        f"sweep up to d={args.max_d} needs dimension {worst}, above --max-dim {args.max_dim}",
    )
    checks = _verify_checks(args.max_d)
    all_passed = all(c["status"] == "pass" for c in checks)
    result = {"max_d": args.max_d, "checks": checks, "all_passed": all_passed}
    lines = []
    for c in checks:
        status = "PASS" if c["status"] == "pass" else "FAIL"
        lines.append(f"{c['name']:<32} {status}  ({c['cases']} cases)")
        for f in c["failures"]:
            lines.append(f"    failed: {f}")
    lines.append("all checks passed" if all_passed else "VERIFICATION FAILED")
    return result, "\n".join(lines), None


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable envelope output")
    fmt.add_argument("--csv", action="store_true", help="CSV output (matrices and spectra only)")
    common.add_argument(
        "--max-dim",
        type=int,
        default=DEFAULT_MAX_DIM,
        help=f"refuse components above this dimension (default {DEFAULT_MAX_DIM})",
    )

    parser = argparse.ArgumentParser(
        prog="fockspectra",
        description="Exact spectra of the degree/length-preserving operator on symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues on a component")
    p.add_argument("d", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--eigenvectors", action="store_true", help="include exact eigenvectors")
    p.set_defaults(run=_run_spectrum)

    p = sub.add_parser("basis", parents=[common], help="product basis with Young diagrams")
    p.add_argument("d", type=int)
    p.add_argument("ell", type=int)
    p.set_defaults(run=_run_basis)

    p = sub.add_parser("gpoly", parents=[common], help="the generator g(d, ell)")
    p.add_argument("d", type=int)
    p.add_argument("ell", type=int)
    p.set_defaults(run=_run_gpoly)

    p = sub.add_parser("straighten", parents=[common], help="rewrite a product of two generators")
    p.add_argument("d1", type=int)
    p.add_argument("l1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("l2", type=int)
    p.set_defaults(run=_run_straighten)

    p = sub.add_parser("hooks", parents=[common], help="diagonal hook/leg statistics of a partition")
    p.add_argument("partition", help="comma-separated weakly decreasing positive parts, e.g. 7,7,5,4,3,2")
    p.set_defaults(run=_run_hooks)

    p = sub.add_parser("tmatrix", parents=[common], help="matrix of the operator on a component")
    p.add_argument("d", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--basis", choices=["gbasis", "monomial"], default="gbasis")
    p.set_defaults(run=_run_tmatrix)

    p = sub.add_parser("verify", parents=[common], help="run the full verification sweep")
    p.add_argument("--max-d", type=int, default=8, dest="max_d")
    p.set_defaults(run=_run_verify)

    return parser


def _params_of(args: argparse.Namespace) -> dict:
    skip = {"command", "run", "json", "csv", "max_dim"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    envelope = {"command": args.command, "params": _params_of(args), "status": "ok"}
    try:
        result, human, csv_text = args.run(args)
    except (UsageError, ConsistencyError) as e:
        if args.json:
            envelope.update(status="fail", error=str(e))
            print(json.dumps(envelope, indent=2))
        else:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE if isinstance(e, UsageError) else EXIT_FAIL
    if args.csv:
        if csv_text is None:
            print("error: --csv is only available for spectrum and tmatrix", file=sys.stderr)
            return EXIT_USAGE
        print(csv_text)
    elif args.json:
        envelope["result"] = result
        print(json.dumps(envelope, indent=2))
    else:
        print(human)
    if args.command == "verify" and not result["all_passed"]:
        return EXIT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
