"""Command-line front end.

Subcommands: spectrum, basis, gpoly, straighten, hooks, tmatrix, verify.
Each request renders only the form it prints.  Output is deterministic: fixed
key order, rationals as "numerator/denominator" strings, monomials as sorted
[variable, exponent] pairs, generator products as [degree, length] pairs in
basis order; JSON as json.dumps(indent=2) writes it.  Exit codes: 0 success, 1
verification or internal consistency failure, 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import genfun, partitions, spectral, transfer
from .errors import ConsistencyError
from .genfun import GCombination, gcombination_str, gproduct_str
from .poly import Polynomial, Scalar, mono_norm_sq, mono_str, monomial_basis, rational_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_MAX_DIM = 2000
TABLE_CELLS = 10**7  # partition-table cells a guard fills before a closed-form bound may refuse
RESOURCE_ERRORS = (MemoryError, OverflowError, RecursionError)
_SCALARS = {int, str, bool, type(None)}  # a container of these alone takes one C encoder call


class UsageError(Exception):
    """Invalid parameters or a request beyond the configured resource limit."""


# ---------------------------------------------------------------------------
# serialization (stable JSON payloads)

def fraction_str(q: Scalar) -> str:
    return f"{q.numerator}/{q.denominator}"


def poly_payload(f: Polynomial) -> list[list]:
    return [[m, fraction_str(c)] for m, c in f.terms()]


def gcombination_payload(comb: GCombination) -> list[list]:
    ordered = sorted(comb, key=partitions.product_sort_key)
    return [[p, fraction_str(comb[p])] for p in ordered]


def _dumps(value) -> str:
    """json.dumps(value, indent=2) byte for byte; json's C encoder writes each container of scalars."""
    if (make := json.encoder.c_make_encoder) is None:
        return json.dumps(value, indent=2)
    fixed, levels = (None, json.JSONEncoder().default, encode_basestring_ascii, None), {}  # no cycle check

    def dump(v, depth: int) -> str:
        if depth not in levels:  # json.dumps's C encoder, the depth's indentation in its separator
            pad = "\n" + "  " * (depth + 1)
            levels[depth] = make(*fixed, ": ", "," + pad, False, False, True), pad, "," + pad, pad[:-2]
        encoder, pad, comma, close = levels[depth]
        if not isinstance(v, (dict, list, tuple)) or not v:  # a scalar, "[]" or "{}"
            return "".join(encoder(v, depth))
        is_dict = isinstance(v, dict)
        if is_dict and not {str}.issuperset(map(type, v)):
            raise TypeError("keys must be str")  # json.dumps would print other keys as strings
        if _SCALARS.issuperset(map(type, v.values() if is_dict else v)):
            body = "".join(encoder(v, depth))[1:-1]
        elif is_dict:
            body = comma.join([encode_basestring_ascii(k) + ": " + dump(x, depth + 1) for k, x in v.items()])
        else:
            body = comma.join([dump(x, depth + 1) for x in v])
        return ("{" if is_dict else "[") + pad + body + close + ("}" if is_dict else "]")

    return dump(value, 0)


# ---------------------------------------------------------------------------
# command helpers

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _dimension(d: int, ell: int, max_dim: int, cells: int) -> tuple[int, bool]:
    """The dimension of component (d, ell) and whether it is exact.

    With n = d - ell, partitions of n into parts <= 1, 2 or 3 number 1,
    n // 2 + 1 and round((n + 3)^2 / 12).  The first two count ell = 1, 2
    exactly.  The third bounds larger ell from below, and stands in for the
    count when it is above max_dim and counting would fill more than
    TABLE_CELLS table cells.
    """
    n = d - ell
    if 1 <= ell <= 2 and n >= 0:
        return (1 if ell == 1 else n // 2 + 1), True
    bound = ((n + 3) ** 2 + 6) // 12
    if ell >= 3 and n >= 0 and cells > TABLE_CELLS and bound > max_dim:
        return bound, False
    return partitions.count_partitions(d, ell), True


def _guard_dimension(d: int, ell: int, max_dim: int) -> None:
    n = d - ell
    dim, exact = _dimension(d, ell, max_dim, n * min(ell, n))
    _require(
        dim <= max_dim,
        f"component ({d},{ell}) has dimension {'' if exact else 'at least '}{dim}, "
        f"above the --max-dim limit {max_dim}",
    )


def _component(args) -> tuple[int, int]:
    d, ell = args.d, args.ell
    _require(d >= ell >= 1, f"need d >= ell >= 1, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    return d, ell


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _parse_partition_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError as e:
        raise UsageError(f"cannot parse partition {text!r}: {e}") from None
    try:
        return partitions.check_partition(parts)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _run_spectrum(args) -> tuple:
    d, ell = _component(args)
    report = spectral.spectrum(d, ell, with_eigenvectors=args.eigenvectors and not args.csv)  # CSV shows none

    def result() -> dict:
        entries = []
        for e in report.entries:
            item = {"eigenvalue": e.eigenvalue, "sequence": e.sequence}
            if args.eigenvectors:
                item["eigenvector"] = poly_payload(e.eigenvector)
            entries.append(item)
        return {"d": d, "ell": ell, "eigenvalues": list(report.eigenvalues), "dominant": report.dominant,
                "has_zero": report.has_zero, "entries": entries}

    def human() -> str:
        lines = [
            f"spectrum on component ({d},{ell}): {list(report.eigenvalues)}",
            f"dominant eigenvalue: {report.dominant}",
            f"zero eigenvalue: {'yes' if report.has_zero else 'no'}",
        ]
        for e in report.entries:
            lines.append(f"  {e.eigenvalue:>6}  {gproduct_str(e.sequence)}")
            if args.eigenvectors:
                lines.append(f"          eigenvector: {e.eigenvector}")
        return "\n".join(lines)

    rows = ([e.eigenvalue, gproduct_str(e.sequence)] for e in report.entries)  # rendered only if read
    return EXIT_OK, result, human, lambda: _csv([["eigenvalue", "sequence"], *rows])


def _run_basis(args) -> tuple:
    d, ell = _component(args)
    basis = spectral.s_basis(d, ell)
    diagrams = [partitions.profile_to_partition(p) for p in basis]

    def result() -> dict:
        entries = [{"product": p, "partition": list(ps)} for p, ps in zip(basis, diagrams)]
        return {"d": d, "ell": ell, "size": len(basis), "entries": entries}

    def human() -> str:
        lines = [f"basis of component ({d},{ell}), {len(basis)} elements:"]
        lines += (f"  {gproduct_str(p)}  <->  partition {parts}" for p, parts in zip(basis, diagrams))
        return "\n".join(lines)

    return EXIT_OK, result, human


def _run_gpoly(args) -> tuple:
    d, ell = args.d, args.ell
    _require(d >= 0 and ell >= 0, f"need d, ell >= 0, got ({d}, {ell})")
    _guard_dimension(d, ell, args.max_dim)
    f = genfun.g_poly(d, ell)
    text = str(f)  # in both forms; costly for a coefficient of many digits
    return EXIT_OK, lambda: {"d": d, "ell": ell, "polynomial": poly_payload(f), "text": text}, lambda: text


def _run_straighten(args) -> tuple:
    regular = partitions.is_regular_pair(args.d1, args.l1, args.d2, args.l2)
    if not regular:  # an irregular pair is solved on the component of the product
        _guard_dimension(args.d1 + args.d2, args.l1 + args.l2, args.max_dim)
    try:
        comb = transfer.straighten_pair(args.d1, args.l1, args.d2, args.l2)
    except ValueError as e:
        raise UsageError(str(e)) from None
    text = gcombination_str(comb)  # in both forms
    label = "regular (unchanged)" if regular else "straightened"
    pair = [[args.d1, args.l1], [args.d2, args.l2]]
    return (
        EXIT_OK,
        lambda: {"input": pair, "regular": regular, "combination": gcombination_payload(comb), "text": text},
        lambda: f"g({args.d1},{args.l1})g({args.d2},{args.l2}) {label}: {text}",
    )


def _run_hooks(args) -> tuple:
    parts = _parse_partition_arg(args.partition)
    profile = partitions.hook_leg_profile(parts)

    def result() -> dict:
        entries = [{"hook": e.hook, "leg": e.leg, "increment": e.increment} for e in profile]
        return {"partition": list(parts), "entries": entries}

    def human() -> str:
        pairs = " ".join(f"({e.hook},{e.leg})" for e in profile)
        incs = ",".join(str(e.increment) for e in profile)
        return f"partition {tuple(parts)}\nhook/leg pairs: {pairs}\nleg increments: {incs}"

    return EXIT_OK, result, human


def _run_tmatrix(args) -> tuple:
    d, ell = _component(args)
    columns = spectral._t_matrix_entries(d, ell, args.basis)  # as spectral.t_matrix reads them
    labels = spectral.basis_labels(d, ell, args.basis)
    label = mono_str if args.basis == "monomial" else gproduct_str

    def rows(render) -> list[list[str]]:  # one shared zero string; ints render as Fractions do
        zero = render(0)
        out = [[zero] * len(columns) for _ in columns]
        for j, column in enumerate(columns):
            for i, c in column:
                out[i][j] = render(c)
        return out

    def result() -> dict:
        return {"d": d, "ell": ell, "basis": args.basis, "labels": list(labels), "rows": rows(fraction_str)}

    def human() -> str:
        lines = [f"matrix of the operator on ({d},{ell}), {args.basis} basis:"]
        lines.append("columns: " + ", ".join(label(c) for c in labels))
        lines += ("  [" + ", ".join(row) + "]" for row in rows(rational_str))
        return "\n".join(lines)

    return EXIT_OK, result, human, lambda: _csv(rows(rational_str))


# ---------------------------------------------------------------------------
# verification sweep

def _verify_checks(max_d: int) -> list[dict]:
    pairs = [(d, ell) for d in range(1, max_d + 1) for ell in range(1, d + 1)]
    eigenvalues = {}  # of each component whose spectrum did not raise

    def component_check(holds):  # a failure names only the component
        return lambda d, ell: None if holds(d, ell) else f"({d},{ell})"

    def same_dimension(d, ell):
        dim = partitions.count_partitions(d, ell)
        return len(spectral.s_basis(d, ell)) == len(monomial_basis(d, ell)) == dim

    def spectrum(d, ell):
        try:
            eigenvalues[d, ell] = spectral.spectrum(d, ell).eigenvalues
            if not spectral.char_poly_check(d, ell):
                return f"({d},{ell}) characteristic polynomial"
        except ConsistencyError as e:
            return f"({d},{ell}) {e}"

    def dominant(d, ell):
        lam = spectral.dominant_eigenvalue(d, ell)
        g = genfun.g_poly(d, ell)
        if transfer.apply_t(g) != g * lam:
            return f"({d},{ell}) eigenfunction"
        if (d, ell) not in eigenvalues or max(eigenvalues[d, ell]) != lam:
            return f"({d},{ell}) maximum"

    def zero_law(d, ell):
        return (d, ell) in eigenvalues and (0 in eigenvalues[d, ell]) == (d >= ell * ell)

    def exact_quotient(a, b):  # an int when b divides a
        return Fraction(a, b) if a % b else a // b

    def coordinates():  # one component at a time: its products, with its state built once, dropped at the next
        for d, ell in pairs:  # K[r, m] = N(r) M[r, m] / N(m) on monomial indices, N = mono_norm_sq; never rounded
            monos = monomial_basis(d, ell)
            index, norms = {m: i for i, m in enumerate(monos)}, [mono_norm_sq(m) for m in monos]
            image_of = [[(i, exact_quotient(norms[i] * c, nm)) for i, c in column]
                        for nm, column in zip(norms, spectral._t_matrix_entries(d, ell, "monomial"))]
            expanded = {}  # product: its scaled expansion F as (index, int) pairs, from its first use

            def scaled(q):
                if q not in expanded:
                    expanded[q] = [(index[m], f) for m, f in genfun._expand_canonical(q).items()]
                return expanded[q]

            for p in genfun.spanning_products(d, ell):
                yield p, len(monos), image_of, scaled

    def structural(p, n, image_of, scaled):  # sum of F_m K[., m] over p's terms, against sum of c F_q over T(p)
        direct, closed = [0] * n, [0] * n
        for m, f in scaled(p):
            for r, k in image_of[m]:
                direct[r] += f * k
        for q, c in transfer._t_structural(p).items():
            for r, f in scaled(q):
                closed[r] += c * f
        if direct != closed:
            return f"product {gproduct_str(p)}"

    def alternating(n, m, p, lp):
        if not transfer.alternating_identity_residual(n, m, p, lp).is_zero():
            return f"(n={n},m={m},p={p},lp={lp})"

    residuals = (
        (n, m, p, lp)
        for n in range((max_d + 1) // 2)  # n = (d - 1) // 2 for each odd d <= max_d
        for m in range(1, n + 1)
        for p in range(1, m + 1)
        for lp in range(2 * p - 1, 2 * m)
    )
    table = [
        ("dimension agreement", pairs, component_check(same_dimension)),
        ("triangularity", pairs, component_check(lambda *c: spectral.verify_triangular(*c)[0])),
        ("spectrum consistency", pairs, spectrum),
        ("self-adjointness", pairs, component_check(spectral.verify_self_adjoint)),
        ("dominant eigenvalue", pairs, dominant),
        ("zero-eigenvalue law", pairs, component_check(zero_law)),
        ("structural action agreement", coordinates(), structural),
        ("alternating identity residuals", residuals, alternating),
    ]
    checks = []
    for name, cases, failure in table:  # cases may be generators, consumed once
        results = [failure(*case) for case in cases]
        failures = [f for f in results if f]
        status = "pass" if not failures else "fail"
        checks.append({"name": name, "status": status, "cases": len(results), "failures": failures})
    return checks


def _run_verify(args) -> tuple[dict, str]:
    d = args.max_d
    _require(d >= 1, f"--max-d must be >= 1, got {d}")
    # partitions of (d, ell) embed in (d + 1, ell) by adding 1 to the largest part, so use
    # d = max_d; counting every ell there fills about d^3 / 4 table cells, so (d, 3) may refuse
    worst, exact = _dimension(d, min(d, 3), args.max_dim, d**3 // 4)
    if exact:
        worst = max(partitions.count_partitions(d, ell) for ell in range(1, d + 1))
    _require(
        worst <= args.max_dim,
        f"sweep up to d={d} needs dimension {'' if exact else 'at least '}{worst}, "
        f"above --max-dim {args.max_dim}",
    )
    checks = _verify_checks(d)
    all_passed = all(c["status"] == "pass" for c in checks)

    def human() -> str:
        lines = []
        for c in checks:
            status = "PASS" if c["status"] == "pass" else "FAIL"
            lines.append(f"{c['name']:<32} {status}  ({c['cases']} cases)")
            for f in c["failures"]:
                lines.append(f"    failed: {f}")
        lines.append("all checks passed" if all_passed else "VERIFICATION FAILED")
        return "\n".join(lines)

    code = EXIT_OK if all_passed else EXIT_FAIL
    return code, lambda: {"max_d": d, "checks": checks, "all_passed": all_passed}, human


# ---------------------------------------------------------------------------
# parser and dispatch

_COMMANDS = (  # name, runner, help, integer positionals, whether the runner also returns a CSV form
    ("spectrum", _run_spectrum, "eigenvalues on a component", ("d", "ell"), True),
    ("basis", _run_basis, "product basis with Young diagrams", ("d", "ell"), False),
    ("gpoly", _run_gpoly, "the generator g(d, ell)", ("d", "ell"), False),
    ("straighten", _run_straighten, "rewrite a product of two generators", ("d1", "l1", "d2", "l2"), False),
    ("hooks", _run_hooks, "diagonal hook/leg statistics of a partition", (), False),
    ("tmatrix", _run_tmatrix, "matrix of the operator on a component", ("d", "ell"), True),
    ("verify", _run_verify, "run the full verification sweep", (), False),
)
CSV_COMMANDS = tuple(name for name, *_, has_csv in _COMMANDS if has_csv)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:  # argparse's swallows a closed stdout's OSError; this raises it in main
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged.
    Its commands attribute maps each command name to that command's own parser."""
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

    parser = _Parser(
        prog="fockspectra",
        description="Exact spectra of the degree/length-preserving operator on symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands = {}
    for name, run, help, int_positionals, _ in _COMMANDS:
        p = commands[name] = sub.add_parser(name, parents=[common], help=help)
        for dest in int_positionals:
            p.add_argument(dest, type=int)
        p.set_defaults(run=run)
    commands["spectrum"].add_argument("--eigenvectors", action="store_true", help="include exact eigenvectors")
    commands["hooks"].add_argument("partition",
                                   help="comma-separated weakly decreasing positive parts, e.g. 7,7,5,4,3,2")
    commands["tmatrix"].add_argument("--basis", choices=["gbasis", "monomial"], default="gbasis")
    commands["verify"].add_argument("--max-d", type=int, default=8, dest="max_d")
    return parser


def _params_of(args: argparse.Namespace) -> dict:
    skip = {"command", "run", "json", "csv", "max_dim"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    limit = sys.get_int_max_str_digits()
    # One parse per request.  The top-level parser has only -h, and its subparsers action (nargs PARSER) hands every
    # token after the command name to that command's parser, so called directly it parses the same tokens.  An empty
    # list, -h, an unknown command or leftover tokens go to the top-level parser for its usage, help and errors.
    try:
        own = build_parser().commands.get(argv[0]) if argv else None  # the command's own parser
        args, rest = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if own else (None, None)
        if own is None or rest:
            args = build_parser().parse_args(argv)  # integer arguments keep Python's digit limit
        sys.set_int_max_str_digits(0)  # exact results print in full, however many digits they have
        code = _answer(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: what is left goes to devnull, as Python's signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


def _answer(args: argparse.Namespace) -> int:
    if args.csv and args.command not in CSV_COMMANDS:  # refused before any work
        print(f"error: --csv is only available for {' and '.join(CSV_COMMANDS)}", file=sys.stderr)
        return EXIT_USAGE
    envelope = {"command": args.command, "params": _params_of(args), "status": "ok"}
    try:  # a runner computes its data; only the form printed is rendered, here
        code, *forms = args.run(args)  # exit code; renderers of payload, text and, if any, CSV
        out = _dumps({**envelope, "result": forms[0]()}) if args.json else forms[2 if args.csv else 1]()
    except (UsageError, ConsistencyError, *RESOURCE_ERRORS) as e:
        text = str(e)
        if isinstance(e, RESOURCE_ERRORS):
            text = ": ".join(filter(None, ["resource error", type(e).__name__, text]))
        if args.json:
            envelope.update(status="fail", error=text)
            print(_dumps(envelope))
        else:
            print(f"error: {text}", file=sys.stderr)
        return EXIT_FAIL if isinstance(e, ConsistencyError) else EXIT_USAGE
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
