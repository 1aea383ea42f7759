"""Matrices of the operator T on bigraded components, exact spectra,
eigenfunctions, and the independent cross-checks.

The product basis is ordered descending ("larger degree first, then smaller
length", extended lexicographically), so the action of T sends each basis
element to itself plus strictly earlier elements and its matrix comes out
upper triangular; the diagonal carries the spectrum.  Eigenvalues are
computed from the index sequences by

    lambda = 1/2 * sum_i (l_i - 1)(2 d_i - l_i)

and cross-checked against that diagonal, and independently against the
characteristic polynomial of the monomial-basis matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from . import linalg
from .errors import ConsistencyError
from .genfun import GProduct, expand_combination, expand_in_gbasis, g_product_expand
from .partitions import admissible_sequences
from .poly import Monomial, Polynomial, inner_product, mono_norm_sq, monomial_basis
from .transfer import apply_t

BasisLabel = Union[Monomial, GProduct]


@dataclass(frozen=True)
class ExactMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[BasisLabel, ...]
    col_labels: tuple[BasisLabel, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


class SpectrumEntry(NamedTuple):
    eigenvalue: int
    sequence: GProduct
    eigenvector: Optional[Polynomial]


class Eigenfunction(NamedTuple):
    eigenvalue: int
    coords: tuple[Fraction, ...]  # in the product basis
    polynomial: Polynomial


class OrthogonalEigenfunction(NamedTuple):
    eigenvalue: int
    polynomial: Polynomial
    norm_squared: Fraction


@dataclass(frozen=True)
class SpectrumReport:
    d: int
    ell: int
    entries: tuple[SpectrumEntry, ...]
    dominant: int
    has_zero: bool

    @property
    def eigenvalues(self) -> tuple[int, ...]:
        return tuple(e.eigenvalue for e in self.entries)


def _require_component(d: int, ell: int) -> None:
    if not d >= ell >= 1:
        raise ValueError(f"need d >= ell >= 1, got ({d}, {ell})")


def s_basis(d: int, ell: int) -> tuple[GProduct, ...]:
    """The ordered product basis of the (d, ell) component; empty if invalid."""
    if not d >= ell >= 1:
        return ()
    return admissible_sequences(d, ell)


def sequence_eigenvalue(sequence: GProduct) -> int:
    """1/2 * sum (l_i - 1)(2 d_i - l_i); always a nonnegative integer."""
    twice = sum((ell - 1) * (2 * d - ell) for d, ell in sequence)
    if twice % 2 or twice < 0:
        raise ConsistencyError(f"eigenvalue formula gave {twice}/2 for {sequence}")
    return twice // 2


@lru_cache(maxsize=None)
def _t_matrix_entries(d: int, ell: int, basis: str) -> tuple[tuple[Fraction, ...], ...]:
    if basis == "monomial":
        monos = monomial_basis(d, ell)
        images = [apply_t(Polynomial({m: 1})) for m in monos]
        return tuple(tuple(f.coefficient(m) for f in images) for m in monos)
    if basis == "gbasis":
        products = s_basis(d, ell)
        cols = [expand_in_gbasis(apply_t(g_product_expand(p)), d, ell) for p in products]
        return tuple(tuple(col[i] for col in cols) for i in range(len(products)))
    raise ValueError(f"unknown basis {basis!r}; expected 'monomial' or 'gbasis'")


def t_matrix(d: int, ell: int, basis: str = "gbasis") -> ExactMatrix:
    """Matrix of T on the (d, ell) component; column j holds the coordinates
    of T applied to the j-th basis element."""
    _require_component(d, ell)
    entries = _t_matrix_entries(d, ell, basis)
    labels: tuple[BasisLabel, ...]
    labels = monomial_basis(d, ell) if basis == "monomial" else s_basis(d, ell)
    return ExactMatrix(entries=entries, row_labels=labels, col_labels=labels)


def verify_triangular(d: int, ell: int) -> tuple[bool, tuple[int, ...]]:
    """Check the product-basis matrix is upper triangular; return its diagonal."""
    _require_component(d, ell)
    entries = _t_matrix_entries(d, ell, "gbasis")
    n = len(entries)
    ok = all(not entries[i][j] for i in range(n) for j in range(i))
    diag = []
    for i in range(n):
        v = entries[i][i]
        diag.append(int(v) if v.denominator == 1 else v)
    return ok, tuple(diag)


def dominant_eigenvalue(d: int, ell: int) -> int:
    """(ell - 1)(2d - ell)/2, the largest eigenvalue on the component;
    its eigenfunction is g(d, ell)."""
    _require_component(d, ell)
    return (ell - 1) * (2 * d - ell) // 2


def has_zero_eigenvalue(d: int, ell: int) -> bool:
    """0 is an eigenvalue on the (d, ell) component exactly when d >= ell^2."""
    _require_component(d, ell)
    return d >= ell * ell


def spectrum(d: int, ell: int, with_eigenvectors: bool = False) -> SpectrumReport:
    """Exact spectrum on the (d, ell) component, eigenvalues ascending.

    The formula values are cross-checked against the diagonal of the
    triangular matrix; any disagreement raises ConsistencyError.
    """
    _require_component(d, ell)
    basis = s_basis(d, ell)
    values = [sequence_eigenvalue(p) for p in basis]
    ok, diag = verify_triangular(d, ell)
    if not ok:
        raise ConsistencyError(f"matrix on component ({d},{ell}) is not upper triangular")
    if sorted(values) != sorted(diag):
        raise ConsistencyError(
            f"eigenvalue formula {sorted(values)} disagrees with "
            f"matrix diagonal {sorted(diag)} on component ({d},{ell})"
        )
    order = sorted(range(len(basis)), key=lambda i: (values[i], i))
    vectors: dict[int, list[Polynomial]] = {}
    if with_eigenvectors:
        for fn in eigenbasis(d, ell):
            vectors.setdefault(fn.eigenvalue, []).append(fn.polynomial)
    entries = []
    for i in order:
        vec = vectors[values[i]].pop(0) if with_eigenvectors else None
        entries.append(SpectrumEntry(values[i], basis[i], vec))
    dominant = dominant_eigenvalue(d, ell)
    if max(values) != dominant:
        raise ConsistencyError(
            f"max eigenvalue {max(values)} != dominant formula {dominant} on ({d},{ell})"
        )
    zero_law = has_zero_eigenvalue(d, ell)
    if (0 in values) != zero_law:
        raise ConsistencyError(f"zero-eigenvalue law violated on component ({d},{ell})")
    return SpectrumReport(d=d, ell=ell, entries=tuple(entries), dominant=dominant, has_zero=zero_law)


def eigenbasis(d: int, ell: int) -> tuple[Eigenfunction, ...]:
    """Exact eigenvectors: for each eigenvalue, a kernel basis of (M - lambda I)
    on the product-basis matrix, expanded to polynomials."""
    _require_component(d, ell)
    basis = s_basis(d, ell)
    entries = _t_matrix_entries(d, ell, "gbasis")
    n = len(entries)
    values = [sequence_eigenvalue(p) for p in basis]
    out = []
    for lam in sorted(set(values)):
        shifted = [
            [entries[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)
        ]
        kernel = linalg.null_space(shifted)
        if len(kernel) != values.count(lam):
            raise ConsistencyError(
                f"eigenvalue {lam} on ({d},{ell}): kernel dimension {len(kernel)} "
                f"!= multiplicity {values.count(lam)}"
            )
        for vec in kernel:
            poly = expand_combination({p: c for c, p in zip(vec, basis) if c})
            out.append(Eigenfunction(lam, tuple(vec), poly))
    return tuple(out)


def orthogonal_eigenbasis(d: int, ell: int) -> tuple[OrthogonalEigenfunction, ...]:
    """Gram-Schmidt inside each eigenspace (no normalization; squared norms
    are reported exactly).  Distinct eigenspaces are verified orthogonal."""
    _require_component(d, ell)
    groups: dict[int, list[Polynomial]] = {}
    for fn in eigenbasis(d, ell):
        groups.setdefault(fn.eigenvalue, []).append(fn.polynomial)
    out: list[OrthogonalEigenfunction] = []
    for lam in sorted(groups):
        done: list[tuple[Polynomial, Fraction]] = []
        for vec in groups[lam]:
            w = vec
            for u, u_norm_sq in done:
                c = inner_product(w, u) / u_norm_sq
                if c:
                    w = w - u * c
            norm_sq = inner_product(w, w)
            if norm_sq <= 0:
                raise ConsistencyError(
                    f"Gram-Schmidt produced squared norm {norm_sq} on ({d},{ell})"
                )
            done.append((w, norm_sq))
            out.append(OrthogonalEigenfunction(lam, w, norm_sq))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i].eigenvalue != out[j].eigenvalue:
                if inner_product(out[i].polynomial, out[j].polynomial):
                    raise ConsistencyError(
                        f"eigenfunctions for {out[i].eigenvalue} and "
                        f"{out[j].eigenvalue} are not orthogonal on ({d},{ell})"
                    )
    return tuple(out)


def verify_self_adjoint(d: int, ell: int) -> bool:
    """Check M^T G = G M exactly, with M the monomial-basis matrix of T and
    G the diagonal Gram matrix of the monomial basis."""
    _require_component(d, ell)
    entries = _t_matrix_entries(d, ell, "monomial")
    weights = [mono_norm_sq(m) for m in monomial_basis(d, ell)]
    n = len(entries)
    return all(
        entries[j][i] * weights[j] == weights[i] * entries[i][j]
        for i in range(n)
        for j in range(n)
    )


def char_poly_check(d: int, ell: int) -> bool:
    """Compare the characteristic polynomial of the monomial-basis matrix
    with the product of (x - lambda) over the spectrum."""
    _require_component(d, ell)
    entries = _t_matrix_entries(d, ell, "monomial")
    actual = linalg.char_poly([list(row) for row in entries])
    expected = linalg.poly_from_roots(
        [Fraction(v) for v in spectrum(d, ell).eigenvalues]
    )
    return actual == expected
