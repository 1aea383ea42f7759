"""Matrices of the operator T on bigraded components, exact spectra,
eigenfunctions, and the independent cross-checks.

The product basis is ordered descending ("larger degree first, then smaller
length", extended lexicographically), so the action of T sends each basis
element to itself plus strictly earlier elements and its matrix comes out
upper triangular; the diagonal carries the spectrum.  Both matrices of T
are held in T's own integer coefficients, in sparse columns, and wrapped as
Fractions only at the public edge.  The product-basis one is built without
expanding products into monomials: the closed forms of T on the basis
products, straightened into the basis together
(genfun.straighten_combinations), whose only linear solves are those of the
distinct irregular pairs, on the products with at most two factors of each
pair's component.  Eigenvalues are computed from the index
sequences by

    lambda = 1/2 * sum_i (l_i - 1)(2 d_i - l_i)

and certified against that diagonal position by position, and independently
against the characteristic polynomial of the monomial-basis matrix.  The
eigenvectors are read off the certified triangular matrix by
back-substitution, one per basis position.  Gram-Schmidt inside each eigenspace
works on one integer form A = D w per eigenfunction w, cleared of denominators,
and every pair of results is checked orthogonal on those forms: sum_m A_m B_m mono_norm_sq(m) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Union

from . import linalg
from .errors import ConsistencyError
from .genfun import GProduct, expand_combination, straighten_combinations
from .partitions import admissible_sequences
from .poly import Monomial, Polynomial, mono_norm_sq, monomial_basis
from .transfer import _t_monomial, _t_structural

BasisLabel = Union[Monomial, GProduct]


class ExactMatrix(NamedTuple):
    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[BasisLabel, ...]
    col_labels: tuple[BasisLabel, ...]


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


class SpectrumReport(NamedTuple):
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


def basis_labels(d: int, ell: int, basis: str) -> tuple[BasisLabel, ...]:
    """The labels of the named basis of the (d, ell) component: "monomial" or "gbasis"."""
    if basis == "monomial":
        return monomial_basis(d, ell)
    if basis == "gbasis":
        return s_basis(d, ell)
    raise ValueError(f"unknown basis {basis!r}; expected 'monomial' or 'gbasis'")


@lru_cache(maxsize=None)  # read again by t_matrix, spectrum, eigenbasis and the verify checks
def _t_matrix_entries(d: int, ell: int, basis: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """T on the (d, ell) component in ints, as sparse columns: column j holds a
    (row index, value) pair per nonzero entry of T of the j-th basis element, rows ascending."""
    labels = basis_labels(d, ell, basis)
    images = map(_t_monomial, labels) if basis == "monomial" else straighten_combinations([*map(_t_structural, labels)])
    index = {label: i for i, label in enumerate(labels)}
    return tuple(tuple(sorted((index[r], c) for r, c in image.items())) for image in images)


def _dense_rows(columns: tuple[tuple[tuple[int, int], ...], ...], entry) -> list[list]:
    """The sparse int columns of _t_matrix_entries as dense rows: entry(c) at
    each nonzero c and one shared entry(0) everywhere else."""
    zero = entry(0)
    rows = [[zero] * len(columns) for _ in columns]
    for j, column in enumerate(columns):
        for i, c in column:
            rows[i][j] = entry(c)
    return rows


def t_matrix(d: int, ell: int, basis: str = "gbasis") -> ExactMatrix:
    """Matrix of T on the (d, ell) component; column j holds the coordinates
    of T applied to the j-th basis element."""
    _require_component(d, ell)
    rows = _dense_rows(_t_matrix_entries(d, ell, basis), Fraction)
    labels = basis_labels(d, ell, basis)
    return ExactMatrix(entries=tuple(map(tuple, rows)), row_labels=labels, col_labels=labels)


def verify_triangular(d: int, ell: int) -> tuple[bool, tuple[Union[int, Fraction], ...]]:
    """Check the product-basis matrix is upper triangular; return its diagonal."""
    _require_component(d, ell)
    columns = _t_matrix_entries(d, ell, "gbasis")
    ok = all(i <= j for j, column in enumerate(columns) for i, _ in column)
    return ok, tuple(next((c for i, c in column if i == j), 0) for j, column in enumerate(columns))


def dominant_eigenvalue(d: int, ell: int) -> int:
    """(ell - 1)(2d - ell)/2, the largest eigenvalue on the component;
    its eigenfunction is g(d, ell)."""
    _require_component(d, ell)
    return (ell - 1) * (2 * d - ell) // 2


def has_zero_eigenvalue(d: int, ell: int) -> bool:
    """0 is an eigenvalue on the (d, ell) component exactly when d >= ell^2."""
    _require_component(d, ell)
    return d >= ell * ell


def _certified_spectrum(d: int, ell: int) -> tuple[tuple[GProduct, ...], list[int], list[int]]:
    """The basis, the formula eigenvalue at each basis position, and the
    positions in spectrum order, once the product-basis matrix is certified
    upper triangular with exactly those values on its diagonal."""
    _require_component(d, ell)
    basis = s_basis(d, ell)
    values = [sequence_eigenvalue(p) for p in basis]
    ok, diag = verify_triangular(d, ell)
    if not ok:
        raise ConsistencyError(f"matrix on component ({d},{ell}) is not upper triangular")
    if values != list(diag):
        raise ConsistencyError(
            f"eigenvalue formula {values} disagrees with "
            f"matrix diagonal {list(diag)} on component ({d},{ell})"
        )
    return basis, values, sorted(range(len(basis)), key=lambda i: (values[i], i))


def spectrum(d: int, ell: int, with_eigenvectors: bool = False) -> SpectrumReport:
    """Exact spectrum on the (d, ell) component, eigenvalues ascending.

    The formula values are cross-checked against the diagonal of the
    triangular matrix, position by position; any disagreement raises
    ConsistencyError.
    """
    basis, values, order = _certified_spectrum(d, ell)
    vectors = [fn.polynomial for fn in eigenbasis(d, ell)] if with_eigenvectors else [None] * len(basis)
    entries = tuple(SpectrumEntry(values[i], basis[i], vec) for i, vec in zip(order, vectors))
    dominant = dominant_eigenvalue(d, ell)
    if max(values) != dominant:
        raise ConsistencyError(f"max eigenvalue {max(values)} != dominant formula {dominant} on ({d},{ell})")
    zero_law = has_zero_eigenvalue(d, ell)
    if (0 in values) != zero_law:
        raise ConsistencyError(f"zero-eigenvalue law violated on component ({d},{ell})")
    return SpectrumReport(d=d, ell=ell, entries=entries, dominant=dominant, has_zero=zero_law)


def eigenbasis(d: int, ell: int) -> tuple[Eigenfunction, ...]:
    """Exact eigenvectors in spectrum's order, by back-substitution on the
    certified triangular product-basis matrix U, expanded to polynomials.

    The vector for a position k with U_kk = lambda is 1 at k and 0 at the
    other lambda-positions and after k; each earlier entry i is
    sum_{i<j<=k} U_ij v_j / (lambda - U_ii), summed column by column from
    the int columns of U.  These are the reduced kernel vectors of
    U - lambda I.  A nonzero sum on a row with U_ii = lambda means lambda is
    defective and raises ConsistencyError."""
    basis, values, order = _certified_spectrum(d, ell)
    columns = _t_matrix_entries(d, ell, "gbasis")
    out = []
    for k in order:
        lam = values[k]
        vec = [Fraction(0)] * len(basis)
        vec[k] = Fraction(1)
        acc = [Fraction(0)] * (k + 1)  # acc[i]: sum of U_ij v_j over the positions j done so far
        for j in reversed(range(k + 1)):
            if values[j] != lam:
                vec[j] = acc[j] / (lam - values[j])
            elif acc[j]:
                raise ConsistencyError(f"eigenvalue {lam} on ({d},{ell}) is defective")
            for i, c in columns[j] if vec[j] else ():  # rows i <= j; acc[j] is read already
                acc[i] += c * vec[j]
        poly = expand_combination({p: c for c, p in zip(vec, basis) if c})
        out.append(Eigenfunction(lam, tuple(vec), poly))
    return tuple(out)


def orthogonal_eigenbasis(d: int, ell: int) -> tuple[OrthogonalEigenfunction, ...]:
    """Gram-Schmidt inside each eigenspace (no normalization; squared norms are
    exact) on one integer form per eigenfunction w: A = s w on the component's
    monomials, s the least common denominator of w.  Every pair of results is then
    checked orthogonal on the same forms: sum_m A_m B_m mono_norm_sq(m) = 0."""
    _require_component(d, ell)
    monos = monomial_basis(d, ell)
    weights = [mono_norm_sq(m) for m in monos]
    forms, out = [], []  # forms: (eigenvalue, A, A weighted by mono_norm_sq, <A, A>)
    for fn in eigenbasis(d, ell):
        coeffs = [fn.polynomial.coefficient(m) for m in monos]
        s = lcm(*(c.denominator for c in coeffs))
        a = [c.numerator * (s // c.denominator) for c in coeffs]
        for _, b, b_weighted, b_sq in (f for f in forms if f[0] == fn.eigenvalue):
            # A/s less its projection on B is (<B,B> A - <A,B> B) / (<B,B> s)
            a_b = sum(map(mul, a, b_weighted))
            a = [b_sq * p - a_b * q for p, q in zip(a, b)]
            s *= b_sq
            g = gcd(s, *a)
            s, a = s // g, [p // g for p in a]
        a_weighted = list(map(mul, a, weights))
        a_sq = sum(map(mul, a, a_weighted))
        if not a_sq:
            raise ConsistencyError(f"Gram-Schmidt produced squared norm 0 on ({d},{ell})")
        forms.append((fn.eigenvalue, a, a_weighted, a_sq))
        poly = Polynomial._of({m: Fraction(p, s) for m, p in zip(monos, a) if p})
        out.append(OrthogonalEigenfunction(fn.eigenvalue, poly, Fraction(a_sq, s * s)))
    for (lam, _, weighted, _), (mu, b, _, _) in combinations(forms, 2):
        if sum(map(mul, weighted, b)):
            raise ConsistencyError(f"eigenfunctions for {lam} and {mu} are not orthogonal on ({d},{ell})")
    return tuple(out)


def verify_self_adjoint(d: int, ell: int) -> bool:
    """Check M^T G = G M exactly, M the monomial-basis matrix of T and G the diagonal Gram
    matrix N = mono_norm_sq: N_i M_ij = N_j M_ji over the nonzero entries of either side."""
    _require_component(d, ell)
    weights = [mono_norm_sq(m) for m in monomial_basis(d, ell)]
    columns = _t_matrix_entries(d, ell, "monomial")
    weighted = {(i, j): weights[i] * c for j, column in enumerate(columns) for i, c in column}
    return all(weighted.get((j, i), 0) == w for (i, j), w in weighted.items())


def char_poly_check(d: int, ell: int) -> bool:
    """Compare the characteristic polynomial of the monomial-basis matrix
    with the product of (x - lambda) over the formula eigenvalues of the
    basis; neither side goes through the product-basis matrix."""
    _require_component(d, ell)
    rows = _dense_rows(_t_matrix_entries(d, ell, "monomial"), lambda c: c)
    return linalg.char_poly(rows) == linalg.poly_from_roots([sequence_eigenvalue(p) for p in s_basis(d, ell)])
