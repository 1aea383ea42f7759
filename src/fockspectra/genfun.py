"""The bihomogeneous generators g(d, l), products of them, and basis expansion.

g(d, l) is the coefficient of r^l z^d in exp(r * (x_1 z + x_2 z^2 + ...)).
Extracting that coefficient directly gives the closed form used here:

    g(d, l) = sum over partitions of d with l parts of
              x_{p1} x_{p2} ... / (product of part-multiplicity factorials),

with g(0, 0) = 1 and g(d, l) = 0 unless d >= l >= 1.  Products of these
generators indexed by admissible sequences form a basis of each bigraded
component.  expand_in_gbasis computes exact coordinates in that basis by
solving E c = v, where v holds the monomial coefficients and column j of the
expansion matrix E those of the j-th basis product; E is factorised once per
component by a sparse LU (linalg.lu_factor) and solved once per vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import linalg
from .errors import ConsistencyError, SingularMatrixError
from .partitions import admissible_sequences, pair_sort_key, partitions_with_length, product_sort_key
from .poly import Polynomial, bidegree, combination_str, mono_norm_sq, monomial_basis, partition_monomial

GIndex = tuple[int, int]
GProduct = tuple[GIndex, ...]
GCombination = dict[GProduct, Fraction]


def g_value_is_zero(d: int, ell: int) -> bool:
    """Single source of truth for when g(d, l) vanishes."""
    return not (d == ell == 0 or d >= ell >= 1)


@lru_cache(maxsize=None)
def g_poly(d: int, ell: int) -> Polynomial:
    if g_value_is_zero(d, ell):
        return Polynomial.zero()
    if d == 0:
        return Polynomial.one()
    terms = {}
    for parts in partitions_with_length(d, ell):
        m = partition_monomial(parts)
        terms[m] = Fraction(1, mono_norm_sq(m))
    return Polynomial(terms)


def nonzero_factors(factors: Iterable[GIndex]) -> list[GIndex]:
    """The factors in the order given, with g(0,0) dropped; a factor that is
    identically zero raises ValueError."""
    kept = []
    for d, ell in factors:
        if d == ell == 0:
            continue
        if g_value_is_zero(d, ell):
            raise ValueError(f"factor g({d},{ell}) is identically zero")
        kept.append((d, ell))
    return kept


def canonical_product(factors: Iterable[GIndex]) -> GProduct:
    """Canonical form of a factor sequence: its nonzero_factors sorted with
    larger degree (then smaller length) first."""
    return tuple(sorted(nonzero_factors(factors), key=pair_sort_key))


@lru_cache(maxsize=None)
def _expand_canonical(product: GProduct) -> Polynomial:
    out = Polynomial.one()
    for d, ell in product:
        out = out * g_poly(d, ell)
    return out


def g_product_expand(factors: Iterable[GIndex]) -> Polynomial:
    """The polynomial g(d1,l1) * g(d2,l2) * ... (1 for the empty product)."""
    return _expand_canonical(canonical_product(factors))


def expand_combination(comb: GCombination) -> Polynomial:
    out = Polynomial.zero()
    for product, c in comb.items():
        out = out + g_product_expand(product) * c
    return out


def complete_symmetric(k: int) -> Polynomial:
    """h_k = sum over l <= k of g(k, l), in the x coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = Polynomial.zero()
    for ell in range(1, k + 1):
        out = out + g_poly(k, ell)
    return out


def elementary_symmetric(k: int) -> Polynomial:
    """e_k = sum over l <= k of (-1)^(k+l) g(k, l), in the x coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = Polynomial.zero()
    for ell in range(1, k + 1):
        out = out + g_poly(k, ell) * ((-1) ** (k + ell))
    return out


def spanning_products(d: int, ell: int) -> tuple[GProduct, ...]:
    """Every canonical product of nonzero generators with total bidegree
    (d, ell), admissible or not; sorted like the basis."""
    out: list[GProduct] = []

    def extend(prefix: list[GIndex], rem_d: int, rem_l: int, cap: tuple[int, int]) -> None:
        if rem_d == 0 and rem_l == 0:
            out.append(tuple(prefix))
            return
        if rem_d <= 0 or rem_l <= 0:
            return
        for d1 in range(rem_d, 0, -1):
            for l1 in range(1, min(d1, rem_l) + 1):
                if pair_sort_key((d1, l1)) < cap:
                    continue  # keep factors weakly decreasing
                prefix.append((d1, l1))
                extend(prefix, rem_d - d1, rem_l - l1, pair_sort_key((d1, l1)))
                prefix.pop()

    extend([], d, ell, (-d, 0))
    out.sort(key=product_sort_key)
    return tuple(out)


def expansion_matrix(d: int, ell: int) -> tuple[tuple[Fraction, ...], ...]:
    """Column j = coordinates of the j-th basis product in the monomial basis."""
    basis = admissible_sequences(d, ell)
    monos = monomial_basis(d, ell)
    cols = [_expand_canonical(p) for p in basis]
    return tuple(tuple(f.coefficient(m) for f in cols) for m in monos)


@lru_cache(maxsize=None)
def _expansion_lu(d: int, ell: int) -> linalg.LUFactors:
    try:
        return linalg.lu_factor(expansion_matrix(d, ell))
    except SingularMatrixError as e:
        raise ConsistencyError(
            f"expansion matrix for component ({d},{ell}) is singular; "
            "the product family failed to be a basis"
        ) from e


def expand_in_gbasis(f: Polynomial, d: int, ell: int) -> tuple[Fraction, ...]:
    """Exact coordinates of f in the ordered basis of generator products.

    f must be bihomogeneous of bidegree (d, ell); the zero polynomial is
    accepted and yields the zero vector.
    """
    for m in f.monomials():
        if bidegree(m) != (d, ell):
            raise ValueError(
                f"term {m} has bidegree {tuple(bidegree(m))}, expected ({d}, {ell})"
            )
    monos = monomial_basis(d, ell)
    if not monos:
        if f.is_zero():
            return ()
        raise ValueError(f"component ({d},{ell}) is zero-dimensional")
    vec = [f.coefficient(m) for m in monos]
    return tuple(linalg.lu_solve(_expansion_lu(d, ell), vec))


def gproduct_str(product: GProduct) -> str:
    if not product:
        return "1"
    return "".join(f"g({d},{ell})" for d, ell in product)


def gcombination_str(comb: GCombination) -> str:
    return combination_str((gproduct_str(p), comb[p]) for p in sorted(comb, key=product_sort_key))
