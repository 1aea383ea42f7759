"""The degree- and length-preserving operator

    T = 1/2 * sum over a+b = p+q (all >= 1) of  x_a x_b d/dx_p d/dx_q

in two realizations: directly on polynomials, and through its closed-form
action on products of the generators g(d, l).  Also the straightening of
irregular two-factor products into regular ones, and the alternating product
identity used to cross-check that straightening exists.

A pair g(d1, l1) g(d2, l2) is regular when d1 > d2 + l1, irregular otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import ConsistencyError
from .genfun import (
    GCombination,
    GIndex,
    canonical_product,
    expand_in_gbasis,
    g_poly,
    g_value_is_zero,
    nonzero_factors,
)
from .partitions import admissible_sequences
from .poly import Polynomial


def apply_t(f: Polynomial) -> Polynomial:
    """Apply T at the monomial level.

    Iterates over ordered derivative pairs (p, q) in the support of each
    term (p = q allowed), multiplies by sum over a+b = p+q of x_a x_b, and
    halves the total at the end; the 1/2 prefactor absorbs the double count
    of the symmetric pairs.
    """
    acc: dict = {}
    for mono, coeff in f.terms():
        exps = dict(mono)
        for p, ap in exps.items():
            for q, aq in exps.items():
                if p == q:
                    if ap < 2:
                        continue
                    scale = coeff * ap * (ap - 1)
                else:
                    scale = coeff * ap * aq
                lowered = dict(exps)
                for v in (p, q):
                    if lowered[v] == 1:
                        del lowered[v]
                    else:
                        lowered[v] -= 1
                n = p + q
                for a in range(1, n):
                    raised = dict(lowered)
                    raised[a] = raised.get(a, 0) + 1
                    raised[n - a] = raised.get(n - a, 0) + 1
                    key = tuple(sorted(raised.items()))
                    acc[key] = acc.get(key, 0) + scale
    return Polynomial(acc) * Fraction(1, 2)


def apply_t_structural(factors: Iterable[GIndex]) -> GCombination:
    """Closed-form action of T on a product of generators.

    The factor sequence is used in the order given (the action is valid for
    any ordering); products in the result are returned in canonical form.
    With P = g(d1,l1)...g(dk,lk):

        T P = sum_i (l_i - 1)(d_i - l_i/2) P
            - sum_{i<j} sum_{p>=0} l_j (l_j + 1) P[(d_i+p, l_i-1), (d_j-p, l_j+1)]
            + sum_{i<j} sum_{p>=1} l_i (l_i + 1) P[(d_i+p, l_i+1), (d_j-p, l_j-1)]

    where the bracket replaces the i-th and j-th factors, vanished factors
    kill the term, and g(0,0) factors are dropped.
    """
    work = nonzero_factors(factors)
    out: GCombination = {}

    def add(updated: list[GIndex], coeff: Fraction) -> None:
        if not coeff:
            return
        for d, ell in updated:
            if (d, ell) != (0, 0) and g_value_is_zero(d, ell):
                return
        key = canonical_product(updated)
        total = out.get(key, Fraction(0)) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    diagonal = sum(Fraction((ell - 1) * (2 * d - ell), 2) for d, ell in work)
    add(work, Fraction(diagonal))

    for i in range(len(work)):
        di, li = work[i]
        for j in range(i + 1, len(work)):
            dj, lj = work[j]
            for p in range(0, dj + 1):
                updated = list(work)
                updated[i] = (di + p, li - 1)
                updated[j] = (dj - p, lj + 1)
                add(updated, -Fraction(lj * (lj + 1)))
            for p in range(1, dj + 1):
                updated = list(work)
                updated[i] = (di + p, li + 1)
                updated[j] = (dj - p, lj - 1)
                add(updated, Fraction(li * (li + 1)))
    return out


def is_regular_pair(d1: int, l1: int, d2: int, l2: int) -> bool:
    return d1 > d2 + l1


def straighten_pair(d1: int, l1: int, d2: int, l2: int) -> GCombination:
    """Rewrite g(d1,l1) g(d2,l2) as a combination of regular products.

    Regular input is returned unchanged.  Otherwise the product is expanded
    into monomials and solved against the basis of its bigraded component;
    the result consists of regular pairs (single factors standing for pairs
    with g(0,0)) that all precede the input in the "larger degree first,
    then smaller length" order.
    """
    for d, ell in ((d1, l1), (d2, l2)):
        if ell < 1 or g_value_is_zero(d, ell):
            raise ValueError(f"factor g({d},{ell}) is not a nonzero generator")
    if is_regular_pair(d1, l1, d2, l2):
        return {((d1, l1), (d2, l2)): Fraction(1)}
    total_d, total_l = d1 + d2, l1 + l2
    coords = expand_in_gbasis(g_poly(d1, l1) * g_poly(d2, l2), total_d, total_l)
    basis = admissible_sequences(total_d, total_l)
    comb: GCombination = {}
    for product, c in zip(basis, coords):
        if not c:
            continue
        if len(product) > 2:
            raise ConsistencyError(
                f"straightening g({d1},{l1})g({d2},{l2}) produced a "
                f"{len(product)}-factor term {product}"
            )
        comb[product] = c
    return comb


def alternating_identity_residual(n: int, m: int, p: int, lp: int) -> Polynomial:
    """Alternating two-factor identity at degree 2n+1 and length 2m.

    Returns sum over d1+d2 = 2n+1, l1+l2 = 2m of

        (-1)^l2 * prod_{i=1..2p-1} (d1 + p - n - i)
                * prod_{j=2p-1..2m-1, j != lp} (l1 - j)
                * g(d1,l1) g(d2,l2)

    expanded into monomials.  The coefficient extraction this encodes makes
    the sum vanish identically, so any nonzero result flags a bug.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 1 <= p <= m:
        raise ValueError(f"p must satisfy 1 <= p <= m, got p={p}, m={m}")
    if not 2 * p - 1 <= lp <= 2 * m - 1:
        raise ValueError(f"lp must satisfy 2p-1 <= lp <= 2m-1, got lp={lp}")
    d, ell = 2 * n + 1, 2 * m
    total = Polynomial.zero()
    for d1 in range(0, d + 1):
        for l1 in range(0, ell + 1):
            d2, l2 = d - d1, ell - l1
            if g_value_is_zero(d1, l1) or g_value_is_zero(d2, l2):
                continue
            c = Fraction((-1) ** l2)
            for i in range(1, 2 * p):
                c *= d1 + p - n - i
            for j in range(2 * p - 1, 2 * m):
                if j != lp:
                    c *= l1 - j
            if c:
                total = total + g_poly(d1, l1) * g_poly(d2, l2) * c
    return total
