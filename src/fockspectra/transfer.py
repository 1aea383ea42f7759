"""The degree- and length-preserving operator

    T = 1/2 * sum over a+b = p+q (all >= 1) of  x_a x_b d/dx_p d/dx_q

in two realizations, each counting every distinct term once and summing T's
own integer coefficients through poly.collect: on a monomial, each unordered
pair of variables and each unordered split of their sum; on a product of
generators g(d, l) in closed form, each ordered pair of factor kinds, building
only the terms whose generators are nonzero, each put straight into canonical
order.  Also the straightening of irregular pairs into regular ones by
genfun's one solve, of combinations of products into the basis of admissible
products in one sweep, in ints where the pair coefficients are ints
(straighten_pair returns them as Fractions), and the alternating product
identity that cross-checks straightening, both on genfun's scaled expansions.

A pair g(d1, l1) g(d2, l2) is regular when d1 > d2 + l1, irregular otherwise.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Iterable

from . import genfun
from .errors import ConsistencyError
from .genfun import GCombination, GIndex, GProduct, g_value_is_zero, nonzero_factors, sorted_product
from .partitions import is_regular_pair, product_sort_key
from .poly import Monomial, Polynomial, collect


def apply_t(f: Polynomial) -> Polynomial:
    """Apply T at the monomial level: c * T(m) over the terms c*m of f, from
    _t_monomial, summed by one collect."""
    return Polynomial._of(collect((r, c * k) for m, c in f._terms.items() for r, k in _t_monomial(m).items()))


def _t_monomial(m: Monomial) -> dict[Monomial, int]:
    """T of one monomial as {monomial: int}.  Each unordered pair {p, q} of its
    variables acts once, weighted a_p a_q (a_p (a_p - 1) / 2 when p = q) for the
    exponents a_k of m, and sends m / (x_p x_q) to each unordered split
    x_a x_b, a + b = p + q, once: doubled when a != b."""
    terms = []
    for i, (p, ap) in enumerate(m):
        for q, aq in m[i:]:
            w = ap * (ap - 1) // 2 if p == q else ap * aq
            if not w:
                continue
            lowered, n = collect([*m, (p, -1), (q, -1)]), p + q  # m / (x_p x_q)
            for a in range(1, n // 2 + 1):
                raised = dict(lowered)
                raised[a] = raised.get(a, 0) + 1
                raised[n - a] = raised.get(n - a, 0) + 1
                terms.append((tuple(sorted(raised.items())), w if 2 * a == n else 2 * w))
    return collect(terms)


def apply_t_structural(factors: Iterable[GIndex]) -> GCombination:
    """Closed-form action of T on a product of generators.

    The factors are validated here (g(0,0) dropped, a vanishing one raises
    ValueError) and used in the order given (the action is valid for any
    ordering); products in the result are returned in canonical form.
    With P = g(d1,l1)...g(dk,lk):

        T P = sum_i (l_i - 1)(d_i - l_i/2) P
            - sum_{i<j} sum_{p>=0} l_j (l_j + 1) P[(d_i+p, l_i-1), (d_j-p, l_j+1)]
            + sum_{i<j} sum_{p>=1} l_i (l_i + 1) P[(d_i+p, l_i+1), (d_j-p, l_j-1)]

    where the bracket replaces the i-th and j-th factors.  Only the p that
    leave both nonzero (g(d, l) = 0 unless d >= l >= 1 or d = l = 0) build a
    term: 0 <= p < d_j - l_j when l_i >= 2 in the first sum; in the second,
    1 <= p <= d_j - l_j + 1 when l_j >= 2, and p = d_j alone when l_j = 1,
    which merges the pair into one factor (d_i + d_j, l_i + 1).  Every weight
    is an integer, since l_i - 1 or 2 d_i - l_i is even; _t_structural sums them.
    """
    return {q: Fraction(c) for q, c in _t_structural(nonzero_factors(factors)).items()}


def _t_structural(factors: Iterable[GIndex]) -> dict[GProduct, int]:
    """T of a product of nonzero factors, in any order, as {canonical product: int}.
    Each ordered pair of factor kinds (s, t) acts once, weighted by the number
    of positions i < j holding s then t in the order given, and each term gets
    its new factors by bisection into the canonical rest of the product."""
    work = tuple(factors)
    canon = sorted_product(work)
    big = 1 + sum(ell for _, ell in work)  # above every length: ell - big * d sorts as pair_sort_key
    keys = [ell - big * d for d, ell in canon]
    terms = [(canon, sum((ell - 1) * (2 * d - ell) // 2 for d, ell in work))]
    append = terms.append
    for (i, j), count in Counter(combinations([canon.index(f) for f in work], 2)).items():  # kinds by first place
        (di, li), (dj, lj) = canon[i], canon[j]
        i, j = (i, i + 1) if i == j else (i, j) if i < j else (j, i)
        rest, rest_keys = canon[:i] + canon[i + 1 : j] + canon[j + 1 :], keys[:i] + keys[i + 1 : j] + keys[j + 1 :]
        down, up = -lj * (lj + 1) * count, li * (li + 1) * count
        for p in range(dj - lj if li > 1 else 0):
            a, b = (di + p, li - 1), (dj - p, lj + 1)
            ka, kb = li - 1 - big * (di + p), lj + 1 - big * (dj - p)
            if kb < ka:
                a, b, ka, kb = b, a, kb, ka
            x, y = bisect(rest_keys, ka), bisect(rest_keys, kb)
            append((rest[:x] + (a,) + rest[x:y] + (b,) + rest[y:], down))
        for p in range(1, dj - lj + 2 if lj > 1 else 1):
            a, b = (di + p, li + 1), (dj - p, lj - 1)
            ka, kb = li + 1 - big * (di + p), lj - 1 - big * (dj - p)
            if kb < ka:
                a, b, ka, kb = b, a, kb, ka
            x, y = bisect(rest_keys, ka), bisect(rest_keys, kb)
            append((rest[:x] + (a,) + rest[x:y] + (b,) + rest[y:], up))
        if lj == 1:  # p = d_j merges the pair into the one factor (d_i + d_j, l_i + 1)
            x = bisect(rest_keys, li + 1 - big * (di + dj))
            append((rest[:x] + ((di + dj, li + 1),) + rest[x:], up))
    return collect(terms)


def straighten_pair(d1: int, l1: int, d2: int, l2: int) -> GCombination:
    """Rewrite g(d1,l1) g(d2,l2) as a combination of regular products.

    Regular input is returned unchanged.  Otherwise the product is solved
    against the basis products of its component with at most two factors
    (genfun._solve, which certifies the answer on every monomial), and
    ConsistencyError reports one that needs more factors.  The result
    consists of regular pairs (single factors standing for pairs with
    g(0,0)) that all precede the input in the "larger degree first, then
    smaller length" order.
    """
    if len(nonzero_factors(((d1, l1), (d2, l2)))) < 2:  # a zero factor raises
        raise ValueError("factor g(0,0) is not a nonzero generator")
    return {product: Fraction(c) for product, c in _straighten_pair(d1, l1, d2, l2).items()}


def _straighten_pair(d1: int, l1: int, d2: int, l2: int) -> dict[GProduct, int]:
    """straighten_pair for two nonzero factors, in ints where the coefficients are ints."""
    if is_regular_pair(d1, l1, d2, l2):
        return {((d1, l1), (d2, l2)): 1}
    pair = genfun._expand_canonical.__wrapped__(((d1, l1), (d2, l2)))  # scaled, as the LU's columns
    try:
        products, coords = genfun._solve(d1 + d2, l1 + l2, 2, pair)
    except ValueError as e:
        raise ConsistencyError(
            f"straightening g({d1},{l1})g({d2},{l2}) needs products of more than two factors"
        ) from e
    return {product: c for product, c in zip(products, coords) if c}


def straighten_combinations(combinations: list[dict[GProduct, int]]) -> list[dict[GProduct, int]]:
    """Coordinates of each combination of canonical products in the basis of
    admissible products, in one sweep that takes the latest pending product in
    basis order.  An admissible product is final; any other has its first
    irregular adjacent pair straightened (each distinct pair solved once per
    call) and passes its row, times each pair coefficient, to the canonical
    products that result, each required to sort strictly before it (else ConsistencyError)."""
    out: list[dict[GProduct, int]] = [{} for _ in combinations]
    rows: dict[GProduct, dict[int, int]] = {}  # product not yet taken: {combination index: coefficient}
    for k, comb in enumerate(combinations):
        for q, c in comb.items():
            rows.setdefault(q, {})[k] = c
    pending = sorted((product_sort_key(q), q) for q in rows)
    solved: dict[GProduct, dict[GProduct, int]] = {}
    while pending:
        key, product = pending.pop()
        row = rows.pop(product)
        for i in range(len(product) - 1):
            (d1, l1), (d2, l2) = product[i], product[i + 1]
            if not is_regular_pair(d1, l1, d2, l2):
                break
        else:
            for k, c in row.items():
                if c:
                    out[k][product] = c
            continue
        head, pair, tail = product[:i], product[i : i + 2], product[i + 2 :]
        if pair not in solved:
            solved[pair] = _straighten_pair(d1, l1, d2, l2)
        for result, c in solved[pair].items():
            q = sorted_product(head + result + tail) if head or tail else result  # a pair's results are canonical
            target = rows.get(q)
            if target is None:  # new, or taken already: only an earlier one is surely taken after all that reach it
                if product_sort_key(q) >= key:
                    raise ConsistencyError(f"straightening {product} reached {q}, which does not precede it")
                target = rows[q] = {}
                insort(pending, (product_sort_key(q), q))
            for k, ck in row.items():
                target[k] = target[k] + c * ck if k in target else c * ck
    return out


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
    comb = {}
    for d1 in range(0, d + 1):
        for l1 in range(0, ell + 1):
            d2, l2 = d - d1, ell - l1
            if g_value_is_zero(d1, l1) or g_value_is_zero(d2, l2):
                continue
            c = (-1) ** l2 * prod(d1 + p - n - i for i in range(1, 2 * p))
            c *= prod(l1 - j for j in range(2 * p - 1, 2 * m) if j != lp)
            if c:
                comb[(d1, l1), (d2, l2)] = c
    return genfun.expand_combination(comb)  # summed in scaled integer coordinates
