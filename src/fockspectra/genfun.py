"""The bihomogeneous generators g(d, l), products of them, and basis expansion.

g(d, l) is the coefficient of r^l z^d in exp(r * (x_1 z + x_2 z^2 + ...)).
Extracting that coefficient directly gives the closed form used here:

    g(d, l) = sum over partitions of d with l parts of
              x_{p1} x_{p2} ... / (product of part-multiplicity factorials),

with g(0, 0) = 1 and g(d, l) = 0 unless d >= l >= 1.  Products of these
generators indexed by admissible sequences form a basis of each bigraded
component.  Expanded products live in one store, _expand_canonical, keyed by
the canonical factor sequence, in scaled integer coordinates
F_m = c_m * mono_norm_sq(m); a generator is its one-factor product, a longer
one (up to 64 factors) its stored prefix times its last generator, and g_poly
returns a fresh Fraction polynomial, not the stored object.  Column j of the
expansion matrix E holds the monomial coefficients of the j-th basis product.
_expansion_lu keeps, per component and bound on the factor count, one sparse
LU (linalg.lu_factor) modulo a prime q of the columns of E whose products have
at most that many factors, built from their scaled terms (row m scaled by
mono_norm_sq(m)), and each column's height, its largest |F_m|.  _solve, the
package's one solve (transfer.straighten_pair uses it on the products with at
most two factors, expand_in_gbasis on all of E), lifts the solution q-adically
and reads it back modulo q^k after steps k = 1, 2, 4, ..., until the heights
bound every residual below q^k.  expansion_matrix gives E densely, for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import comb as binomial, gcd, isqrt, lcm
from typing import Iterable

from . import linalg
from .errors import ConsistencyError, SingularMatrixError
from .partitions import admissible_sequences, pair_sort_key, product_sort_key
from .poly import Polynomial, bidegree, collect, combination_str, mono_norm_sq, monomial_basis

GIndex = tuple[int, int]
GProduct = tuple[GIndex, ...]
GCombination = dict[GProduct, Fraction]


def g_value_is_zero(d: int, ell: int) -> bool:
    """Single source of truth for when g(d, l) vanishes."""
    return not (d == ell == 0 or d >= ell >= 1)


def g_poly(d: int, ell: int) -> Polynomial:
    """The generator g(d, l): 0 when it vanishes, otherwise its one-factor
    product, read from _expand_canonical, where every generator is stored once."""
    return expand_combination({} if g_value_is_zero(d, ell) else {((d, ell),): 1})


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


def sorted_product(factors: Iterable[GIndex]) -> GProduct:
    """Nonzero factors in canonical order: larger degree, then smaller length, first."""
    return tuple(sorted(factors, key=pair_sort_key))


def canonical_product(factors: Iterable[GIndex]) -> GProduct:
    """Canonical form of a factor sequence from outside: its nonzero_factors,
    validated, in sorted_product order."""
    return sorted_product(nonzero_factors(factors))


@lru_cache(maxsize=None)  # read by every later expansion of the same product
def _expand_canonical(product: GProduct) -> dict:
    """The scaled expansion of a canonical product; callers must not modify it."""

    def times(f, g):  # F_m1 G_m2 prod_k C(a_k + b_k, b_k) onto m1 m2, for exponents a_k of m1, b_k of m2
        for m1, a in f.items():
            exps1 = dict(m1)
            for m2, b in g.items():
                exps, w = exps1.copy(), a * b
                for k, e in m2:
                    exps[k] = ak = exps.get(k, 0) + e
                    w *= binomial(ak, e)
                yield tuple(sorted(exps.items())), w

    if len(product) < 2:  # a generator is all ones; the empty product is g(0,0) = 1
        (d, ell), = product or ((0, 0),)
        return dict.fromkeys(monomial_basis(d, ell), 1)
    # the stored prefix times the last factor, the same left fold; past 64 factors, so that
    # no chain of missing prefixes recurses deeper, the fold from the first, storing no prefix
    head = product[:-1] if len(product) <= 64 else product[:1]
    out = _expand_canonical(head)
    for factor in product[len(head) :]:
        out = collect(times(out, _expand_canonical((factor,))))
    return out


def g_product_expand(factors: Iterable[GIndex]) -> Polynomial:
    """The polynomial g(d1,l1) * g(d2,l2) * ... (1 for the empty product)."""
    return expand_combination({tuple(factors): 1})


def expand_combination(comb: GCombination) -> Polynomial:
    """The sum of c * P over comb: (c * D) * P summed in scaled ints, D the lcm of the c's denominators."""
    den = lcm(*(c.denominator for c in comb.values()))
    terms = ((int(c * den), _expand_canonical(canonical_product(p))) for p, c in comb.items())
    scaled = collect((m, c * f) for c, expanded in terms for m, f in expanded.items())
    return Polynomial._of({m: Fraction(c, den * mono_norm_sq(m)) for m, c in scaled.items()})


def complete_symmetric(k: int) -> Polynomial:
    """h_k = sum over l <= k of g(k, l), in the x coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Polynomial.combine((g_poly(k, ell), 1) for ell in range(1, k + 1))


def elementary_symmetric(k: int) -> Polynomial:
    """e_k = sum over l <= k of (-1)^(k+l) g(k, l), in the x coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Polynomial.combine((g_poly(k, ell), (-1) ** (k + ell)) for ell in range(1, k + 1))


def spanning_products(d: int, ell: int) -> tuple[GProduct, ...]:
    """Every canonical product of nonzero generators with total bidegree
    (d, ell), admissible or not; emitted in basis order, by a walk that takes
    the nonzero pairs in canonical order and never steps back in it, listing
    the tails from each (first pair, remaining bidegree) once.  It steps only
    into remainders (rd, rl) that nonzero generators can fill, rd >= rl >= 0
    with rd = 0 exactly when rl = 0; any other remainder has no tail."""
    pairs = [(d1, l1) for d1 in range(d, 0, -1) for l1 in range(1, min(d1, ell) + 1)]
    tails: dict[tuple[int, int, int], list[GProduct]] = {}

    def extend(start: int, rem_d: int, rem_l: int) -> list[GProduct]:
        out: list[GProduct] = [()] if rem_d == rem_l == 0 else []
        for k in range(start, len(pairs)):
            d1, l1 = pairs[k]
            rd, rl = rem_d - d1, rem_l - l1
            if rd >= rl >= 0 and (rd == 0) == (rl == 0):
                key = (k, rd, rl)
                if key not in tails:
                    tails[key] = extend(*key)
                out += [((d1, l1),) + rest for rest in tails[key]]
        return out

    return tuple(extend(0, d, ell))


def expansion_matrix(d: int, ell: int) -> tuple[tuple[Fraction, ...], ...]:
    """Column j = coordinates of the j-th basis product in the monomial basis."""
    basis = admissible_sequences(d, ell)
    monos = monomial_basis(d, ell)
    cols = [_expand_canonical.__wrapped__(p) for p in basis]  # not stored, as in _expansion_lu
    return tuple(tuple(Fraction(f.get(m, 0), mono_norm_sq(m)) for f in cols) for m in monos)


@lru_cache(maxsize=None)  # read by every later solve on the component
def _expansion_lu(d: int, ell: int, max_factors: int) -> tuple[tuple, int, linalg.LUFactors, tuple]:
    """The basis products of (d, ell) with at most max_factors factors, the
    first prime q of linalg.LU_PRIMES modulo which their scaled columns of E
    are independent (ConsistencyError if none), their sparse LU modulo q and
    each column's height max_m |F_m|, the one part of the columns kept."""
    products = tuple(p for p in admissible_sequences(d, ell) if len(p) <= max_factors)

    def columns(heights):
        for p in products:
            column = _expand_canonical.__wrapped__(p)  # not stored (its prefix is): it only feeds lu_factor
            heights.append(max(map(abs, column.values())))
            yield column.items()

    for q in linalg.LU_PRIMES:
        heights: list[int] = []
        try:  # lu_factor reads every column, and so fills heights, before the last item is built
            return products, q, linalg.lu_factor(columns(heights), q), tuple(heights)
        except SingularMatrixError as e:
            singular = e
    raise ConsistencyError(f"expansion matrix for component ({d},{ell}) is singular; "
                           "the product family failed to be a basis") from singular


def _read_back(v: int, q: int, n: int):
    """The X/D congruent to v modulo q with |X|, D <= n and gcd(D, q) = 1, an int when
    D = 1, or None; for 2 n^2 < q there is at most one.  Half extended Euclid on (q, v),
    stopped at the first remainder <= n (von zur Gathen & Gerhard, Modern Computer Algebra,
    Sec. 5.10); for q = p^k its D may be divisible by p, and then X/D is not congruent to v."""
    if v <= n or q - v <= n:
        return v if v <= n else v - q
    r0, r1, t0, t1 = q, v, 0, 1
    while r1 > n:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if abs(t1) <= n and gcd(t1, q) == 1 else None


def _solve(d: int, ell: int, max_factors: int, b: dict) -> tuple[tuple[GProduct, ...], list]:
    """The basis products of (d, ell) with at most max_factors factors and
    the coordinates x on them of b, a vector in scaled coordinates
    {monomial: int}: ints where x_j is one, Fractions elsewhere.

    Dixon's lifting (Numer. Math. 40 (1982) 137-141) on the one LU modulo q:
    each step solves E s = r modulo q for the rest r (b at first), adds Q s to
    x, sets Q to Q q and r to (r - E s) / q, exact by lu_solve's residual check.
    After steps 1, 2, 4, ... x is read back modulo Q as X_j/D, D a unit, and
    kept when sum_j |X_j| h_j + D max_m |b_m| < Q for the column heights h_j:
    each residual (E X - D b)_m is then an int below Q that Q divides, so 0.
    A b outside the span over Q is outside it q-adically: some step's residual
    check fails, ValueError.  Only a second step recomputes E's columns.
    """
    products, q, factors, heights = _expansion_lu(d, ell, max_factors)
    top, rest, x, modulus, columns = max(map(abs, b.values()), default=0), b, [0] * len(products), 1, None
    for k in count(1):
        step = linalg.lu_solve(factors, rest.items(), q)
        x = [v + modulus * s for v, s in zip(x, step)]
        modulus *= q
        if k & (k - 1) == 0:  # after steps 1, 2, 4, 8, ...
            n = isqrt((modulus - 1) // 2)
            coords = [_read_back(v, modulus, n) for v in x]
            if None not in coords:
                den = lcm(*(c.denominator for c in coords))
                if den * (top + sum(abs(c) * h for c, h in zip(coords, heights))) < modulus:
                    return products, coords
        columns = columns or [_expand_canonical.__wrapped__(p) for p in products]
        terms = ((m, -s * f) for s, column in zip(step, columns) if s for m, f in column.items())
        rest = {m: v // q for m, v in collect(chain(rest.items(), terms)).items()}


def expand_in_gbasis(f: Polynomial, d: int, ell: int) -> tuple[Fraction, ...]:
    """Exact coordinates of f in the ordered basis of generator products.

    f must be bihomogeneous of bidegree (d, ell); the zero polynomial is
    accepted and yields the zero vector.  No basis product has more than ell
    factors, so _solve works on the whole of E, once the lcm L of the
    denominators of f's scaled coefficients has cleared them.
    """
    for m in f.monomials():
        if bidegree(m) != (d, ell):
            raise ValueError(
                f"term {m} has bidegree {tuple(bidegree(m))}, expected ({d}, {ell})"
            )
    scaled = {m: c * mono_norm_sq(m) for m, c in f._terms.items()}  # the rows of the scaled columns
    den = lcm(*(c.denominator for c in scaled.values()))
    b = {m: c.numerator * (den // c.denominator) for m, c in scaled.items()}
    return tuple(Fraction(c, den) for c in _solve(d, ell, ell, b)[1])


def gproduct_str(product: GProduct) -> str:
    if not product:
        return "1"
    return "".join(f"g({d},{ell})" for d, ell in product)


def gcombination_str(comb: GCombination) -> str:
    return combination_str((gproduct_str(p), comb[p]) for p in sorted(comb, key=product_sort_key))
