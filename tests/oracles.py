"""Independent reference implementations used only by the tests.

These deliberately take different routes than the library: truncated series
exponentiation instead of the closed multiplicity formula, an explicit
sum-over-derivative-pairs operator instead of the per-monomial loop, one
pair of factor positions at a time for the closed form on products,
Faddeev-LeVerrier traces and Leibniz permanent-style determinants instead of
Hessenberg reduction for characteristic polynomials, Newton's recurrence
for the complete symmetric functions, a Fraction fold of Polynomial products
for the scaled integer store of expanded products, the dense inverse of the
expansion matrix, in Fractions, for the change of basis (where the package
solves modulo primes), and through it the monomial route for the
product-basis matrix of T and a solve against the whole expansion matrix
for the straightening of a pair, a dense null space per eigenvalue for its
eigenvectors, successive projections for their Gram-Schmidt
orthogonalisation, and sums on monomial keys for the verify sweep's check of
the closed form of T (the sweep sums on monomial indices).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod

from hypothesis import strategies as st

from fockspectra import (
    Polynomial,
    apply_t,
    eigenbasis,
    expansion_matrix,
    g_poly,
    g_product_expand,
    genfun,
    inner_product,
    linalg,
    monomial,
    monomial_basis,
    partial_derivative,
    s_basis,
    spectral,
    t_matrix,
    transfer,
    x,
)
from fockspectra.genfun import nonzero_factors, sorted_product
from fockspectra.poly import collect, mono_norm_sq

# --- truncated power series with Polynomial coefficients (index = z-degree) --


def series_mul(a: list[Polynomial], b: list[Polynomial], order: int) -> list[Polynomial]:
    out = [Polynomial.zero() for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def series_exp(a: list[Polynomial], order: int) -> list[Polynomial]:
    """exp of a series with zero constant term, truncated at z^order."""
    assert a[0].is_zero()
    out = [Polynomial.one()] + [Polynomial.zero()] * order
    power = list(out)
    fact = 1
    for n in range(1, order + 1):
        power = series_mul(power, a, order)
        fact *= n
        for k in range(order + 1):
            out[k] = out[k] + power[k] / fact
    return out


def xz_series(order: int, alternating: bool = False) -> list[Polynomial]:
    """x_1 z + x_2 z^2 + ... (optionally with signs (-1)^(j+1))."""
    coeffs = [Polynomial.zero()]
    for j in range(1, order + 1):
        sign = (-1) ** (j + 1) if alternating else 1
        coeffs.append(x(j) * sign)
    return coeffs


def g_series_oracle(d: int, ell: int) -> Polynomial:
    """Coefficient of r^ell z^d in exp(r * (x_1 z + ...)): the z^d part of
    (x_1 z + ... + x_d z^d)^ell / ell!."""
    if d == 0 and ell == 0:
        return Polynomial.one()
    if d == 0 or ell == 0:
        return Polynomial.zero()
    base = xz_series(d)
    power = [Polynomial.one()] + [Polynomial.zero()] * d
    for _ in range(ell):
        power = series_mul(power, base, d)
    return power[d] / factorial(ell)


def h_series_oracle(order: int) -> list[Polynomial]:
    return series_exp(xz_series(order), order)


def e_series_oracle(order: int) -> list[Polynomial]:
    return series_exp(xz_series(order, alternating=True), order)


def newton_h(kmax: int) -> list[Polynomial]:
    """h_0..h_kmax from k h_k = sum_{i<=k} p_i h_{k-i} with p_i = i x_i."""
    hs = [Polynomial.one()]
    for k in range(1, kmax + 1):
        acc = Polynomial.zero()
        for i in range(1, k + 1):
            acc = acc + x(i) * hs[k - i] * i
        hs.append(acc / k)
    return hs


def expand_product_reference(product) -> Polynomial:
    """The product of the generators g(d, l) of a factor sequence, each built
    from its closed form (every monomial m of bidegree (d, l) over the product
    of its exponent factorials) and multiplied in Fractions."""
    out = Polynomial.one()
    for d, ell in product:
        terms = {m: Fraction(1, prod(factorial(a) for _, a in m)) for m in monomial_basis(d, ell)}
        out = out * Polynomial(terms)
    return out


def spanning_products_reference(d: int, ell: int) -> list:
    """Every product of nonzero generators g(d1, l1), d1 >= l1 >= 1, with
    total bidegree (d, ell): built one factor at a time, bidegree by
    bidegree, as a set of factor tuples sorted larger degree first (then
    smaller length), and sorted once at the end in that order."""

    def key(pair):
        return (-pair[0], pair[1])

    found = {}
    for a in range(d + 1):
        for b in range(ell + 1):
            found[a, b] = {()} if a == b == 0 else {
                tuple(sorted(rest + ((d1, l1),), key=key))
                for d1 in range(1, a + 1)
                for l1 in range(1, min(d1, b) + 1)
                for rest in found[a - d1, b - l1]
            }
    return sorted(found[d, ell], key=lambda p: [key(pair) for pair in p])


# --- reference form of the operator -----------------------------------------


def apply_t_reference(f: Polynomial) -> Polynomial:
    """1/2 sum_n (sum_{a+b=n} x_a x_b) (sum_{p+q=n} d_p d_q f), built from
    whole-polynomial derivative and product operations."""
    top = 0
    for m in f.monomials():
        for k, _ in m:
            top = max(top, k)
    out = Polynomial.zero()
    for n in range(2, 2 * top + 1):
        xx = Polynomial.zero()
        for a in range(1, n):
            xx = xx + x(a) * x(n - a)
        dd = Polynomial.zero()
        for p in range(1, n):
            dd = dd + partial_derivative(partial_derivative(f, p), n - p)
        if not dd.is_zero():
            out = out + xx * dd
    return out / 2


def t_structural_reference(factors) -> dict:
    """T of a product of generators by its closed form, one pair of
    positions i < j at a time in the order given, each term sorted into
    canonical order on its own: {canonical product: int}."""
    work = nonzero_factors(factors)
    terms = [(sorted_product(work), sum((ell - 1) * (2 * d - ell) // 2 for d, ell in work))]
    for i, (di, li) in enumerate(work):
        for j in range(i + 1, len(work)):
            dj, lj = work[j]
            others = work[:i] + work[i + 1 : j] + work[j + 1 :]
            down, up = -lj * (lj + 1), li * (li + 1)
            for p in range(dj - lj if li > 1 else 0):
                terms.append((sorted_product(others + [(di + p, li - 1), (dj - p, lj + 1)]), down))
            for p in range(1 if lj > 1 else dj, dj - lj + 2):  # p = dj only when lj = 1
                pair = [(di + p, li + 1), (dj - p, lj - 1)] if p < dj else [(di + dj, li + 1)]
                terms.append((sorted_product(others + pair), up))
    return collect(terms)


def structural_agreement_reference(d: int, ell: int) -> dict:
    """Whether the closed form of T agrees with the monomial-level T on
    each product of spanning_products_reference(d, ell), {product: bool}:
    sum of F_m K[., m] over the product's scaled expansion F against sum of
    c F_q over T of the product, K[r, m] = N(r) M[r, m] / N(m) in
    Fractions, N = mono_norm_sq, both sides summed by collect on monomial keys.
    It reads spectral._t_matrix_entries, transfer._t_structural and
    genfun._expand_canonical when called, as the verify sweep does."""
    monos = monomial_basis(d, ell)
    norms = [mono_norm_sq(m) for m in monos]
    image_of = {
        m: [(monos[i], Fraction(norms[i] * c, nm)) for i, c in column]
        for m, nm, column in zip(monos, norms, spectral._t_matrix_entries(d, ell, "monomial"))
    }
    agrees = {}
    for p in spanning_products_reference(d, ell):
        direct = collect((r, f * k) for m, f in genfun._expand_canonical(p).items() for r, k in image_of[m])
        closed = collect(
            (r, c * f) for q, c in transfer._t_structural(p).items() for r, f in genfun._expand_canonical(q).items()
        )
        agrees[p] = direct == closed
    return agrees


@cache
def _expansion_inverse(d: int, ell: int):
    """The dense inverse of the expansion matrix E of (d, ell), once per component."""
    return linalg.invert(expansion_matrix(d, ell))


def expand_in_gbasis_reference(f: Polynomial, d: int, ell: int) -> tuple[Fraction, ...]:
    """Coordinates of f in the product basis of (d, ell): E^-1 times its
    monomial coordinates, in Fractions."""
    return tuple(linalg.mat_vec(_expansion_inverse(d, ell), [f.coefficient(m) for m in monomial_basis(d, ell)]))


def gbasis_t_matrix_reference(d: int, ell: int) -> tuple[tuple[Fraction, ...], ...]:
    """Product-basis matrix of T by the monomial route: expand each basis
    product, apply T to the monomials, and solve against the expansion matrix."""
    products = s_basis(d, ell)
    cols = [expand_in_gbasis_reference(apply_t(g_product_expand(p)), d, ell) for p in products]
    return tuple(tuple(col[i] for col in cols) for i in range(len(products)))


def monomial_t_matrix_reference(d: int, ell: int) -> tuple[tuple[Fraction, ...], ...]:
    """Monomial-basis matrix of T by whole-polynomial derivatives: column j
    holds the coefficients of apply_t_reference of the j-th monomial."""
    monos = monomial_basis(d, ell)
    images = [apply_t_reference(Polynomial({m: 1})) for m in monos]
    return tuple(tuple(f.coefficient(r) for f in images) for r in monos)


def straighten_pair_reference(d1: int, l1: int, d2: int, l2: int) -> dict:
    """Nonzero coordinates of g(d1,l1) g(d2,l2) in the whole basis of its
    component, solved against all of E by its dense inverse."""
    d, ell = d1 + d2, l1 + l2
    coords = expand_in_gbasis_reference(g_poly(d1, l1) * g_poly(d2, l2), d, ell)
    return {p: c for p, c in zip(s_basis(d, ell), coords) if c}


def eigenbasis_reference(d: int, ell: int) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """(eigenvalue, coordinates) pairs: for each distinct diagonal value of the
    product-basis matrix U, ascending, the kernel basis of U - lambda I that
    dense Gauss-Jordan elimination gives."""
    u = t_matrix(d, ell).entries
    n = len(u)
    out = []
    for lam in sorted({u[i][i] for i in range(n)}):
        shifted = [[u[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        out.extend((lam, tuple(vec)) for vec in linalg.null_space(shifted))
    return out


def gram_schmidt_reference(d: int, ell: int) -> list[tuple[int, Polynomial, Fraction]]:
    """(eigenvalue, polynomial, squared norm) for the eigenfunctions of
    eigenbasis, eigenspace by eigenspace in ascending order, each made
    orthogonal to the earlier ones of its eigenspace by successive
    projections: each one projects what the previous ones left."""
    groups: dict[int, list[Polynomial]] = {}
    for fn in eigenbasis(d, ell):
        groups.setdefault(fn.eigenvalue, []).append(fn.polynomial)
    out = []
    for lam in sorted(groups):
        done: list[tuple[Polynomial, Fraction]] = []
        for w in groups[lam]:
            for u, u_norm_sq in done:
                w = w - u * (inner_product(w, u) / u_norm_sq)
            done.append((w, inner_product(w, w)))
        out.extend((lam, w, norm_sq) for w, norm_sq in done)
    return out


# --- determinant-based characteristic polynomial ----------------------------


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def char_poly_reference(rows) -> list[Fraction]:
    """Monic coefficients of det(xI - A) by the Leibniz expansion (small n)."""
    n = len(rows)
    total = [Fraction(0)] * (n + 1)  # ascending powers of x
    for perm in permutations(range(n)):
        prod = [Fraction(1)]
        for i in range(n):
            const = -Fraction(rows[i][perm[i]])
            lifted = [Fraction(0)] * (len(prod) + 1)
            for k, c in enumerate(prod):
                lifted[k] += c * const
                if perm[i] == i:
                    lifted[k + 1] += c
            prod = lifted
        sign = _perm_sign(perm)
        for k, c in enumerate(prod):
            total[k] += sign * c
    return list(reversed(total))


def char_poly_faddeev(rows) -> list[Fraction]:
    """Monic coefficients of det(xI - A) by the Faddeev-LeVerrier scheme:
    M_k = A (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k, O(n^4)."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    coeffs = [Fraction(1)]
    prev = linalg.identity(n)
    for k in range(1, n + 1):
        mk = linalg.mat_mul(a, prev)
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        prev = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


# --- hypothesis strategies ---------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def monomials(draw, max_var: int = 5, max_exp: int = 3):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, max_var), st.integers(1, max_exp)),
            min_size=0,
            max_size=3,
        )
    )
    return monomial(pairs)


@st.composite
def polynomials(draw, max_terms: int = 4):
    terms = draw(st.lists(st.tuples(monomials(), small_fractions), max_size=max_terms))
    out = Polynomial.zero()
    for m, c in terms:
        out = out + Polynomial({m: c})
    return out


@st.composite
def homogeneous_polynomials(draw, max_d: int = 7):
    d = draw(st.integers(1, max_d))
    ell = draw(st.integers(1, d))
    basis = monomial_basis(d, ell)
    coeffs = draw(st.lists(small_fractions, min_size=len(basis), max_size=len(basis)))
    return Polynomial(dict(zip(basis, coeffs))), d, ell
