from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspectra import (
    Polynomial,
    bidegree,
    complete_symmetric,
    elementary_symmetric,
    expand_in_gbasis,
    g_poly,
    g_product_expand,
    g_value_is_zero,
    monomial_basis,
    s_basis,
    spanning_products,
    x,
)
from fockspectra import genfun, linalg
from fockspectra.genfun import canonical_product, expand_combination, gcombination_str, gproduct_str
from fockspectra.poly import mono_norm_sq

import oracles


def test_g_conventions():
    assert g_poly(0, 0) == 1
    assert g_poly(2, 3).is_zero()
    assert g_poly(3, 0).is_zero()
    assert g_value_is_zero(2, 3) and g_value_is_zero(3, 0) and g_value_is_zero(-1, 0)
    assert not g_value_is_zero(0, 0) and not g_value_is_zero(3, 2)


def test_g_single_length_is_a_generator():
    for p in range(1, 9):
        assert g_poly(p, 1) == x(p)


def test_g_4_2_closed_form():
    assert g_poly(4, 2) == x(1) * x(3) + x(2) ** 2 / 2


def test_g_matches_series_exponentiation():
    for d in range(0, 9):
        for ell in range(0, d + 1):
            assert g_poly(d, ell) == oracles.g_series_oracle(d, ell), (d, ell)


def test_g_terms_are_bihomogeneous():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            for m in g_poly(d, ell).monomials():
                assert bidegree(m) == (d, ell)


def test_each_generator_is_stored_once(cold_caches):
    for d, ell in [(0, 0), (1, 1), (4, 2), (9, 3), (12, 12)]:
        assert g_poly(d, ell) == g_product_expand([(d, ell)])
        assert g_poly(d, ell) is not g_poly(d, ell)  # a fresh Fraction polynomial each time
    assert g_poly(2, 3).is_zero()
    # one scaled entry per generator, (0,0) being the empty product
    assert genfun._expand_canonical.cache_info().currsize == 5


def test_scaled_store_matches_the_fraction_fold():
    count = 0
    for d in range(1, 11):
        for ell in range(1, d + 1):
            for p in spanning_products(d, ell):
                scaled, reference = genfun._expand_canonical(p), oracles.expand_product_reference(p)
                assert set(scaled) == set(reference.monomials()), p
                assert all(type(v) is int for v in scaled.values()), p
                assert all(v == reference.coefficient(m) * mono_norm_sq(m) for m, v in scaled.items()), p
                count += 1
    assert count == 1123


big_fractions = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**40))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_combination_matches_the_fraction_fold(data):
    d = data.draw(st.integers(1, 8))
    ell = data.draw(st.integers(1, d))
    products = spanning_products(d, ell)
    comb = data.draw(st.dictionaries(st.sampled_from(products), big_fractions, max_size=6))
    # the same products in reversed factor order with opposite signs cancel them outright
    cancelled = data.draw(st.sets(st.sampled_from(sorted(comb)))) if comb else set()
    comb |= {p[::-1]: -comb[p] for p in cancelled if p[::-1] != p}
    # a product against its coordinates in the basis sums to zero
    q, c = data.draw(st.sampled_from(products)), data.draw(big_fractions)
    coords = expand_in_gbasis(oracles.expand_product_reference(q), d, ell)
    relation = {p: -c * v for p, v in zip(s_basis(d, ell), coords) if v}
    relation[q] = relation.get(q, 0) + c
    for combination in (comb, relation, comb | {p[::-1]: v for p, v in relation.items()}):
        expected = Polynomial.combine((oracles.expand_product_reference(p), v) for p, v in combination.items())
        got = expand_combination(combination)
        assert got == expected
        assert all(type(v) is Fraction and v for _, v in got.terms())
    assert expand_combination(relation).is_zero()


def test_product_expansion_examples():
    assert g_product_expand([(3, 1), (1, 1)]) == x(1) * x(3)
    assert g_product_expand([(2, 2), (3, 1)]) == x(1) ** 2 * x(3) / 2
    assert g_product_expand([]) == 1


def test_long_products_expand_without_deep_recursion(cold_caches):
    # a product of up to 64 factors multiplies its stored prefix, a longer one folds from its first factor
    assert g_product_expand([(1, 1)] * 3000) == x(1) ** 3000
    for n in (64, 65):
        product = [(2, 1), (1, 1)] * (n // 2) + [(1, 1)] * (n % 2)
        assert g_product_expand(product) == oracles.expand_product_reference(canonical_product(product)), n


def test_canonical_product():
    assert canonical_product([(2, 2), (3, 1), (0, 0)]) == ((3, 1), (2, 2))
    assert canonical_product([(4, 2), (4, 1)]) == ((4, 1), (4, 2))
    with pytest.raises(ValueError):
        canonical_product([(2, 3)])


def test_complete_symmetric_small():
    assert complete_symmetric(1) == x(1)
    assert complete_symmetric(2) == x(2) + x(1) ** 2 / 2
    assert complete_symmetric(3) == x(3) + x(1) * x(2) + x(1) ** 3 / 6


def test_elementary_symmetric_small():
    assert elementary_symmetric(1) == x(1)
    assert elementary_symmetric(2) == -x(2) + x(1) ** 2 / 2
    assert elementary_symmetric(3) == x(3) - x(1) * x(2) + x(1) ** 3 / 6


def test_symmetric_functions_match_series_oracle():
    hs = oracles.h_series_oracle(8)
    es = oracles.e_series_oracle(8)
    for k in range(1, 9):
        assert complete_symmetric(k) == hs[k]
        assert elementary_symmetric(k) == es[k]


def test_complete_symmetric_matches_newton_recurrence():
    hs = oracles.newton_h(8)
    for k in range(1, 9):
        assert complete_symmetric(k) == hs[k]


def test_e_times_h_of_minus_z_is_one():
    order = 8
    e = [Polynomial.one()] + [elementary_symmetric(k) for k in range(1, order + 1)]
    h = [Polynomial.one()] + [complete_symmetric(k) for k in range(1, order + 1)]
    for n in range(order + 1):
        conv = Polynomial.zero()
        for i in range(n + 1):
            conv = conv + e[i] * h[n - i] * ((-1) ** (n - i))
        assert conv == (Polynomial.one() if n == 0 else Polynomial.zero()), n


def test_expand_in_gbasis_examples():
    # basis of the (4,2) component is [g(4,2), g(3,1)g(1,1)]
    assert expand_in_gbasis(x(1) * x(3), 4, 2) == (0, 1)
    assert expand_in_gbasis(x(2) ** 2, 4, 2) == (2, -2)
    assert expand_in_gbasis(g_poly(4, 2), 4, 2) == (1, 0)
    # check the second one explicitly: 2 g(4,2) - 2 g(3,1)g(1,1) = x2^2
    rebuilt = g_poly(4, 2) * 2 - g_product_expand([(3, 1), (1, 1)]) * 2
    assert rebuilt == x(2) ** 2


def test_expand_in_gbasis_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        expand_in_gbasis(x(1) + x(2), 2, 1)
    with pytest.raises(ValueError):
        expand_in_gbasis(x(1) * x(3), 4, 3)


def test_expand_in_gbasis_accepts_zero():
    assert expand_in_gbasis(Polynomial.zero(), 5, 2) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_expansion_round_trip(data):
    d = data.draw(st.integers(1, 12))
    ell = data.draw(st.integers(1, d))
    basis = s_basis(d, ell)
    coords = data.draw(
        st.lists(oracles.small_fractions, min_size=len(basis), max_size=len(basis))
    )
    f = Polynomial.zero()
    for c, product in zip(coords, basis):
        f = f + g_product_expand(product) * c
    assert expand_in_gbasis(f, d, ell) == tuple(Fraction(c) for c in coords)


def test_expansion_reconstruction_is_exact():
    for d in range(1, 9):
        for ell in range(1, d + 1):
            for m in monomial_basis(d, ell):
                f = Polynomial({m: 1})
                coords = expand_in_gbasis(f, d, ell)
                comb = {p: c for p, c in zip(s_basis(d, ell), coords) if c}
                assert expand_combination(comb) == f


# clearing up to 15 such denominators puts the scaled coordinates past 2^900,
# far past one step modulo 2^61 - 1: the solve lifts them
large_denominators = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_expand_in_gbasis_equals_the_dense_inverse_on_every_component(data):
    # modulo 2^61 - 1 with d <= 12, then lifted modulo 3 alone with d <= 8
    for primes, max_d in ((linalg.LU_PRIMES, 12), ((3,), 8)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "LU_PRIMES", primes)
            for d in range(1, max_d + 1):
                for ell in range(1, d + 1):
                    monos = monomial_basis(d, ell)
                    coeffs = st.lists(st.one_of(st.just(0), large_denominators), min_size=len(monos), max_size=len(monos))
                    f = Polynomial(dict(zip(monos, data.draw(coeffs))))
                    assert expand_in_gbasis(f, d, ell) == oracles.expand_in_gbasis_reference(f, d, ell), (primes, d, ell)
        genfun._expansion_lu.cache_clear()  # its key holds no prime: no LU outlives the primes it was made under


N61 = 2**30 - 1  # the read-back bound modulo 2^61 - 1: 2 N61^2 < 2^61 - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(-N61, N61), st.integers(1, N61), st.integers(0, 2**61 - 2))
def test_read_back_finds_every_fraction_within_its_bound(num, den, v):
    q = 2**61 - 1
    assert isqrt((q - 1) // 2) == N61
    got = genfun._read_back(num * pow(den, -1, q) % q, q, N61)
    assert got == Fraction(num, den) and isinstance(got, int) == (num % den == 0)
    # any residue: a fraction within the bound congruent to it, or None
    got = genfun._read_back(v, q, N61)
    if got is not None:
        got = Fraction(got)
        assert abs(got.numerator) <= N61 and got.denominator <= N61
        assert (got.numerator - got.denominator * v) % q == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 2**13 - 1]), st.integers(2, 60), st.data())
def test_read_back_modulo_a_prime_power_returns_only_congruent_fractions(p, k, data):
    q = p**k
    n = isqrt((q - 1) // 2)
    # a fraction within the bound whose denominator is a unit modulo q is found
    num = data.draw(st.integers(-n, n))
    den = data.draw(st.integers(1, n).filter(lambda t: t % p))
    got = genfun._read_back(num * pow(den, -1, q) % q, q, n)
    assert got == Fraction(num, den)
    # any residue: a fraction X/D with D a unit and X = D v modulo q, or None
    v = data.draw(st.integers(0, q - 1))
    got = genfun._read_back(v, q, n)
    if got is not None:
        got = Fraction(got)
        assert abs(got.numerator) <= n and got.denominator <= n and gcd(got.denominator, q) == 1
        assert (got.numerator - got.denominator * v) % q == 0


def test_read_back_refuses_a_denominator_sharing_a_factor_with_the_modulus():
    # modulo 27 half-Euclid stops at 3/-3 = -1, which is not congruent to 8
    assert genfun._read_back(8, 27, 3) is None


def test_lifting_reads_back_coordinates_past_every_prime_of_the_table(monkeypatch, cold_caches):
    # the coordinates 2^30001 need a modulus above 2^60003: 1024 steps on the one
    # LU modulo 2^61 - 1, read back only after steps 1, 2, 4, ..., 1024
    steps, reads, real_solve, real_read_back = [], [], linalg.lu_solve, genfun._read_back

    def lu_solve(factors, b, modulus):
        steps.append(modulus)
        return real_solve(factors, b, modulus)

    def read_back(v, q, n):
        reads.append(q)
        return real_read_back(v, q, n)

    monkeypatch.setattr(linalg, "lu_solve", lu_solve)
    monkeypatch.setattr(genfun, "_read_back", read_back)
    assert expand_in_gbasis(x(2) ** 2 * 2**30000, 4, 2) == (2**30001, -(2**30001))
    assert genfun._expansion_lu.cache_info().currsize == 1
    assert steps == [2**61 - 1] * 1024
    # two coordinates read back at most once per power of two up to the step count
    assert len(reads) <= 2 * len(steps).bit_length()


def test_spanning_products_small():
    assert spanning_products(4, 2) == (
        ((4, 2),),
        ((3, 1), (1, 1)),
        ((2, 1), (2, 1)),
    )
    assert spanning_products(1, 1) == (((1, 1),),)
    assert spanning_products(2, 3) == ()


def test_spanning_products_match_the_brute_force_enumeration():
    # up to d = 14, and ell = d + 1, which no product fills
    for d in range(15):
        for ell in range(d + 2):
            # the reference is a sorted set: equal lists mean basis order and no duplicates
            assert list(spanning_products(d, ell)) == oracles.spanning_products_reference(d, ell), (d, ell)


def test_rendering():
    assert gproduct_str(((3, 1), (1, 1))) == "g(3,1)g(1,1)"
    assert gproduct_str(()) == "1"
    comb = {((4, 2),): Fraction(2), ((3, 1), (1, 1)): Fraction(-2)}
    assert gcombination_str(comb) == "2*g(4,2) - 2*g(3,1)g(1,1)"
    assert gcombination_str({}) == "0"
    assert gcombination_str({(): 3, ((2, 1),): Fraction(1, 2)}) == "3 + 1/2*g(2,1)"
    comb = {((3, 1), (1, 1)): -1, ((4, 2),): Fraction(-2, 3)}
    assert gcombination_str(comb) == "-2/3*g(4,2) - g(3,1)g(1,1)"
