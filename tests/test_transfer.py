import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fockspectra import (
    Polynomial,
    apply_degree_operator,
    apply_length_operator,
    apply_t,
    apply_t_structural,
    alternating_identity_residual,
    bidegree,
    g_poly,
    g_product_expand,
    inner_product,
    is_regular_pair,
    monomial_basis,
    s_basis,
    spanning_products,
    straighten_pair,
    x,
)
from fockspectra import genfun, linalg, spectral, transfer
from fockspectra.errors import ConsistencyError
from fockspectra.genfun import canonical_product, expand_combination
from fockspectra.partitions import pair_sort_key
from fockspectra.poly import collect
from fockspectra.transfer import straighten_combinations

import oracles


def test_kills_single_generators():
    for d in range(1, 8):
        assert apply_t(x(d)).is_zero()


def test_small_monomial_examples():
    assert apply_t(x(1) * x(2)) == 2 * x(1) * x(2)
    assert apply_t(x(1) ** 2 * x(3)) == 5 * x(1) ** 2 * x(3) + 2 * x(1) * x(2) ** 2
    for d in range(2, 7):
        assert apply_t(x(1) ** d) == x(1) ** d * Fraction(d * (d - 1), 2)


def test_matches_reference_operator_on_basis_monomials():
    for d in range(1, 9):
        for ell in range(1, d + 1):
            for m in monomial_basis(d, ell):
                f = Polynomial({m: 1})
                assert apply_t(f) == oracles.apply_t_reference(f), m



def test_monomial_core_is_the_reference_operator():
    count = 0
    for d in range(1, 13):
        for ell in range(1, d + 1):
            for m in monomial_basis(d, ell):
                image = transfer._t_monomial(m)
                assert all(type(k) is int for k in image.values()), m
                assert Polynomial(image) == oracles.apply_t_reference(Polynomial({m: 1})), m
                count += 1
    assert count == 271

@settings(max_examples=40)
@given(oracles.polynomials())
def test_matches_reference_operator_on_random_input(f):
    assert apply_t(f) == oracles.apply_t_reference(f)


@settings(max_examples=40)
@given(oracles.homogeneous_polynomials())
def test_preserves_bidegree(data):
    f, d, ell = data
    image = apply_t(f)
    for m in image.monomials():
        assert bidegree(m) == (d, ell)


@settings(max_examples=40)
@given(oracles.polynomials())
def test_commutes_with_grading_operators(f):
    assert apply_t(apply_degree_operator(f)) == apply_degree_operator(apply_t(f))
    assert apply_t(apply_length_operator(f)) == apply_length_operator(apply_t(f))


@settings(max_examples=30)
@given(oracles.homogeneous_polynomials(), oracles.homogeneous_polynomials())
def test_self_adjoint_and_positive(a, b):
    f, df, lf = a
    g, dg, lg = b
    assert inner_product(apply_t(f), g) == inner_product(f, apply_t(g))
    assert inner_product(apply_t(f), f) >= 0


def test_structural_single_factor_is_diagonal():
    assert apply_t_structural([(4, 2)]) == {((4, 2),): 3}
    assert apply_t_structural([(7, 3)]) == {((7, 3),): (3 - 1) * (2 * 7 - 3) // 2}


def test_structural_two_generators():
    assert apply_t_structural([(3, 1), (1, 1)]) == {((4, 2),): 2}


def test_structural_respects_given_factor_order():
    # same product, two factor orders: different combinations, equal expansions
    as_given = apply_t_structural([(2, 2), (3, 1)])
    assert as_given == {
        ((3, 1), (2, 2)): -1,
        ((3, 2), (2, 1)): -2,
        ((5, 3),): 6,
    }
    canonical = apply_t_structural([(3, 1), (2, 2)])
    assert canonical == {((3, 1), (2, 2)): 1, ((4, 2), (1, 1)): 2}
    expected = apply_t(x(1) ** 2 * x(3) / 2)
    assert expected == Fraction(5, 2) * x(1) ** 2 * x(3) + x(1) * x(2) ** 2
    assert expand_combination(as_given) == expected
    assert expand_combination(canonical) == expected


def test_structural_drops_identity_factors_and_rejects_bad_ones():
    assert apply_t_structural([(0, 0), (4, 2)]) == {((4, 2),): 3}
    with pytest.raises(ValueError):
        apply_t_structural([(3, 0)])
    with pytest.raises(ValueError):
        apply_t_structural([(2, 3)])


def test_structural_agrees_with_direct_action_exhaustively():
    # the surviving index ranges depend on which factor comes later: try both orders
    for d in range(1, 9):
        for ell in range(1, d + 1):
            for product in spanning_products(d, ell):
                direct = apply_t(g_product_expand(product))
                assert all(type(c) is Fraction for _, c in direct.terms()), product
                for order in (product, product[::-1]):
                    comb = apply_t_structural(order)
                    assert all(type(c) is Fraction for c in comb.values()), order
                    assert expand_combination(comb) == direct, order


def test_structural_is_the_integer_core():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            for product in spanning_products(d, ell):
                for order in (product, product[::-1]):
                    core = transfer._t_structural(order)
                    assert all(type(c) is int for c in core.values()), order
                    # a key holding a vanishing factor would expand to nothing and vanish unseen
                    assert all(q == canonical_product(q) for q in core), order
                    assert apply_t_structural(order) == core, order


def test_structural_core_equals_the_index_pair_reference():
    # canonical order, reversed and shuffled; the identity factor g(0,0) only through the
    # public call, which validates the factors before the core sees them
    rng = random.Random(25)
    count = 0
    for d in range(1, 13):
        for ell in range(1, d + 1):
            for product in spanning_products(d, ell):
                shuffled = list(product)
                rng.shuffle(shuffled)
                for order in (product, product[::-1], shuffled):
                    assert transfer._t_structural(order) == oracles.t_structural_reference(order), order
                assert apply_t_structural([(0, 0), *shuffled]) == oracles.t_structural_reference(shuffled), shuffled
                count += 1
    assert count == 3461


def test_straighten_examples():
    assert straighten_pair(2, 1, 2, 1) == {((4, 2),): 2, ((3, 1), (1, 1)): -2}
    assert straighten_pair(2, 1, 1, 1) == {((3, 2),): 1}
    assert straighten_pair(4, 1, 1, 1) == {((4, 1), (1, 1)): 1}


def test_straighten_rejects_bad_factors():
    with pytest.raises(ValueError):
        straighten_pair(1, 2, 1, 1)
    with pytest.raises(ValueError):
        straighten_pair(2, 0, 1, 1)


def _irregular_pairs(max_total: int):
    for d1 in range(1, max_total):
        for l1 in range(1, d1 + 1):
            for d2 in range(1, max_total - d1 + 1):
                for l2 in range(1, d2 + 1):
                    if not is_regular_pair(d1, l1, d2, l2):
                        yield d1, l1, d2, l2


def test_straighten_output_is_regular_and_precedes_input():
    for d1, l1, d2, l2 in _irregular_pairs(10):
        comb = straighten_pair(d1, l1, d2, l2)
        rebuilt = expand_combination(comb)
        assert rebuilt == g_poly(d1, l1) * g_poly(d2, l2), (d1, l1, d2, l2)
        for product in comb:
            assert 1 <= len(product) <= 2
            if len(product) == 2:
                (a1, b1), (a2, b2) = product
                assert is_regular_pair(a1, b1, a2, b2), product
            lead = product[0]
            assert pair_sort_key(lead) < pair_sort_key((d1, l1)), (product, (d1, l1))


def test_straighten_pair_equals_the_whole_component_solve():
    count = 0
    for d1, l1, d2, l2 in _irregular_pairs(14):
        assert straighten_pair(d1, l1, d2, l2) == oracles.straighten_pair_reference(d1, l1, d2, l2), (d1, l1, d2, l2)
        count += 1
    assert count == 1484


def test_straighten_pair_certifies_its_answer(monkeypatch, cold_caches):
    # without g(3,1)g(1,1), g(2,1)^2 = 2 g(4,2) - 2 g(3,1)g(1,1) has no solution
    real = genfun.admissible_sequences
    monkeypatch.setattr(
        genfun, "admissible_sequences", lambda d, ell: tuple(p for p in real(d, ell) if p != ((3, 1), (1, 1)))
    )
    with pytest.raises(ConsistencyError, match=r"straightening g\(2,1\)g\(2,1\)"):
        straighten_pair(2, 1, 2, 1)
    # lifting modulo 3 ends too: a b outside the span fails a step's residual check
    monkeypatch.setattr(linalg, "LU_PRIMES", (3,))
    genfun._expansion_lu.cache_clear()
    with pytest.raises(ConsistencyError, match=r"straightening g\(2,1\)g\(2,1\)"):
        straighten_pair(2, 1, 2, 1)


def test_a_candidate_off_by_the_prime_fails_the_bound_and_falls_back(monkeypatch, cold_caches):
    # modulo 3 the read-back candidate of the first step solves the system
    # modulo 3 only; the bound refuses it, and lifting modulo 9, 27, ... answers
    monkeypatch.setattr(linalg, "LU_PRIMES", (3,))
    d1, l1, d2, l2 = 5, 2, 4, 3
    expected = oracles.straighten_pair_reference(d1, l1, d2, l2)
    solves, real_solve = [], linalg.lu_solve

    def lu_solve(factors, b, modulus):
        solves.append((modulus, real_solve(factors, b, modulus)))
        return solves[-1][1]

    monkeypatch.setattr(linalg, "lu_solve", lu_solve)
    assert straighten_pair(d1, l1, d2, l2) == expected
    assert len(solves) > 1 and all(q == 3 for q, _ in solves)
    candidate = [genfun._read_back(v, 3, 1) for v in solves[0][1]]
    products, q, _, heights = genfun._expansion_lu(d1 + d2, l1 + l2, 2)
    pair = genfun._expand_canonical(((d1, l1), (d2, l2)))
    residual = dict(pair)
    for p, c in zip(products, candidate):
        for m, f in genfun._expand_canonical(p).items():
            residual[m] = residual.get(m, 0) - c * f
    assert q == 3 and not any(r % 3 for r in residual.values()) and any(residual.values())
    assert sum(abs(c) * h for c, h in zip(candidate, heights)) + max(map(abs, pair.values())) >= 3


@pytest.mark.parametrize("prime", [2**13 - 1, 3])
def test_straightening_modulo_a_small_prime_still_equals_the_rational_solve(prime, monkeypatch, cold_caches):
    # every pair with d1 + d2 <= 12 is solved modulo the small prime alone:
    # 190 of the 826 answers fail its bound after one step modulo 8191, 751
    # modulo 3, and those are lifted until the bound holds
    pairs = list(_irregular_pairs(12))
    expected = [oracles.straighten_pair_reference(*pair) for pair in pairs]
    routes, real_solve = [], linalg.lu_solve

    def lu_solve(factors, b, modulus):
        routes.append(modulus)
        return real_solve(factors, b, modulus)

    monkeypatch.setattr(linalg, "LU_PRIMES", (prime,))
    monkeypatch.setattr(linalg, "lu_solve", lu_solve)
    for pair, comb in zip(pairs, expected):
        assert straighten_pair(*pair) == comb, pair
    assert routes == [prime] * (6501 if prime == 3 else 1016)


def test_columns_singular_modulo_a_prime_are_solved_modulo_the_next(monkeypatch, cold_caches):
    # the scaled columns of g(4,2) and g(2,1)^2 are (1, 1) and (0, 2) on x1x3, x2^2:
    # dependent modulo 2, independent over Q, where g(3,1)g(1,1) = g(4,2) - g(2,1)^2 / 2
    monkeypatch.setattr(linalg, "LU_PRIMES", (2, 2**61 - 1))
    monkeypatch.setattr(genfun, "admissible_sequences", lambda d, ell: (((4, 2),), ((2, 1), (2, 1))))
    assert genfun._expansion_lu(4, 2, 2)[1] == 2**61 - 1
    b = genfun._expand_canonical(((3, 1), (1, 1)))
    assert genfun._solve(4, 2, 2, b) == ((((4, 2),), ((2, 1), (2, 1))), [1, Fraction(-1, 2)])
    # singular modulo every prime of the table
    monkeypatch.setattr(linalg, "LU_PRIMES", (2,))
    genfun._expansion_lu.cache_clear()
    with pytest.raises(ConsistencyError, match="singular"):
        genfun._solve(4, 2, 2, b)


def test_straighten_combinations_round_trip():
    # every spanning product of a component straightened in one sweep, each as its own
    # combination and all of them in one more: combinations sharing a sweep stay apart
    count = 0
    for d in range(1, 11):
        for ell in range(1, d + 1):
            basis, products = set(s_basis(d, ell)), spanning_products(d, ell)
            weighted = {p: j + 1 for j, p in enumerate(products)}
            *combs, together = straighten_combinations([*({p: 1} for p in products), weighted])
            for p, comb in zip(products, combs):
                assert set(comb) <= basis and all(comb.values()), p
                assert expand_combination(comb) == g_product_expand(p), p
                count += 1
            assert together == collect((q, (j + 1) * c) for j, comb in enumerate(combs) for q, c in comb.items())
    assert count == 1123


@pytest.mark.parametrize("mutant", ["unchanged", "swapped"])
@pytest.mark.parametrize("component", [(9, 3), (12, 4)])
def test_a_pair_result_that_does_not_precede_its_product_is_refused(monkeypatch, cold_caches, mutant, component):
    # each rewrite must land strictly earlier in basis order, or the sweep could take a product twice
    def straighten_pair(d1, l1, d2, l2):
        return {((d1, l1), (d2, l2)) if mutant == "unchanged" else ((d2, l2), (d1, l1)): 1}

    monkeypatch.setattr(transfer, "_straighten_pair", straighten_pair)
    with pytest.raises(ConsistencyError, match="which does not precede it"):
        spectral.t_matrix(*component)


def test_each_distinct_irregular_pair_is_solved_once_per_sweep(monkeypatch, cold_caches):
    solved, real = [], transfer._straighten_pair

    def straighten_pair(*pair):
        solved.append(pair)
        return real(*pair)

    monkeypatch.setattr(transfer, "_straighten_pair", straighten_pair)
    for d, ell in [(12, 4), (18, 6)]:
        solved.clear()
        combinations = [transfer._t_structural(p) for p in s_basis(d, ell)]
        straighten_combinations(combinations)
        assert solved and len(set(solved)) == len(solved), (d, ell)
        assert not any(is_regular_pair(*pair) for pair in solved), (d, ell)
        # the same pairs again in a second sweep: nothing is kept between calls
        straighten_combinations(combinations)
        assert solved[: len(solved) // 2] == solved[len(solved) // 2 :], (d, ell)


def test_alternating_identity_residual_base_case():
    # n=1, m=1, p=1, lp=1: terms -g(3,2) - g(2,1)g(1,1) + 2 g(3,2)
    assert alternating_identity_residual(1, 1, 1, 1).is_zero()
    direct = (
        -g_poly(3, 2)
        - g_poly(2, 1) * g_poly(1, 1)
        + 2 * g_poly(3, 2)
    )
    assert direct.is_zero()


def test_alternating_identity_residual_examples_and_errors():
    assert alternating_identity_residual(2, 1, 1, 1).is_zero()
    with pytest.raises(ValueError):
        alternating_identity_residual(1, 1, 2, 1)
    with pytest.raises(ValueError):
        alternating_identity_residual(1, 1, 1, 4)
    with pytest.raises(ValueError):
        alternating_identity_residual(-1, 1, 1, 1)


def test_alternating_identity_residual_sweep():
    for d in range(1, 10, 2):
        n = (d - 1) // 2
        for m in range(1, n + 2):  # m = n+1 exercises the vanishing conventions
            for p in range(1, m + 1):
                for lp in range(2 * p - 1, 2 * m):
                    assert alternating_identity_residual(n, m, p, lp).is_zero(), (n, m, p, lp)
