from fractions import Fraction

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
from fockspectra.genfun import canonical_product, expand_combination, gcombination_str, gproduct_str

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


def test_product_expansion_examples():
    assert g_product_expand([(3, 1), (1, 1)]) == x(1) * x(3)
    assert g_product_expand([(2, 2), (3, 1)]) == x(1) ** 2 * x(3) / 2
    assert g_product_expand([]) == 1


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


def test_spanning_products_small():
    assert spanning_products(4, 2) == (
        ((4, 2),),
        ((3, 1), (1, 1)),
        ((2, 1), (2, 1)),
    )
    assert spanning_products(1, 1) == (((1, 1),),)
    assert spanning_products(2, 3) == ()


def test_rendering():
    assert gproduct_str(((3, 1), (1, 1))) == "g(3,1)g(1,1)"
    assert gproduct_str(()) == "1"
    comb = {((4, 2),): Fraction(2), ((3, 1), (1, 1)): Fraction(-2)}
    assert gcombination_str(comb) == "2*g(4,2) - 2*g(3,1)g(1,1)"
    assert gcombination_str({}) == "0"
    assert gcombination_str({(): 3, ((2, 1),): Fraction(1, 2)}) == "3 + 1/2*g(2,1)"
    comb = {((3, 1), (1, 1)): -1, ((4, 2),): Fraction(-2, 3)}
    assert gcombination_str(comb) == "-2/3*g(4,2) - g(3,1)g(1,1)"
