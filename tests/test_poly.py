from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspectra import (
    Polynomial,
    apply_degree_operator,
    apply_length_operator,
    bidegree,
    count_partitions,
    inner_product,
    monomial,
    monomial_basis,
    partial_derivative,
    x,
)
from fockspectra.poly import mono_partition, mono_str, partition_monomial

import oracles


def test_bidegree_of_monomials():
    assert bidegree(monomial({1: 1})) == (1, 1)
    assert bidegree(monomial({1: 2, 2: 1})) == (4, 3)
    assert bidegree(()) == (0, 0)


def test_monomial_normalization():
    assert monomial({3: 1, 1: 2}) == ((1, 2), (3, 1))
    assert monomial({2: 0}) == ()
    with pytest.raises(ValueError):
        monomial({0: 1})
    with pytest.raises(ValueError):
        monomial({1: -1})


def test_ring_examples():
    assert x(1) * x(2) == Polynomial({monomial({1: 1, 2: 1}): 1})
    assert (x(2) + x(2) * Fraction(-1)).is_zero()
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) ** 2 - x(2) ** 2


@settings(max_examples=60)
@given(oracles.polynomials(), oracles.polynomials(), oracles.polynomials())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_partial_derivative_examples():
    assert partial_derivative(x(1) ** 2, 1) == 2 * x(1)
    assert partial_derivative(x(1) * x(3), 2).is_zero()
    assert partial_derivative(x(1) * x(3), 3) == x(1)


def test_inner_product_examples():
    assert inner_product(x(1) ** 2, x(1) ** 2) == 2
    assert inner_product(x(1) * x(3), x(2) ** 2) == 0
    assert inner_product(x(2) ** 2, x(2) ** 2) == 2


@settings(max_examples=60)
@given(oracles.polynomials(), oracles.polynomials(), st.integers(1, 6))
def test_derivative_adjoint_to_multiplication(f, g, k):
    assert inner_product(partial_derivative(f, k), g) == inner_product(f, x(k) * g)


@settings(max_examples=60)
@given(oracles.polynomials())
def test_inner_product_positive_definite(f):
    if f.is_zero():
        assert inner_product(f, f) == 0
    else:
        assert inner_product(f, f) > 0


@settings(max_examples=80)
@given(oracles.monomials(), oracles.monomials())
def test_bidegree_adds_under_multiplication(m1, m2):
    product = (Polynomial({m1: 1}) * Polynomial({m2: 1})).monomials()[0]
    assert bidegree(product).d == bidegree(m1).d + bidegree(m2).d
    assert bidegree(product).ell == bidegree(m1).ell + bidegree(m2).ell


def test_monomial_basis_examples():
    assert [mono_str(m) for m in monomial_basis(4, 2)] == ["x1*x3", "x2^2"]
    assert [mono_str(m) for m in monomial_basis(3, 2)] == ["x1*x2"]
    for d in (1, 4, 9):
        assert monomial_basis(d, 1) == (monomial({d: 1}),)
    assert monomial_basis(2, 3) == ()
    assert monomial_basis(0, 0) == ((),)


def test_monomial_basis_counts():
    for d in range(0, 13):
        for ell in range(0, d + 1):
            assert len(monomial_basis(d, ell)) == count_partitions(d, ell)


def test_monomial_partition_round_trip():
    m = monomial({1: 2, 3: 1})
    assert mono_partition(m) == (3, 1, 1)
    assert partition_monomial((3, 1, 1)) == m


def test_grading_operators():
    f = x(1) * x(3)
    assert apply_degree_operator(f) == 4 * f
    assert apply_length_operator(f) == 2 * f
    assert apply_degree_operator(Polynomial.one()).is_zero()
    assert apply_length_operator(Polynomial.one()).is_zero()


@settings(max_examples=40)
@given(oracles.polynomials())
def test_grading_operators_match_derivative_form(f):
    top = max((k for m in f.monomials() for k, _ in m), default=0)
    deg = Polynomial.zero()
    length = Polynomial.zero()
    for k in range(1, top + 1):
        deg = deg + x(k) * partial_derivative(f, k) * k
        length = length + x(k) * partial_derivative(f, k)
    assert apply_degree_operator(f) == deg
    assert apply_length_operator(f) == length


def test_bihomogeneous_bidegree():
    assert (x(1) * x(3) + x(2) ** 2 / 2).bidegree() == (4, 2)
    with pytest.raises(ValueError):
        (x(1) + x(2)).bidegree()
    with pytest.raises(ValueError):
        Polynomial.zero().bidegree()


def test_string_rendering():
    assert str(Polynomial.zero()) == "0"
    assert str(x(1) * x(3) + x(2) ** 2 / 2) == "x1*x3 + 1/2*x2^2"
    assert str(-x(2) + x(1) ** 2 / 2) == "-x2 + 1/2*x1^2"
    assert str(-Polynomial.one()) == "-1"
    assert str(x(1) - 1) == "x1 - 1"
    assert str(Polynomial({(): Fraction(-3, 2)})) == "-3/2"
