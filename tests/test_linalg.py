from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspectra import (
    apply_t,
    expansion_matrix,
    g_product_expand,
    genfun,
    linalg,
    monomial_basis,
    s_basis,
)
from fockspectra.errors import ConsistencyError, SingularMatrixError


def test_lu_solve_matches_dense_inverse_on_every_component():
    # the dense inverse is the oracle; b runs over the monomial coordinates of
    # T applied to each basis product, the vectors the spectrum path solves for
    for d in range(1, 14):
        for ell in range(1, d + 1):
            e = [list(row) for row in expansion_matrix(d, ell)]
            factors = linalg.lu_factor(e)
            inverse = linalg.invert(e)
            monos = monomial_basis(d, ell)
            for p in s_basis(d, ell):
                image = apply_t(g_product_expand(p))
                b = [image.coefficient(m) for m in monos]
                assert linalg.lu_solve(factors, b) == linalg.mat_vec(inverse, b), (d, ell, p)


def _steps(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    factors = linalg.lu_factor(a)
    for j in range(len(a)):
        b = [Fraction(int(i == j)) for i in range(len(a))]
        assert linalg.lu_solve(factors, b) == linalg.mat_vec(linalg.invert(a), b)
    return [(r, c) for r, c, *_ in factors]


def test_lu_pivot_order_fill_in_and_cancellation():
    # all columns tie at two nonzeros: column 0, row 0; clearing row 1 fills
    # in its column 1, which then ties column 2 and wins on index
    assert _steps([[1, 1, 0], [1, 0, 1], [0, 1, 1]]) == [(0, 0), (1, 1), (2, 2)]
    # column 1 (two nonzeros) on its shorter row 1; clearing row 0 cancels
    # its column-0 entry, leaving column 0 with one nonzero
    assert _steps([[1, 1, 1], [1, 1, 0], [1, 0, 2]]) == [(1, 1), (2, 0), (0, 2)]


def test_lu_factor_singular_and_malformed():
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(3)]])
    with pytest.raises(ValueError):
        linalg.lu_factor([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        linalg.lu_solve(linalg.lu_factor([[Fraction(1)]]), [Fraction(1), Fraction(1)])
    assert linalg.lu_solve(linalg.lu_factor([]), []) == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3)]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_lu_agrees_with_dense_inverse(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    try:
        inverse = linalg.invert(a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            linalg.lu_factor(a)
        return
    factors = linalg.lu_factor(a)
    for j in range(len(a)):
        b = [Fraction(int(i == j)) + i for i in range(len(a))]
        assert linalg.lu_solve(factors, b) == linalg.mat_vec(inverse, b)


def test_singular_expansion_matrix_is_a_consistency_error(monkeypatch, cold_caches):
    singular = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    monkeypatch.setattr(genfun, "expansion_matrix", lambda d, ell: singular)
    with pytest.raises(ConsistencyError, match=r"expansion matrix for component \(4,2\) is singular"):
        genfun.expand_in_gbasis(g_product_expand([(4, 2)]), 4, 2)
    # failures are not cached, so nothing built from the patched matrix remains
    assert genfun._expansion_lu.cache_info().currsize == 0
