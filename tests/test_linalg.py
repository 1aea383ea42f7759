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


Q = linalg.LU_PRIMES[0]  # 2^61 - 1


def _residue(v) -> int:
    """v modulo Q, for a rational v whose denominator Q does not divide."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, Q) % Q


def _columns(rows):
    """The columns of a dense matrix in lu_factor's (row label, value) form, modulo Q."""
    return [[(i, _residue(v)) for i, v in enumerate(col)] for col in zip(*rows)]


def _solve(factors, b):
    return linalg.lu_solve(factors, [(i, _residue(v)) for i, v in enumerate(b)], Q)


def test_lu_solve_matches_dense_inverse_on_every_component():
    # the dense inverse is the oracle, read modulo Q; b runs over the monomial
    # coordinates of T applied to each basis product, the vectors the
    # spectrum path solves for
    for d in range(1, 14):
        for ell in range(1, d + 1):
            e = [list(row) for row in expansion_matrix(d, ell)]
            factors = linalg.lu_factor(_columns(e), Q)
            # the same matrix with its rows labelled by monomial, as genfun builds it
            sparse = linalg.lu_factor(
                ([(m, _residue(c)) for m, c in g_product_expand(q).terms()] for q in s_basis(d, ell)), Q
            )
            inverse = linalg.invert(e)
            monos = monomial_basis(d, ell)
            for p in s_basis(d, ell):
                image = apply_t(g_product_expand(p))
                b = [image.coefficient(m) for m in monos]
                x = [_residue(v) for v in linalg.mat_vec(inverse, b)]
                assert _solve(factors, b) == x, (d, ell, p)
                assert linalg.lu_solve(sparse, [(m, _residue(c)) for m, c in image.terms()], Q) == x, (d, ell, p)


def _steps(rows):
    factors = linalg.lu_factor(_columns(rows), Q)
    inverse = linalg.invert([[Fraction(v) for v in row] for row in rows])
    for j in range(len(rows)):
        b = [int(i == j) for i in range(len(rows))]
        assert _solve(factors, b) == [_residue(v) for v in linalg.mat_vec(inverse, b)]
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
        linalg.lu_factor(_columns([[1, 2], [2, 4]]), Q)
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor(_columns([[0, 1], [0, 3]]), Q)
    # independent over Q, singular modulo Q
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor(_columns([[1, 1], [1, Q + 1]]), Q)
    # a wide matrix always has dependent columns
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor(_columns([[1, 2]]), Q)
    # a nonzero on a label the matrix lacks has no solution
    with pytest.raises(ValueError):
        _solve(linalg.lu_factor(_columns([[1]]), Q), [1, 1])
    assert linalg.lu_solve(linalg.lu_factor([], Q), [], Q) == []


def test_lu_solves_a_tall_system_and_checks_the_residual():
    # 4 x 2: rows 2 and 3 never pivot
    a = [[1, 0], [1, 1], [0, 2], [3, 0]]
    factors = linalg.lu_factor(_columns(a), Q)
    assert len(factors) == 2
    x0 = [Fraction(2, 3), Fraction(-5)]
    assert _solve(factors, linalg.mat_vec(a, x0)) == [_residue(v) for v in x0]
    off = linalg.mat_vec(a, x0)
    off[2] += 1
    with pytest.raises(ValueError, match="not in the column span"):
        _solve(factors, off)
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor(_columns([[1, 2], [2, 4], [0, 0]]), Q)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, n).flatmap(
            lambda k: st.lists(
                st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3)]), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
    )
)
def test_lu_agrees_with_dense_inverse(rows):
    # rows is n x k with k <= n; rank and invert are the oracles, read modulo Q.
    # Every minor is far below Q, so the rank modulo Q is the rank over Q
    a = [[Fraction(v) for v in row] for row in rows]
    n, k = len(a), len(a[0])
    if linalg.rank(a) < k:
        with pytest.raises(SingularMatrixError):
            linalg.lu_factor(_columns(a), Q)
        return
    factors = linalg.lu_factor(_columns(a), Q)
    x0 = [Fraction(j + 1, 2) - j * j for j in range(k)]
    assert _solve(factors, linalg.mat_vec(a, x0)) == [_residue(v) for v in x0]
    if n == k:
        inverse = linalg.invert(a)
        for j in range(n):
            b = [Fraction(int(i == j)) + i for i in range(n)]
            assert _solve(factors, b) == [_residue(v) for v in linalg.mat_vec(inverse, b)]
    for j in range(n):
        unit = [Fraction(int(i == j)) for i in range(n)]
        if linalg.rank([row + [u] for row, u in zip(a, unit)]) == k:
            x = _solve(factors, unit)
            assert [_residue(v) for v in linalg.mat_vec(a, x)] == [_residue(u) for u in unit]
        else:
            with pytest.raises(ValueError):
                _solve(factors, unit)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, n).flatmap(
            lambda k: st.lists(
                st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 7]), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
    ),
    st.data(),
)
def test_lu_solves_for_every_residue_and_checks_every_row(rows, data):
    n, k = len(rows), len(rows[0])
    if linalg.rank(rows) < k:
        with pytest.raises(SingularMatrixError):
            linalg.lu_factor(_columns(rows), Q)
        return
    factors = linalg.lu_factor(_columns(rows), Q)
    x0 = data.draw(st.lists(st.integers(0, Q - 1), min_size=k, max_size=k))
    b = linalg.mat_vec(rows, x0)  # far past Q: reduced by lu_solve
    assert linalg.lu_solve(factors, enumerate(b), Q) == x0
    # a nonzero residue on a label the matrix lacks
    with pytest.raises(ValueError):
        linalg.lu_solve(factors, [*enumerate(b), (n, 1)], Q)


def test_singular_expansion_matrix_is_a_consistency_error(monkeypatch, cold_caches):
    # a dependent product family in place of the basis of (4,2)
    monkeypatch.setattr(genfun, "admissible_sequences", lambda d, ell: (((4, 2),), ((4, 2),)))
    with pytest.raises(ConsistencyError, match=r"expansion matrix for component \(4,2\) is singular"):
        genfun.expand_in_gbasis(g_product_expand([(4, 2)]), 4, 2)
    # failures are not cached, so nothing built from the patched family remains
    assert genfun._expansion_lu.cache_info().currsize == 0
