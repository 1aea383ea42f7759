import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockspectra import (
    apply_t,
    char_poly_check,
    count_partitions,
    dominant_eigenvalue,
    eigenbasis,
    g_poly,
    g_product_expand,
    has_zero_eigenvalue,
    inner_product,
    monomial_basis,
    orthogonal_eigenbasis,
    s_basis,
    sequence_eigenvalue,
    spectrum,
    t_matrix,
    verify_self_adjoint,
    verify_triangular,
    x,
)
from fockspectra import cli, genfun, linalg, poly, spectral, transfer
from fockspectra.errors import ConsistencyError
from fockspectra.genfun import expand_combination

import oracles


def test_s_basis_examples():
    assert s_basis(4, 2) == (((4, 2),), ((3, 1), (1, 1)))
    assert s_basis(3, 2) == (((3, 2),),)
    for d in (1, 5, 9):
        assert s_basis(d, 1) == (((d, 1),),)
    assert len(s_basis(12, 4)) == 15
    assert s_basis(2, 4) == ()
    assert s_basis(3, 0) == ()


def test_t_matrix_small_component():
    mono = t_matrix(4, 2, basis="monomial")
    assert mono.entries == ((2, 2), (1, 1))
    assert mono.row_labels == monomial_basis(4, 2)
    gb = t_matrix(4, 2, basis="gbasis")
    assert gb.entries == ((3, 2), (0, 0))
    assert gb.col_labels == s_basis(4, 2)
    single = t_matrix(5, 1, basis="gbasis")
    assert single.entries == ((0,),)


def test_t_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        t_matrix(2, 4)
    with pytest.raises(ValueError):
        t_matrix(4, 2, basis="fourier")


def test_monomial_matrix_matches_the_derivative_route():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            entries = t_matrix(d, ell, basis="monomial").entries
            assert entries == oracles.monomial_t_matrix_reference(d, ell), (d, ell)
            assert all(type(v) is Fraction for row in entries for v in row), (d, ell)


def test_gbasis_matrix_matches_the_monomial_route():
    components = [(d, ell) for d in range(1, 15) for ell in range(1, d + 1)] + [(19, 6)]
    for d, ell in components:
        entries = t_matrix(d, ell, basis="gbasis").entries
        assert entries == oracles.gbasis_t_matrix_reference(d, ell), (d, ell)


def test_spectrum_takes_the_structural_route(monkeypatch, cold_caches):
    def monomial_route(*args):
        raise AssertionError("spectrum applied T to monomials")

    pairs, solves, factorisations, steps = [], [], [], []
    real_pair, real_solve, real_lu = transfer._straighten_pair, linalg.lu_solve, genfun._expansion_lu

    def straighten_pair(*args):
        pairs.append(args)
        solved = len(solves)
        try:
            return real_pair(*args)
        finally:
            pairs.pop()
            steps.append(len(solves) - solved)

    def lu_solve(factors, b, modulus):
        assert pairs, "spectrum solved a linear system outside straighten_pair"
        assert modulus == 2**61 - 1, "a straightening left the first prime"
        d1, l1, d2, l2 = pairs[-1]
        solves.append((d1 + d2, l1 + l2))
        return real_solve(factors, b, modulus)

    def expansion_lu(*args):
        factorisations.append(args)
        return real_lu(*args)

    monkeypatch.setattr(spectral, "_t_monomial", monomial_route)
    monkeypatch.setattr(transfer, "_straighten_pair", straighten_pair)
    monkeypatch.setattr(linalg, "lu_solve", lu_solve)
    monkeypatch.setattr(genfun, "_expansion_lu", expansion_lu)
    assert spectrum(12, 4).eigenvalues == (1, 3, 3, 5, 6, 7, 7, 10, 10, 10, 13, 15, 17, 19, 30)
    # one solve per distinct irregular pair, fewer than the 15 basis products
    assert 0 < solves.count((12, 4)) < 15
    # every factorisation is of the products with at most two factors, and no
    # solve lifts past its first step
    assert factorisations and all(args[2:] == (2,) for args in factorisations)
    assert steps and max(steps) == 1


def test_cold_caches_finds_the_package_caches(cold_caches):
    names = {f"{c.__module__}.{c.__name__}" for c in cold_caches}
    # the whole cache policy: each of these is read again by later calls
    assert names == {
        "fockspectra.spectral._t_matrix_entries",
        "fockspectra.genfun._expansion_lu",
        "fockspectra.genfun._expand_canonical",
        "fockspectra.partitions.admissible_sequences",
        "fockspectra.cli.build_parser",
    }
    assert all(c.cache_info().currsize == 0 for c in cold_caches)


def test_verify_triangular_examples():
    assert verify_triangular(4, 2) == (True, (3, 0))
    assert verify_triangular(3, 2) == (True, (2,))


def test_triangular_sweep():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            ok, diag = verify_triangular(d, ell)
            assert ok, (d, ell)
            assert len(diag) == count_partitions(d, ell)


def test_sequence_eigenvalue():
    assert sequence_eigenvalue(((4, 2),)) == 3
    assert sequence_eigenvalue(((3, 1), (1, 1))) == 0
    assert sequence_eigenvalue(((12, 4),)) == 30


def test_spectrum_examples():
    assert spectrum(4, 2).eigenvalues == (0, 3)
    assert spectrum(12, 4).eigenvalues == (1, 3, 3, 5, 6, 7, 7, 10, 10, 10, 13, 15, 17, 19, 30)
    for d in (1, 4, 7):
        assert spectrum(d, 1).eigenvalues == (0,)
    for d in range(1, 7):
        assert spectrum(d, d).eigenvalues == (d * (d - 1) // 2,)


def test_spectrum_report_shape():
    report = spectrum(6, 3)
    assert report.d == 6 and report.ell == 3
    assert len(report.entries) == count_partitions(6, 3)
    assert list(report.eigenvalues) == sorted(report.eigenvalues)
    for entry in report.entries:
        assert entry.eigenvalue == sequence_eigenvalue(entry.sequence)
        assert entry.eigenvector is None
    assert report.dominant == max(report.eigenvalues)


def test_spectrum_with_eigenvectors():
    report = spectrum(6, 3, with_eigenvectors=True)
    for entry in report.entries:
        assert entry.eigenvector is not None
        assert apply_t(entry.eigenvector) == entry.eigenvector * entry.eigenvalue


def test_dominant_examples():
    assert dominant_eigenvalue(12, 4) == 30
    for d in (1, 3, 8):
        assert dominant_eigenvalue(d, 1) == 0
    assert dominant_eigenvalue(4, 2) == 3


def test_dominant_eigenfunction():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            g = g_poly(d, ell)
            assert apply_t(g) == g * dominant_eigenvalue(d, ell), (d, ell)


def test_has_zero_examples():
    assert has_zero_eigenvalue(4, 2)
    assert not has_zero_eigenvalue(12, 4)
    assert has_zero_eigenvalue(1, 1)


def test_zero_law_matches_spectrum():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            assert (0 in spectrum(d, ell).eigenvalues) == (d >= ell * ell), (d, ell)


def test_eigenbasis_small_component():
    fns = eigenbasis(4, 2)
    by_value = {fn.eigenvalue: fn for fn in fns}
    assert set(by_value) == {0, 3}
    assert by_value[3].coords == (1, 0)
    assert by_value[3].polynomial == g_poly(4, 2)
    assert by_value[0].coords == (Fraction(-2, 3), 1)
    assert by_value[0].polynomial == g_product_expand([(3, 1), (1, 1)]) - g_poly(4, 2) * Fraction(2, 3)
    (fn,) = eigenbasis(3, 2)
    assert fn.eigenvalue == 2 and fn.polynomial == x(1) * x(2)


def test_eigenbasis_is_exact_and_complete():
    for d in range(1, 9):
        for ell in range(1, d + 1):
            fns = eigenbasis(d, ell)
            assert len(fns) == count_partitions(d, ell)
            m = t_matrix(d, ell, basis="gbasis").entries
            for fn in fns:
                image = linalg.mat_vec([list(r) for r in m], list(fn.coords))
                assert image == [fn.eigenvalue * c for c in fn.coords]
                assert apply_t(fn.polynomial) == fn.polynomial * fn.eigenvalue


def test_eigenbasis_matches_the_null_space_route():
    components = [(d, ell) for d in range(1, 15) for ell in range(1, d + 1)] + [(16, 8)]
    for d, ell in components:
        reference = oracles.eigenbasis_reference(d, ell)
        assert [(fn.eigenvalue, fn.coords) for fn in eigenbasis(d, ell)] == reference, (d, ell)
        basis = s_basis(d, ell)
        expected = [
            (lam, expand_combination({p: c for p, c in zip(basis, coords) if c}))
            for lam, coords in reference
        ]
        entries = spectrum(d, ell, with_eigenvectors=True).entries
        assert [(e.eigenvalue, e.eigenvector) for e in entries] == expected, (d, ell)


def _edit_flagship_matrix(monkeypatch, edit):
    """Serve the (12,4) product-basis matrix U with edit applied to its
    columns, each given as a {row index: value} dict."""
    real = spectral._t_matrix_entries

    def patched(d, ell, basis):
        columns = real(d, ell, basis)
        if (d, ell, basis) != (12, 4, "gbasis"):
            return columns
        edited = [dict(column) for column in columns]
        edit(edited)
        return tuple(tuple(sorted((i, c) for i, c in column.items() if c)) for column in edited)

    monkeypatch.setattr(spectral, "_t_matrix_entries", patched)


def test_the_certificate_guards_the_back_substitution(monkeypatch):
    values = [sequence_eigenvalue(p) for p in s_basis(12, 4)]
    i, k = [j for j, v in enumerate(values) if v == 3]

    def link(columns):  # U_ik couples the two eigenvalue-3 positions: a Jordan block
        columns[k][i] = columns[k].get(i, 0) + 1

    _edit_flagship_matrix(monkeypatch, link)
    assert spectrum(12, 4).eigenvalues.count(3) == 2  # the diagonal is still right
    with pytest.raises(ConsistencyError, match=r"eigenvalue 3 on \(12,4\) is defective"):
        eigenbasis(12, 4)
    monkeypatch.undo()

    def below(columns):  # U_ki = 1
        columns[i][k] = 1

    _edit_flagship_matrix(monkeypatch, below)
    with pytest.raises(ConsistencyError, match="not upper triangular"):
        eigenbasis(12, 4)
    monkeypatch.undo()

    a = 0
    b = next(j for j, v in enumerate(values) if v != values[a])

    def swap(columns):  # the same multiset of diagonal values at the wrong positions
        columns[a][a], columns[b][b] = columns[b][b], columns[a][a]

    _edit_flagship_matrix(monkeypatch, swap)
    with pytest.raises(ConsistencyError, match="disagrees with matrix diagonal"):
        spectrum(12, 4)
    with pytest.raises(ConsistencyError, match="disagrees with matrix diagonal"):
        eigenbasis(12, 4)


def test_eigenvectors_need_no_dense_elimination(monkeypatch, cold_caches, capsys):
    def dense(*args):
        raise AssertionError("dense elimination on the eigenvector path")

    monkeypatch.setattr(linalg, "null_space", dense)
    monkeypatch.setattr(linalg, "rref", dense)
    assert len(eigenbasis(12, 4)) == 15
    assert cli.main(["spectrum", "12", "4", "--eigenvectors", "--json"]) == 0
    assert '"eigenvector"' in capsys.readouterr().out


def test_orthogonal_eigenbasis_small_components():
    fns = orthogonal_eigenbasis(4, 2)
    assert len(fns) == 2
    assert inner_product(fns[0].polynomial, fns[1].polynomial) == 0
    for d in (1, 4, 6):
        (fn,) = orthogonal_eigenbasis(d, 1)
        assert fn.polynomial == x(d) and fn.norm_squared == 1
    (fn,) = orthogonal_eigenbasis(3, 2)
    assert fn.polynomial == x(1) * x(2) and fn.norm_squared == 1


def test_orthogonal_eigenbasis_sweep():
    for d in range(1, 9):
        for ell in range(1, d + 1):
            fns = orthogonal_eigenbasis(d, ell)
            assert len(fns) == count_partitions(d, ell)
            for i in range(len(fns)):
                assert fns[i].norm_squared > 0
                assert inner_product(fns[i].polynomial, fns[i].polynomial) == fns[i].norm_squared
                assert apply_t(fns[i].polynomial) == fns[i].polynomial * fns[i].eigenvalue
                for j in range(i + 1, len(fns)):
                    assert inner_product(fns[i].polynomial, fns[j].polynomial) == 0


@pytest.mark.parametrize(
    "component",
    [(d, ell) for d in range(1, 11) for ell in range(1, d + 1)]
    + [(12, 4), (13, 5), (14, 6), (16, 8), (14, 5)]  # the benchmark's eigen_cold components
    + [(18, 6)],  # dimension 58 with a 7-dimensional eigenspace: a long projection chain
    ids=str,
)
def test_orthogonal_eigenbasis_matches_successive_projections(component):
    fns = [(f.eigenvalue, f.polynomial, f.norm_squared) for f in orthogonal_eigenbasis(*component)]
    assert fns == oracles.gram_schmidt_reference(*component)


def test_orthogonality_check_catches_a_vector_from_another_eigenspace(monkeypatch):
    fns = eigenbasis(8, 3)
    j = max(k for k, fn in enumerate(fns) if fn.eigenvalue != fns[0].eigenvalue)
    tainted = fns[0]._replace(polynomial=fns[0].polynomial + fns[j].polynomial * Fraction(2, 7))
    monkeypatch.setattr(spectral, "eigenbasis", lambda d, ell: (tainted,) + fns[1:])
    with pytest.raises(ConsistencyError, match="not orthogonal"):
        orthogonal_eigenbasis(8, 3)


def test_gram_schmidt_rejects_a_dependent_eigenfunction(monkeypatch):
    fns = eigenbasis(8, 3)
    monkeypatch.setattr(spectral, "eigenbasis", lambda d, ell: (fns[0], fns[0]) + fns[1:])
    with pytest.raises(ConsistencyError, match=r"squared norm 0 on \(8,3\)"):
        orthogonal_eigenbasis(8, 3)


def test_orthogonal_eigenbasis_projects_in_ints(monkeypatch, cold_caches):
    def fractions(*args):
        raise AssertionError("Fraction polynomial arithmetic in Gram-Schmidt")

    monkeypatch.setattr(poly, "inner_product", fractions)
    monkeypatch.setattr(poly.Polynomial, "combine", classmethod(fractions))
    assert len(orthogonal_eigenbasis(12, 4)) == 15


def test_orthogonality_check_weighs_each_monomial_by_its_squared_norm(monkeypatch):
    # x1*x3 has squared norm 1 and x2^2 has 2, the only monomials of (4, 2)
    f = x(1) * x(3) / 3 + x(2) ** 2 / 5
    plain_orthogonal = x(1) * x(3) / 5 - x(2) ** 2 / 3  # coefficient dot product 0, <f, .> = -1/15
    weighted_orthogonal = x(1) * x(3) * Fraction(2, 7) - x(2) ** 2 * Fraction(5, 21)
    assert inner_product(f, plain_orthogonal) == Fraction(-1, 15)
    assert inner_product(f, weighted_orthogonal) == 0
    for g, orthogonal in ((weighted_orthogonal, True), (plain_orthogonal, False)):
        fake = (spectral.Eigenfunction(0, (), f), spectral.Eigenfunction(1, (), g))
        monkeypatch.setattr(spectral, "eigenbasis", lambda d, ell: fake)
        if orthogonal:
            assert [fn.polynomial for fn in orthogonal_eigenbasis(4, 2)] == [f, g]
        else:
            with pytest.raises(ConsistencyError, match="not orthogonal"):
                orthogonal_eigenbasis(4, 2)


def test_self_adjoint_hand_example():
    # monomial matrix [[2,2],[1,1]] and Gram diag(1,2) on the (4,2) component
    m = t_matrix(4, 2, basis="monomial").entries
    assert m == ((2, 2), (1, 1))
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    lhs = linalg.mat_mul(linalg.transpose([list(r) for r in m]), g)
    rhs = linalg.mat_mul(g, [list(r) for r in m])
    assert lhs == rhs == [[2, 2], [2, 2]]
    assert verify_self_adjoint(4, 2)


def test_self_adjoint_sweep():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            assert verify_self_adjoint(d, ell), (d, ell)


X1X2X2, X1X1X3 = poly.monomial({1: 1, 2: 2}), poly.monomial({1: 2, 3: 1})  # the basis of (5,3)
X1X1X4, X2X2X2 = poly.monomial({1: 2, 4: 1}), poly.monomial({2: 3})  # two of the three of (6,3)


@pytest.mark.parametrize(
    "component, m, r, change",
    [
        ((6, 3), X1X1X4, X2X2X2, lambda c: c + 1),  # M[r, m] = 1 where M[m, r] = 0: one side only
        ((5, 3), X1X2X2, X1X1X3, lambda c: 0),  # M[r, m] dropped, M[m, r] kept: one side only
        ((5, 3), X1X2X2, X1X1X3, lambda c: c + 1),  # both sides present, no longer mirrored
    ],
)
def test_self_adjointness_can_fail(monkeypatch, capsys, cold_caches, component, m, r, change):
    real = spectral._t_monomial  # the binding that builds the monomial-basis matrix

    def perturbed(mono):
        image = real(mono)
        if mono == m:
            image[r] = change(image.get(r, 0))
        return image

    monkeypatch.setattr(spectral, "_t_monomial", perturbed)
    assert not verify_self_adjoint(*component)
    others = [(d, ell) for d in range(1, 7) for ell in range(1, d + 1) if (d, ell) != component]
    assert all(verify_self_adjoint(*c) for c in others)
    assert cli.main(["verify", "--max-d", "6", "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["result"]["checks"]}
    assert checks["self-adjointness"]["failures"] == ["({},{})".format(*component)]


def test_char_poly_check_examples():
    assert char_poly_check(4, 2)
    assert char_poly_check(3, 2)
    assert char_poly_check(6, 3)


def test_char_poly_check_sweep():
    for d in range(1, 10):
        for ell in range(1, d + 1):
            assert char_poly_check(d, ell), (d, ell)


def test_char_poly_check_reads_only_the_monomial_matrix(monkeypatch):
    seen = []
    real = linalg.char_poly
    monkeypatch.setattr(linalg, "char_poly", lambda rows: seen.append(rows) or real(rows))
    assert char_poly_check(7, 3)
    # M itself by value, the same entries t_matrix holds
    assert [list(map(list, rows)) for rows in seen] == [list(map(list, t_matrix(7, 3, basis="monomial").entries))]


def _doubled(core):
    return lambda arg: {key: 2 * c for key, c in core(arg).items()}


def test_both_integer_cores_are_checked_in_the_same_units(monkeypatch, cold_caches):
    # each realization of T is checked against the eigenvalue formula or against the other,
    # so a core that computes 2T while the rest reads T fails a check
    def structural_status():
        return {c["name"]: c for c in cli._verify_checks(6)}["structural action agreement"]["status"]

    assert spectrum(12, 4).dominant == 30 and structural_status() == "pass" and char_poly_check(12, 4)
    for cache in cold_caches:
        cache.cache_clear()
    doubled = _doubled(transfer._t_structural)
    monkeypatch.setattr(spectral, "_t_structural", doubled)  # the binding that builds the product-basis matrix
    with pytest.raises(ConsistencyError, match="disagrees with matrix diagonal"):
        spectrum(12, 4)
    monkeypatch.setattr(transfer, "_t_structural", doubled)  # the binding the structural check reads
    assert structural_status() == "fail"
    monkeypatch.undo()
    for cache in cold_caches:
        cache.cache_clear()
    monkeypatch.setattr(spectral, "_t_monomial", _doubled(spectral._t_monomial))
    assert not char_poly_check(12, 4)


def test_char_poly_check_never_straightens(monkeypatch, cold_caches):
    def refuse(*args):
        raise AssertionError("char_poly_check went through the product basis")

    monkeypatch.setattr(transfer, "straighten_pair", refuse)
    assert char_poly_check(12, 4)


def test_char_poly_small_cases():
    assert linalg.char_poly([]) == [1]
    assert linalg.char_poly([[Fraction(-7, 2)]]) == [1, Fraction(7, 2)]
    a = [[Fraction(2), Fraction(2)], [Fraction(1), Fraction(1)]]
    assert linalg.char_poly(a) == [1, -3, 0]
    assert linalg.poly_from_roots([Fraction(0), Fraction(3)]) == [1, -3, 0]
    # int entries and int roots need no Fraction on the way in; the roots' coefficients stay ints
    assert linalg.char_poly([[2, 2], [1, 1]]) == [1, -3, 0]
    assert linalg.char_poly([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]) == [1, -2, Fraction(3, 4)]
    assert [type(c) for c in linalg.poly_from_roots([0, 3])] == [int, int, int]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(Fraction(0)), oracles.small_fractions), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_char_poly_matches_faddeev_on_sparse_matrices(rows):
    # about half the entries are 0, so the Hessenberg reduction meets columns
    # with nothing to eliminate and pivots that need a row/column swap
    assert linalg.char_poly(rows) == oracles.char_poly_faddeev(rows)


def _square_matrices(entries, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=100, deadline=None)
@given(_square_matrices(st.integers(-(2**70), 2**70).map(Fraction)))
@example([[Fraction(2**70), Fraction(3)], [Fraction(-5), Fraction(2**70 - 1)]])
def test_char_poly_matches_faddeev_on_integer_matrices_past_61_bits(rows):
    # the trace alone can pass 2^61, so a fixed 61-bit modulus would lift wrong residues
    assert linalg.char_poly(rows) == oracles.char_poly_faddeev(rows)


@settings(max_examples=100, deadline=None)
@given(_square_matrices(st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**40)), max_n=4))
@example([[Fraction(1, 2**40 - 87), Fraction(2**40, 3)], [Fraction(-7, 2**39 + 1), Fraction(5, 2**40 - 1)]])
def test_char_poly_matches_faddeev_on_matrices_with_large_denominators(rows):
    # with L the lcm of the denominators, L^k c_k is far past 2^61
    assert linalg.char_poly(rows) == oracles.char_poly_faddeev(rows)


def test_char_poly_refuses_a_bound_past_its_largest_prime(monkeypatch):
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (61,))
    assert linalg.char_poly([[Fraction(2**58)]]) == [1, -(2**58)]
    with pytest.raises(ValueError, match="Mersenne prime"):
        linalg.char_poly([[Fraction(2**60)]])


def test_char_poly_matches_faddeev_on_every_monomial_matrix():
    for d in range(1, 10):
        for ell in range(1, d + 1):
            m = [list(row) for row in t_matrix(d, ell, "monomial").entries]
            assert linalg.char_poly(m) == oracles.char_poly_faddeev(m), (d, ell)


def test_char_poly_check_at_dimension_58_is_fast(cold_caches):
    start = time.monotonic()
    assert char_poly_check(18, 6)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"char_poly_check(18, 6) took {elapsed:.2f}s"


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_char_poly_matches_determinant_expansion(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    assert linalg.char_poly(a) == oracles.char_poly_reference(a)


def test_invalid_component_errors():
    for fn in (spectrum, eigenbasis, orthogonal_eigenbasis, verify_self_adjoint, char_poly_check):
        with pytest.raises(ValueError):
            fn(2, 4)
        with pytest.raises(ValueError):
            fn(3, 0)
