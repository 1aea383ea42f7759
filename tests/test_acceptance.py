"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Every check is exact (integer or rational equality); the two timed criteria
assert their wall-clock budgets.  Each test prints a single pass line when it
succeeds (run with -s to stream them); pytest itself reports any failure.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import fockspectra
from fockspectra import (
    apply_t,
    apply_t_structural,
    alternating_identity_residual,
    complete_symmetric,
    count_partitions,
    dominant_eigenvalue,
    elementary_symmetric,
    expansion_matrix,
    g_poly,
    g_product_expand,
    genfun,
    hook_leg_profile,
    inner_product,
    is_regular_pair,
    linalg,
    orthogonal_eigenbasis,
    s_basis,
    sequence_eigenvalue,
    spectral,
    spectrum,
    straighten_pair,
    t_matrix,
    verify_self_adjoint,
    verify_triangular,
)
from fockspectra.genfun import expand_combination
from fockspectra.partitions import pair_sort_key
from fockspectra.poly import Polynomial

import oracles

FLAGSHIP_SPECTRUM = [1, 3, 3, 5, 6, 7, 7, 10, 10, 10, 13, 15, 17, 19, 30]


def _report(num: int, label: str) -> None:
    print(f"criterion {num:2d} [{label}]: PASS")


def test_criterion_01_flagship_spectrum_exact_and_fast():
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "fockspectra", "spectrum", "12", "4", "--json"],
        capture_output=True,
        text=True,
        cwd=Path(fockspectra.__file__).parents[1],  # the package under test, installed or not
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["result"]["eigenvalues"] == FLAGSHIP_SPECTRUM
    assert list(spectrum(12, 4).eigenvalues) == FLAGSHIP_SPECTRUM
    assert elapsed < 5.0, f"spectrum 12 4 took {elapsed:.2f}s"
    _report(1, "spectrum 12 4")


def test_criterion_02_hook_statistics():
    profile = hook_leg_profile((7, 7, 5, 4, 3, 2))
    assert [(e.hook, e.leg) for e in profile] == [(12, 6), (10, 5), (5, 3), (1, 1)]
    assert [e.increment for e in profile] == [1, 2, 2, 1]
    _report(2, "hook/leg statistics")


def test_criterion_03_basis_dimensions_and_rank():
    for d in range(1, 15):
        for ell in range(1, d + 1):
            dim = count_partitions(d, ell)
            assert len(s_basis(d, ell)) == dim, (d, ell)
            matrix = [list(row) for row in expansion_matrix(d, ell)]
            assert linalg.rank(matrix) == dim, (d, ell)
    _report(3, "basis counts and exact rank, d <= 14")


def test_criterion_04_triangularity_formula_and_char_poly(cold_caches):
    start = time.monotonic()
    for d in range(1, 13):
        for ell in range(1, d + 1):
            ok, diag = verify_triangular(d, ell)
            assert ok, (d, ell)
            formula = sorted(sequence_eigenvalue(p) for p in s_basis(d, ell))
            assert sorted(diag) == formula, (d, ell)
            mono = [list(row) for row in t_matrix(d, ell, "monomial").entries]
            assert linalg.char_poly(mono) == linalg.poly_from_roots(formula), (d, ell)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _report(4, "triangularity + eigenvalue formula + char poly, d <= 12")


def test_criterion_05_self_adjoint_and_nonnegative_integer_spectra():
    for d in range(1, 13):
        for ell in range(1, d + 1):
            assert verify_self_adjoint(d, ell), (d, ell)
            ok, diag = verify_triangular(d, ell)
            assert ok
            for value in diag:
                assert isinstance(value, int) and value >= 0, (d, ell, value)
            for value in spectrum(d, ell).eigenvalues:
                assert isinstance(value, int) and value >= 0, (d, ell, value)
    _report(5, "self-adjointness and nonnegative integer spectra, d <= 12")


def test_criterion_06_dominant_eigenvalue():
    for d in range(1, 15):
        for ell in range(1, d + 1):
            lam = dominant_eigenvalue(d, ell)
            assert 2 * lam == (ell - 1) * (2 * d - ell)
            g = g_poly(d, ell)
            assert apply_t(g) == g * lam, (d, ell)
            assert max(spectrum(d, ell).eigenvalues) == lam, (d, ell)
    _report(6, "dominant eigenvalue and its eigenfunction, d <= 14")


def test_criterion_07_zero_eigenvalue_law():
    for d in range(1, 15):
        for ell in range(1, d + 1):
            assert (0 in spectrum(d, ell).eigenvalues) == (d >= ell * ell), (d, ell)
    _report(7, "zero eigenvalue iff d >= ell^2, d <= 14")


def test_criterion_08_structural_action_exhaustive():
    checked = 0
    for d in range(1, 11):
        for ell in range(1, d + 1):
            for product in genfun.spanning_products(d, ell):
                direct = apply_t(g_product_expand(product))
                structural = expand_combination(apply_t_structural(product))
                assert direct == structural, product
                checked += 1
    assert checked > 1000
    _report(8, f"structural action on all {checked} products, degree <= 10")


def test_criterion_09_straightening():
    checked = 0
    for total in range(2, 13):
        for d1 in range(1, total):
            d2 = total - d1
            for l1 in range(1, d1 + 1):
                for l2 in range(1, d2 + 1):
                    if is_regular_pair(d1, l1, d2, l2):
                        continue
                    comb = straighten_pair(d1, l1, d2, l2)
                    assert expand_combination(comb) == g_poly(d1, l1) * g_poly(d2, l2)
                    for product in comb:
                        assert 1 <= len(product) <= 2
                        if len(product) == 2:
                            assert is_regular_pair(*product[0], *product[1]), product
                        assert pair_sort_key(product[0]) < pair_sort_key((d1, l1))
                    checked += 1
    assert checked > 100
    _report(9, f"straightening of all {checked} irregular pairs, degree <= 12")


def test_criterion_10_alternating_identity():
    checked = 0
    for d in range(1, 12, 2):
        n = (d - 1) // 2
        for m in range(1, n + 2):
            for p in range(1, m + 1):
                for lp in range(2 * p - 1, 2 * m):
                    assert alternating_identity_residual(n, m, p, lp).is_zero(), (n, m, p, lp)
                    checked += 1
    _report(10, f"alternating identity, {checked} parameter choices, degree <= 11")


def test_criterion_11_symmetric_function_decompositions():
    order = 10
    hs = oracles.h_series_oracle(order)
    es = oracles.e_series_oracle(order)
    for k in range(1, order + 1):
        assert complete_symmetric(k) == hs[k], k
        assert elementary_symmetric(k) == es[k], k
    e = [Polynomial.one()] + [elementary_symmetric(k) for k in range(1, order + 1)]
    h = [Polynomial.one()] + [complete_symmetric(k) for k in range(1, order + 1)]
    for n in range(order + 1):
        conv = Polynomial.zero()
        for i in range(n + 1):
            conv = conv + e[i] * h[n - i] * ((-1) ** (n - i))
        assert conv == (Polynomial.one() if n == 0 else Polynomial.zero()), n
    _report(11, "h/e decompositions and e(z)h(-z) = 1, order 10")


def test_criterion_12_orthogonal_eigenbasis():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            fns = orthogonal_eigenbasis(d, ell)
            assert len(fns) == count_partitions(d, ell)
            for i in range(len(fns)):
                assert fns[i].norm_squared > 0
                for j in range(i + 1, len(fns)):
                    assert inner_product(fns[i].polynomial, fns[j].polynomial) == 0
    _report(12, "orthogonal eigenbasis, d <= 10")
