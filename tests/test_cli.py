import argparse
import json
import contextlib
import gc
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fockspectra
from fockspectra import bidegree, cli, g_poly, genfun, monomial, monomial_basis, spectral, spectrum, transfer
from fockspectra.errors import ConsistencyError

import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_human(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "2")
    assert code == 0
    assert "[0, 3]" in out
    assert "g(3,1)g(1,1)" in out


def test_spectrum_json_flagship(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "12", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert payload["status"] == "ok"
    assert payload["params"] == {"d": 12, "ell": 4, "eigenvectors": False}
    assert payload["result"]["eigenvalues"] == [1, 3, 3, 5, 6, 7, 7, 10, 10, 10, 13, 15, 17, 19, 30]
    assert payload["result"]["dominant"] == 30
    assert payload["result"]["has_zero"] is False


def test_spectrum_eigenvectors_round_trip(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "2", "--json", "--eigenvectors")
    assert code == 0
    payload = json.loads(out)
    entries = payload["result"]["entries"]
    report = spectrum(4, 2, with_eigenvectors=True)
    assert len(entries) == len(report.entries)
    for entry_json, entry in zip(entries, report.entries):
        assert entry_json["eigenvalue"] == entry.eigenvalue
        assert entry_json["sequence"] == [list(pair) for pair in entry.sequence]
        assert entry_json["eigenvector"] == json.loads(json.dumps(cli.poly_payload(entry.eigenvector)))
    assert entries == [
        {"eigenvalue": 0, "sequence": [[3, 1], [1, 1]], "eigenvector": [[[[1, 1], [3, 1]], "1/3"], [[[2, 2]], "-1/3"]]},
        {"eigenvalue": 3, "sequence": [[4, 2]], "eigenvector": [[[[1, 1], [3, 1]], "1/1"], [[[2, 2]], "1/2"]]},
    ]


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,sequence"
    assert lines[1] == '0,"g(3,1)g(1,1)"'
    assert lines[2] == '3,"g(4,2)"'


def test_spectrum_csv_computes_no_eigenvectors(capsys, monkeypatch):
    # the CSV form holds only the eigenvalue and the sequence; the other forms still read eigenbasis
    calls, real = [], spectral.eigenbasis
    monkeypatch.setattr(spectral, "eigenbasis", lambda *component: calls.append(component) or real(*component))
    code, out, _ = run_cli(capsys, "spectrum", "12", "4", "--csv", "--eigenvectors")
    assert (code, calls) == (0, [])
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "728d09e051bb38a9"  # as without --eigenvectors
    assert run_cli(capsys, "spectrum", "12", "4", "--json", "--eigenvectors")[0] == 0
    assert calls == [(12, 4)]


def test_basis_output(capsys):
    code, out, _ = run_cli(capsys, "basis", "4", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["size"] == 2
    entries = payload["result"]["entries"]
    assert entries[0] == {"product": [[4, 2]], "partition": [3, 1]}
    assert entries[1] == {"product": [[3, 1], [1, 1]], "partition": [2, 2]}
    code, out, _ = run_cli(capsys, "basis", "12", "4", "--json")
    assert json.loads(out)["result"]["size"] == 15


def test_gpoly_output(capsys):
    code, out, _ = run_cli(capsys, "gpoly", "4", "2")
    assert code == 0
    assert out.strip() == "x1*x3 + 1/2*x2^2"
    code, out, _ = run_cli(capsys, "gpoly", "4", "2", "--json")
    payload = json.loads(out)
    assert payload["result"]["polynomial"] == [[[[1, 1], [3, 1]], "1/1"], [[[2, 2]], "1/2"]]
    assert payload["result"]["polynomial"] == json.loads(json.dumps(cli.poly_payload(g_poly(4, 2))))


def test_straighten_output(capsys):
    code, out, _ = run_cli(capsys, "straighten", "2", "1", "2", "1")
    assert code == 0
    assert "2*g(4,2) - 2*g(3,1)g(1,1)" in out
    code, out, _ = run_cli(capsys, "straighten", "2", "1", "2", "1", "--json")
    payload = json.loads(out)
    assert payload["result"]["regular"] is False
    assert payload["result"]["combination"] == [[[[4, 2]], "2/1"], [[[3, 1], [1, 1]], "-2/1"]]


def test_hooks_output(capsys):
    code, out, _ = run_cli(capsys, "hooks", "7,7,5,4,3,2")
    assert code == 0
    assert "(12,6) (10,5) (5,3) (1,1)" in out
    assert "1,2,2,1" in out
    code, out, _ = run_cli(capsys, "hooks", "7,7,5,4,3,2", "--json")
    payload = json.loads(out)
    assert payload["result"]["entries"][0] == {"hook": 12, "leg": 6, "increment": 1}


def test_hooks_long_first_row():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "fockspectra", "hooks", "99999999999", "--json"],
        capture_output=True,
        text=True,
        cwd=Path(fockspectra.__file__).parents[1],
        timeout=2,
    )
    assert time.perf_counter() - start < 2
    assert result.returncode == 0
    entries = json.loads(result.stdout)["result"]["entries"]
    assert entries == [{"hook": 99999999999, "leg": 1, "increment": 1}]


def test_tmatrix_output(capsys):
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--csv")
    assert code == 0
    assert out.strip().splitlines() == ["3,2", "0,0"]
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--basis", "monomial", "--csv")
    assert out.strip().splitlines() == ["2,2", "1,1"]
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--json")
    payload = json.loads(out)
    assert payload["result"]["rows"] == [["3/1", "2/1"], ["0/1", "0/1"]]
    assert payload["result"]["labels"] == [[[4, 2]], [[3, 1], [1, 1]]]
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--basis", "monomial", "--json")
    payload = json.loads(out)
    assert payload["result"]["labels"] == [[[1, 1], [3, 1]], [[2, 2]]]
    assert payload["result"]["rows"] == [["2/1", "2/1"], ["1/1", "1/1"]]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-d", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum("PASS" in line for line in lines) == 8
    assert lines[-1] == "all checks passed"


def test_verify_trivial_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-d", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_passed"] is True


def test_verify_reports_a_spectrum_that_raises(capsys, monkeypatch):
    # spectrum() cross-checks its maximum against dominant_eigenvalue, so each component raises
    monkeypatch.setattr(spectral, "dominant_eigenvalue", lambda d, ell: -1)
    code, out, _ = run_cli(capsys, "verify", "--max-d", "3", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    for name in ("spectrum consistency", "dominant eigenvalue", "zero-eigenvalue law"):
        assert checks[name]["status"] == "fail"
        assert len(checks[name]["failures"]) == checks[name]["cases"] == 6


def test_verify_catches_a_wrong_structural_coefficient(capsys, monkeypatch):
    real = transfer._t_structural  # the integer T that the structural check reads

    def perturbed(factors):
        comb = real(factors)
        if tuple(factors) == ((3, 1), (2, 2)):
            comb[(4, 2), (1, 1)] += 1  # the true coefficient is 2
        return comb

    monkeypatch.setattr(transfer, "_t_structural", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--max-d", "6", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    structural = checks.pop("structural action agreement")
    assert (structural["status"], structural["failures"]) == ("fail", ["product g(3,1)g(2,2)"])
    assert all(c["status"] == "pass" for c in checks.values())


def test_verify_catches_a_wrong_image_of_one_monomial(capsys, monkeypatch, cold_caches):
    m = monomial({1: 1, 2: 2})  # x1*x2^2, on the component (5,3)
    real = spectral._t_monomial  # the binding that builds the monomial-basis matrix

    def perturbed(mono):
        image = real(mono)
        if mono == m:
            image[m] = image.get(m, 0) + 1  # T(m) + m
        return image

    monkeypatch.setattr(spectral, "_t_monomial", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--max-d", "6", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    structural = checks["structural action agreement"]
    containing = [p for p in genfun.spanning_products(5, 3) if genfun.g_product_expand(p).coefficient(m)]
    assert containing and structural["status"] == "fail"
    assert structural["failures"] == [f"product {genfun.gproduct_str(p)}" for p in containing]


def test_verify_keeps_a_fractional_monomial_image_exact(capsys, monkeypatch, cold_caches):
    # T(m) + m/3 puts 1/3 into the scaled image of m: no integer stands in for it
    m = monomial({1: 1, 2: 2})  # x1*x2^2, on the component (5,3)
    real = spectral._t_monomial

    def perturbed(mono):
        image = real(mono)
        if mono == m:
            image[m] = image.get(m, 0) + Fraction(1, 3)  # T(m) + m/3
        return image

    monkeypatch.setattr(spectral, "_t_monomial", perturbed)
    code, out, err = run_cli(capsys, "verify", "--max-d", "6", "--json")
    assert (code, err) == (1, "")
    structural = {c["name"]: c for c in json.loads(out)["result"]["checks"]}["structural action agreement"]
    containing = [p for p in genfun.spanning_products(5, 3) if genfun.g_product_expand(p).coefficient(m)]
    assert containing and structural["status"] == "fail"
    assert structural["failures"] == [f"product {genfun.gproduct_str(p)}" for p in containing]


def _add_to_image(exponents, target_exponents, amount):
    """spectral._t_monomial with amount added to the coefficient of one monomial in T(another)."""
    real, mono, target = spectral._t_monomial, monomial(exponents), monomial(target_exponents)

    def perturbed(m):
        image = real(m)
        if m == mono:
            image[target] = image.get(target, 0) + amount
        return image

    return perturbed


def _add_to_closed_form(product, term, amount):
    """transfer._t_structural with amount added to the coefficient of term in T(product)."""
    real = transfer._t_structural

    def perturbed(factors):
        comb = real(factors)
        if tuple(factors) == product:
            comb[term] = comb.get(term, 0) + amount
        return comb

    return perturbed


@pytest.mark.parametrize(
    "owner, name, patch",
    [
        (None, None, None),
        (spectral, "_t_monomial", lambda: _add_to_image({1: 1, 2: 2}, {1: 1, 2: 2}, Fraction(1, 3))),
        (spectral, "_t_monomial", lambda: _add_to_image({1: 2, 3: 1, 4: 1}, {2: 3, 3: 1}, 1)),
        (transfer, "_t_structural", lambda: _add_to_closed_form(((3, 1), (2, 2)), ((4, 2), (1, 1)), 1)),
        (transfer, "_t_structural", lambda: _add_to_closed_form(((4, 1), (3, 2), (2, 1)), ((6, 2), (3, 2)), -1)),
    ],
    ids=["unchanged", "fractional-diagonal", "off-diagonal", "closed-form", "closed-form-three-factors"],
)
def test_structural_check_fails_exactly_where_the_reference_does(monkeypatch, cold_caches, owner, name, patch):
    # the sweep sums on monomial indices, one component at a time; the reference, the
    # check as it was before, sums on monomial keys: equal pass/fail on every product, d <= 10
    if patch:
        monkeypatch.setattr(owner, name, patch())
    structural = {c["name"]: c for c in cli._verify_checks(10)}["structural action agreement"]
    components = [(d, ell) for d in range(1, 11) for ell in range(1, d + 1)]
    agrees = [ok for d, ell in components for ok in oracles.structural_agreement_reference(d, ell).items()]
    assert structural["cases"] == len(agrees) == 1123
    assert structural["failures"] == [f"product {genfun.gproduct_str(p)}" for p, ok in agrees if not ok]
    assert bool(structural["failures"]) == bool(patch)


def test_verify_builds_k_once_per_component_before_its_products(monkeypatch, cold_caches):
    # building K reads one norm per monomial of the component, and the check reads T(p) once per
    # product: per component, each of its norms once, then its products, then the next component
    events = []
    real_norm, real_closed = cli.mono_norm_sq, transfer._t_structural

    def norm(m):
        events.append(("norm", *bidegree(m)))
        return real_norm(m)

    def closed(p):
        events.append(("product", sum(d for d, _ in p), sum(ell for _, ell in p)))
        return real_closed(p)

    monkeypatch.setattr(cli, "mono_norm_sq", norm)
    monkeypatch.setattr(transfer, "_t_structural", closed)
    assert all(c["status"] == "pass" for c in cli._verify_checks(8))
    runs = []  # consecutive equal events, counted
    for event in events:
        if runs and runs[-1][0] == event:
            runs[-1][1] += 1
        else:
            runs.append([event, 1])
    components = [(d, ell) for d in range(1, 9) for ell in range(1, d + 1)]
    expected = []
    for d, ell in components:
        expected += [[("norm", d, ell), len(monomial_basis(d, ell))]]
        expected += [[("product", d, ell), len(genfun.spanning_products(d, ell))]]
    assert runs == expected


def test_verify_holds_one_component_s_state_at_a_time(monkeypatch, cold_caches):
    # at the first product of each component, the state the check built for the one before
    # (K's columns, the index map and the stored expansions) is held by nothing but this test
    held, leaked = {}, []
    real = transfer._t_structural

    def closed(p):
        component = (sum(d for d, _ in p), sum(ell for _, ell in p))
        if component not in held:
            for earlier, state in list(held.items())[-1:]:
                # read by index: on Python 3.10 a frame whose local holds the object is a referrer
                if any(len(gc.get_referrers(state[i])) > 1 for i in range(len(state))):
                    leaked.append(earlier)
            caller = sys._getframe(1).f_locals  # the check's frame: its arguments image_of and scaled
            cells = dict(zip(caller["scaled"].__code__.co_freevars, caller["scaled"].__closure__))
            held[component] = [caller["image_of"], cells["index"].cell_contents, cells["expanded"].cell_contents]
        return real(p)

    monkeypatch.setattr(transfer, "_t_structural", closed)
    assert all(c["status"] == "pass" for c in cli._verify_checks(6))
    assert len(held) == 21 and leaked == []


def test_verify_canonicalises_each_product_once(monkeypatch, cold_caches):
    calls = {"sorted_product": 0, "nonzero_factors": 0}

    def counted(name):
        real = getattr(genfun, name)

        def count(factors):
            calls[name] += 1
            return real(factors)

        return count

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(genfun, name, wrapper)
        monkeypatch.setattr(transfer, name, wrapper)
    assert all(c["status"] == "pass" for c in cli._verify_checks(8))
    # one sort per product that transfer builds: each product taken in, each term of T and
    # each product the straightening sweep places, sorted_product the one rule for all of them
    # (525 when the terms of T were built canonical by bisection, 3356 when the structural
    # check canonicalised each term again before reading the store).  Factors are validated
    # only at the public edge: the closed form takes the products of s_basis and
    # spanning_products, nonzero already, as they are; the 118 validations left are
    # expand_combination's, for g(d, l) in the dominant check and the alternating identity's
    # combinations (525 when the closed form validated its input too, 2305 when each term of
    # T was validated again)
    assert calls == {"sorted_product": 1319, "nonzero_factors": 118}


def test_verify_applies_t_to_each_monomial_once(monkeypatch, cold_caches):
    calls = {"apply_t": [], "matrix": [], "in apply_t": []}

    def counted(name, real):
        def count(arg):
            calls[name].append(arg)
            return real(arg)

        return count

    monkeypatch.setattr(transfer, "apply_t", counted("apply_t", transfer.apply_t))
    monkeypatch.setattr(spectral, "_t_monomial", counted("matrix", spectral._t_monomial))
    monkeypatch.setattr(transfer, "_t_monomial", counted("in apply_t", transfer._t_monomial))
    assert all(c["status"] == "pass" for c in cli._verify_checks(8))
    components = [(d, ell) for d in range(1, 9) for ell in range(1, d + 1)]
    monomials = [m for d, ell in components for m in monomial_basis(d, ell)]
    generators = [g_poly(d, ell) for d, ell in components]  # the dominant-eigenvalue check
    assert (len(monomials), len(generators)) == (66, 36)
    # the monomial-basis matrices run the integer core once per monomial
    assert sorted(calls["matrix"]) == sorted(monomials)
    # apply_t runs once per generator, and so once per monomial: g(d, ell) holds every monomial of (d, ell)
    assert sorted(map(repr, calls["apply_t"])) == sorted(map(repr, generators))
    assert sorted(calls["in apply_t"]) == sorted(monomials)


def test_verify_guard_names_the_largest_component_of_the_sweep(capsys):
    count = {(0, 0): 1}  # partitions of d into exactly ell parts, counted apart from the program
    for d in range(1, 41):
        for ell in range(1, d + 1):
            count[d, ell] = count.get((d - 1, ell - 1), 0) + count.get((d - ell, ell), 0)
    for max_d in range(1, 41):
        worst = max(count[d, ell] for d in range(1, max_d + 1) for ell in range(1, d + 1))
        code, out, _ = run_cli(capsys, "verify", "--max-d", str(max_d), "--max-dim", "0", "--json")
        assert code == 2
        assert json.loads(out)["error"] == (
            f"sweep up to d={max_d} needs dimension {worst}, above --max-dim 0"
        )
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--max-d", "300", "--json")
    assert code == 2
    assert time.perf_counter() - start < 2
    assert json.loads(out)["error"] == (
        "sweep up to d=300 needs dimension 295234932551509, above --max-dim 2000"
    )


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "spectrum", "2", "4")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "hooks", "1,2")
    assert code == 2
    code, _, err = run_cli(capsys, "straighten", "1", "2", "1", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "gpoly", "-1", "0")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_straighten_factor_errors(capsys):
    # a zero factor is refused by the package's one factor validator
    code, _, err = run_cli(capsys, "straighten", "1", "2", "1", "1")
    assert (code, err) == (2, "error: factor g(1,2) is identically zero\n")
    # the unit g(0,0) is a valid factor elsewhere, but not one of a pair
    code, out, _ = run_cli(capsys, "straighten", "0", "0", "1", "1", "--json")
    assert code == 2
    assert json.loads(out)["error"] == "factor g(0,0) is not a nonzero generator"


def test_usage_error_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "2", "4", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert "need d >= ell >= 1" in payload["error"]


def test_resource_guard(capsys):
    code, _, err = run_cli(capsys, "spectrum", "12", "4", "--max-dim", "5")
    assert code == 2
    assert "dimension" in err


def test_resource_guard_on_a_deep_component(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "3000", "2", "--max-dim", "100", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert "dimension 1500" in payload["error"]


def test_huge_components_are_refused_without_counting(capsys):
    refusals = {
        ("spectrum", "99999999999999999999", "2"):
            "component (99999999999999999999,2) has dimension 49999999999999999999, "
            "above the --max-dim limit 2000",
        ("spectrum", "20000", "10000"):
            "component (20000,10000) has dimension at least 8338334, above the --max-dim limit 2000",
        ("gpoly", "99999999999999", "3", "--max-dim", "5"):
            "component (99999999999999,3) has dimension at least 833333333333316666666666667, "
            "above the --max-dim limit 5",
        ("verify", "--max-d", "100000000000"):
            "sweep up to d=100000000000 needs dimension at least 833333333333333333333, "
            "above --max-dim 2000",
    }
    for argv, message in refusals.items():
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1, argv
        assert code == 2
        assert json.loads(out)["error"] == message


def test_a_one_element_component_of_great_length(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "spectrum", "60", "60", "--json")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["result"]["eigenvalues"] == [1770]


def test_a_coefficient_of_many_digits_prints_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "gpoly", "20000", "20000", "--json")
    assert code == 0
    [[monomial, coefficient]] = json.loads(out)["result"]["polynomial"]
    assert monomial == [[1, 20000]]
    assert coefficient.startswith("1/") and len(coefficient) == 2 + 77338  # 1/20000!
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "error, text",
    [
        (MemoryError(), "resource error: MemoryError"),
        (OverflowError("int too large"), "resource error: OverflowError: int too large"),
        (RecursionError("too deep"), "resource error: RecursionError: too deep"),
    ],
)
def test_resource_errors_exit_2_with_an_envelope(capsys, monkeypatch, error, text):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(spectral, "spectrum", exhausted)
    code, out, err = run_cli(capsys, "spectrum", "4", "2", "--json")
    assert (code, json.loads(out)["error"], err) == (2, text, "")
    code, out, err = run_cli(capsys, "spectrum", "4", "2")
    assert (code, out, err) == (2, "", f"error: {text}\n")


def test_straighten_guards_the_component_it_solves_on(capsys):
    # an irregular pair is solved on (d1 + d2, l1 + l2), here of dimension 37338
    code, out, _ = run_cli(capsys, "straighten", "40", "20", "40", "20", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert "dimension 37338" in payload["error"]
    # a regular pair is returned unchanged, so no component is too large
    code, out, _ = run_cli(capsys, "straighten", "40", "1", "20", "20", "--max-dim", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["regular"] is True


def test_a_call_does_not_inherit_the_options_of_the_previous_one(capsys):
    run_cli(capsys, "spectrum", "4", "2", "--eigenvectors", "--json")
    code, out, _ = run_cli(capsys, "spectrum", "4", "2", "--json")
    assert code == 0
    assert all("eigenvector" not in e for e in json.loads(out)["result"]["entries"])
    run_cli(capsys, "tmatrix", "4", "2", "--basis", "monomial", "--csv")
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--csv")
    assert out.strip().splitlines() == ["3,2", "0,0"]


def test_consistency_error_is_a_failure_not_a_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyError("cross-check failed on component (4,2)")

    monkeypatch.setattr(spectral, "spectrum", broken)
    code, out, err = run_cli(capsys, "spectrum", "4", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["error"] == "cross-check failed on component (4,2)"
    assert "result" not in payload and not err
    code, out, err = run_cli(capsys, "spectrum", "4", "2")
    assert code == 1
    assert err == "error: cross-check failed on component (4,2)\n"
    assert not out


def test_a_well_formed_request_is_parsed_once(capsys, monkeypatch):
    parsers = []  # the prog of each parser that parsed, in call order
    real = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_known_args", lambda self, *a, **k: parsers.append(self.prog) or real(self, *a, **k)
    )
    requests = [
        ["spectrum", "6", "3", "--eigenvectors", "--json"], ["basis", "5", "2"], ["gpoly", "4", "2", "--json"],
        ["straighten", "2", "1", "2", "1"], ["hooks", "3,1"], ["tmatrix", "4", "2", "--csv"], ["verify", "--max-d", "2"],
    ]
    for argv in requests:
        parsers.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert parsers == [f"fockspectra {argv[0]}"]
    parsers.clear()
    with pytest.raises(SystemExit) as exc:  # a leftover token goes to the top-level parser, which reports it
        cli.main(["spectrum", "8", "3", "extra"])
    assert exc.value.code == 2
    assert parsers[:2] == ["fockspectra spectrum", "fockspectra"]
    assert capsys.readouterr().err.endswith("fockspectra: error: unrecognized arguments: extra\n")


def test_a_closed_stdout_exits_2_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its write to stdout fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "fockspectra", "spectrum", "12", "4", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(fockspectra.__file__).parents[1],
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    assert (result.returncode, result.stderr) == (2, "")


@pytest.mark.parametrize("argv", [["-h"], ["spectrum", "-h"]])
def test_help_into_a_closed_stdout_exits_2_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its write of the help fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "fockspectra", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(fockspectra.__file__).parents[1],
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, "")


def test_csv_unavailable_elsewhere(capsys):
    code, _, err = run_cli(capsys, "gpoly", "4", "2", "--csv")
    assert code == 2
    assert "--csv" in err


def test_csv_is_refused_before_the_command_runs(capsys, monkeypatch):
    def sweep(max_d):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "_verify_checks", sweep)
    code, out, err = run_cli(capsys, "verify", "--max-d", "14", "--csv")
    assert (code, out, err) == (2, "", "error: --csv is only available for spectrum and tmatrix\n")


def test_verify_to_degree_14_matches_its_recorded_digest(capsys):
    # the sweep past the benchmark's d = 12: sha256 of the JSON output, first 16 hex digits
    code, out, _ = run_cli(capsys, "verify", "--max-d", "14", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "af1d6100c4f6b495"


def test_spectrum_at_dimension_199_matches_its_recorded_digest(capsys):
    # (24,6): 199 basis products, straightened through 198 irregular-pair solves
    code, out, _ = run_cli(capsys, "spectrum", "24", "6", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "d90248bc65477932"


def test_importing_the_cli_leaves_dataclasses_out():
    # dataclasses imports inspect, ast, dis and tokenize: about a fifth of a cold start
    result = subprocess.run(
        [sys.executable, "-E", "-s", "-c", "import sys, fockspectra, fockspectra.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        cwd=Path(fockspectra.__file__).parents[1],
    )
    assert result.returncode == 0, result.stderr
    assert "'fockspectra.cli'" in result.stdout
    assert "'dataclasses'" not in result.stdout


def test_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "spectrum", "6", "3", "--json", "--eigenvectors")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli(capsys, "verify", "--max-d", "3")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fockspectra", "spectrum", "4", "2", "--json"],
        capture_output=True,
        text=True,
        cwd=Path(fockspectra.__file__).parents[1],  # the package under test, installed or not
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"]["eigenvalues"] == [0, 3]


@pytest.mark.parametrize(
    "argv, seconds",
    [(("basis", "800", "790"), 2), (("spectrum", "400", "390"), 5)],
    ids=["basis", "spectrum"],
)
def test_long_thin_components_cost_what_their_dimension_says(argv, seconds):
    # dimension 42 each; an enumeration whose cost ignores the dimension takes tens of seconds here
    result = subprocess.run(
        [sys.executable, "-m", "fockspectra", *argv, "--json"],
        capture_output=True,
        text=True,
        cwd=Path(fockspectra.__file__).parents[1],
        timeout=seconds,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)["result"]
    if argv[0] == "basis":
        assert payload["size"] == 42
    else:
        eigenvalues = payload["eigenvalues"]
        assert (len(eigenvalues), eigenvalues[0], eigenvalues[-1]) == (42, 76226, 79745)


def _bench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded without writing under perfbench/, and the
    recorded output digests."""
    bench = Path(__file__).parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(workloads)
    return workloads, json.loads((bench / "digests.json").read_text())


def test_cli_output_matches_the_recorded_digests(monkeypatch):
    """Replays every recorded CLI request of the benchmark in process; the stdout
    of each must hash to its digest in perfbench/digests.json."""
    workloads, recorded = _bench_workloads(monkeypatch)
    requests = sorted(argv for mode, argv in workloads.all_requests() if mode == "cli")
    assert len(requests) > 1000
    assert ("verify", "--max-d", str(workloads.VERIFY_MAX_D), "--json") in requests
    ladder = {("spectrum", str(d), str(ell)) for d, ell in workloads.SPECTRUM_LADDER}
    assert ladder <= {argv[:3] for argv in requests}
    mismatches = []
    for argv in requests:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(list(argv))
        if workloads.digest(buf.getvalue()) != recorded[workloads.key(("cli", argv))]:
            mismatches.append(argv)
    assert mismatches == []


def test_api_output_matches_the_recorded_digests(monkeypatch):
    """Rebuilds the text of every recorded library request of the benchmark
    (perfbench/child.py's api mode): one line per orthogonal eigenfunction,
    then the certificate; it must hash to its digest in perfbench/digests.json."""
    workloads, recorded = _bench_workloads(monkeypatch)
    requests = sorted(args for mode, args in workloads.all_requests() if mode == "api")
    assert len(requests) >= 5
    mismatches = []
    for args in requests:
        d, ell = map(int, args)
        lines = [f"{f.eigenvalue} {f.norm_squared} {f.polynomial}" for f in spectral.orthogonal_eigenbasis(d, ell)]
        lines.append(f"char_poly_check {spectral.char_poly_check(d, ell)}")
        if workloads.digest("\n".join(lines) + "\n") != recorded[workloads.key(("api", args))]:
            mismatches.append(args)
    assert mismatches == []
