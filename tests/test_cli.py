import json
import subprocess
import sys

import pytest

from fockspectra import cli, g_poly, spectral, spectrum
from fockspectra.errors import ConsistencyError


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
    report = spectrum(4, 2, with_eigenvectors=True)
    for entry_json, entry in zip(payload["result"]["entries"], report.entries):
        assert entry_json["eigenvalue"] == entry.eigenvalue
        assert cli.gproduct_from_payload(entry_json["sequence"]) == entry.sequence
        assert cli.poly_from_payload(entry_json["eigenvector"]) == entry.eigenvector


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,sequence"
    assert lines[1] == '0,"g(3,1)g(1,1)"'
    assert lines[2] == '3,"g(4,2)"'


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
    assert cli.poly_from_payload(payload["result"]["polynomial"]) == g_poly(4, 2)


def test_straighten_output(capsys):
    code, out, _ = run_cli(capsys, "straighten", "2", "1", "2", "1")
    assert code == 0
    assert "2*g(4,2) - 2*g(3,1)g(1,1)" in out
    code, out, _ = run_cli(capsys, "straighten", "2", "1", "2", "1", "--json")
    payload = json.loads(out)
    assert payload["result"]["regular"] is False
    assert cli.gcombination_from_payload(payload["result"]["combination"]) == {
        ((4, 2),): 2,
        ((3, 1), (1, 1)): -2,
    }


def test_hooks_output(capsys):
    code, out, _ = run_cli(capsys, "hooks", "7,7,5,4,3,2")
    assert code == 0
    assert "(12,6) (10,5) (5,3) (1,1)" in out
    assert "1,2,2,1" in out
    code, out, _ = run_cli(capsys, "hooks", "7,7,5,4,3,2", "--json")
    payload = json.loads(out)
    assert payload["result"]["entries"][0] == {"hook": 12, "leg": 6, "increment": 1}


def test_tmatrix_output(capsys):
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--csv")
    assert code == 0
    assert out.strip().splitlines() == ["3,2", "0,0"]
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--basis", "monomial", "--csv")
    assert out.strip().splitlines() == ["2,2", "1,1"]
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--json")
    payload = json.loads(out)
    assert payload["result"]["rows"] == [["3/1", "2/1"], ["0/1", "0/1"]]
    labels = [cli.gproduct_from_payload(p) for p in payload["result"]["labels"]]
    assert labels == [((4, 2),), ((3, 1), (1, 1))]
    rows = [[cli.parse_fraction(v) for v in row] for row in payload["result"]["rows"]]
    assert tuple(tuple(row) for row in rows) == ((3, 2), (0, 0))
    code, out, _ = run_cli(capsys, "tmatrix", "4", "2", "--basis", "monomial", "--json")
    payload = json.loads(out)
    monos = [cli.mono_from_payload(m) for m in payload["result"]["labels"]]
    assert monos == [((1, 1), (3, 1)), ((2, 2),)]


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


def test_csv_unavailable_elsewhere(capsys):
    code, _, err = run_cli(capsys, "gpoly", "4", "2", "--csv")
    assert code == 2
    assert "--csv" in err


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
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"]["eigenvalues"] == [0, 3]
