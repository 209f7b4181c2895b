import json

import numpy as np
import pytest

from thetachar.aronhold import load_aronhold_cache
from thetachar.cli import main
from thetachar.formats import format_system, sample_tau, save_tau
from thetachar import RiemannMatrix, reference_fundamental_system


@pytest.fixture(scope="module")
def tau_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tau") / "tau.json"
    save_tau(sample_tau(1), path)
    return str(path)


@pytest.fixture(scope="module")
def bad_tau_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tau") / "diag.json"
    save_tau(RiemannMatrix(1j * np.eye(3)), path)
    return str(path)


def _eval_argv(command, tau_path, *flags):
    argv = [command, "--tau", tau_path, *flags]
    if command == "weber":
        argv += ["--qs", "000/000", "--qt", "110/110"]
    return argv


def test_chars_counts(capsys):
    assert main(["chars", "--genus", "2"]) == 0
    out = capsys.readouterr().out
    assert "genus 2: 10 even, 6 odd" in out
    assert main(["chars", "--genus", "1"]) == 0
    assert "genus 1: 3 even, 1 odd" in capsys.readouterr().out


def test_chars_genus_guard(capsys):
    assert main(["chars", "--genus", "6"]) == 2


@pytest.mark.parametrize("argv", [
    ["chars", "--genus", "0"],
    ["chars", "--genus", "-1"],
    ["jacobi", "--radius", "0"],
    ["jacobi", "--tail", "0"],
    ["jacobi", "--tail", "-1"],
    ["jacobi", "--random", "-1"],
    ["iota", "--radius", "-2"],
    ["weber", "--pairs", "1260"],
    ["weber", "--pairs", "-1"],
    ["jacobi", "--tol", "nan"],
    ["weber", "--tol", "nan"],
    ["iota", "--tol", "inf"],
    ["jacobi", "--tol", "0"],
    ["weber", "--tol", "-1"],
    ["jacobi", "--tail", "nan"],
    ["weber", "--tail", "inf"],
    ["jacobi", "--radius", "200"],
    ["iota", "--radius", "50"],
], ids=" ".join)
def test_invalid_flag_values_exit_2(argv, tau_file, no_lattice, capsys):
    if argv[0] != "chars":
        argv = _eval_argv(argv[0], tau_file, *argv[1:])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_aronhold_writes_valid_cache(tmp_path, capsys):
    out = tmp_path / "sets.json"
    assert main(["aronhold", "--out", str(out)]) == 0
    assert "288" in capsys.readouterr().out
    sets = load_aronhold_cache(out)
    assert len(sets) == 288


def test_jacobi_reference_passes(tau_file, tmp_path, capsys):
    report = tmp_path / "jacobi.json"
    code = main(["jacobi", "--tau", tau_file, "--random", "2", "--out", str(report)])
    assert code == 0
    records = json.loads(report.read_text())
    assert len(records) == 3
    for rec in records:
        assert rec["residual"] < 1e-6
        assert rec["sign"] in (-1, 1)


def test_jacobi_explicit_system_file(tau_file, tmp_path):
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps(format_system(reference_fundamental_system())))
    assert main(["jacobi", "--tau", tau_file, "--system", str(system_file)]) == 0


def test_jacobi_rejected_tau(bad_tau_file):
    assert main(["jacobi", "--tau", bad_tau_file]) == 3


@pytest.mark.parametrize("command", ["jacobi", "weber", "iota"])
def test_genus_2_matrix_exits_2(command, tmp_path, no_lattice, capsys):
    path = tmp_path / "genus2.json"
    save_tau(RiemannMatrix(1j * np.eye(2)), path)
    assert main(_eval_argv(command, str(path))) == 2
    assert "genus 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["jacobi", "weber", "iota"])
def test_matrix_past_lattice_bound_exits_3(command, tmp_path, no_lattice, capsys):
    # y_min = 1e-5 needs a radius far past the lattice bound
    path = tmp_path / "thin.json"
    save_tau(RiemannMatrix(1j * np.diag([1e-5, 1.0, 1.0])), path)
    assert main(_eval_argv(command, str(path))) == 3
    assert capsys.readouterr().err.startswith("rejected: ")


def test_jacobi_impossible_tolerance(tau_file):
    assert main(["jacobi", "--tau", tau_file, "--tol", "1e-18"]) == 1


def test_weber_single_and_extra_pairs(tau_file, tmp_path):
    report = tmp_path / "weber.json"
    code = main([
        "weber", "--tau", tau_file, "--qs", "[0 0 0; 0 0 0]", "--qt", "[1 1 0; 1 1 0]",
        "--pairs", "2", "--out", str(report),
    ])
    assert code == 0
    records = json.loads(report.read_text())
    assert len(records) == 3
    for rec in records:
        assert set(rec) == {
            "qS", "qT", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "sign",
            "relative_error",
        }
        assert rec["relative_error"] < 1e-6


def test_weber_rejects_bad_characteristic(tau_file):
    assert main(["weber", "--tau", tau_file, "--qs", "[1 0 0; 1 0 0]",
                 "--qt", "[0 0 0; 0 0 0]"]) == 2
    assert main(["weber", "--tau", tau_file, "--qs", "[0 0 0; 0 0 0]",
                 "--qt", "[0 0 0; 0 0 0]"]) == 2


def test_weber_missing_tau_file():
    assert main(["weber", "--tau", "/nonexistent/tau.json",
                 "--qs", "[0 0 0; 0 0 0]", "--qt", "[1 1 0; 1 1 0]"]) == 2


def test_sign_output(capsys):
    assert main(["sign", "--qs", "000/000", "--qt", "110/110"]) == 0
    assert capsys.readouterr().out.strip() == "+1"
    # q_s + q_t = [100;100] is odd, so the sign flips
    assert main(["sign", "--qs", "100/000", "--qt", "000/100"]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_iota_reference(tau_file, capsys):
    assert main(["iota", "--tau", tau_file]) == 0
    assert capsys.readouterr().out.strip() == "+1"


def test_iota_with_basis_selection(tau_file, tmp_path, capsys):
    report = tmp_path / "iota.json"
    code = main([
        "iota", "--tau", tau_file, "--aronhold-index", "0", "--qt", "[1 1 0; 1 1 0]",
        "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["sign"] in (-1, 1)
    assert payload["residual"] < 1e-6


def test_iota_flag_pairing(tau_file):
    assert main(["iota", "--tau", tau_file, "--aronhold-index", "0"]) == 2
    assert main(["iota", "--tau", tau_file, "--aronhold-index", "400",
                 "--qt", "[1 1 0; 1 1 0]"]) == 2


def test_reports_are_deterministic(tau_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main([
            "weber", "--tau", tau_file, "--qs", "000/000", "--qt", "110/110",
            "--pairs", "3", "--seed", "11", "--out", str(path),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
