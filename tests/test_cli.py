import json

import numpy as np
import pytest

from thetachar import cli
from thetachar.aronhold import load_aronhold_cache
from thetachar.chars import QuadForm
from thetachar.cli import main
from thetachar.formats import format_quadform, format_system, sample_tau, save_tau
from thetachar import (
    RiemannMatrix,
    WeberResult,
    enumerate_aronhold_sets,
    even_forms,
    family_for_pair,
    form_sum,
    parse_quadform,
    reference_fundamental_system,
    sum3,
)


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


def test_jacobi_random_systems_pinned(tau_file, tmp_path):
    # the reference system, then the draws of seed 5: a change in how random
    # systems are drawn must not change which systems a seed gives
    report = tmp_path / "jacobi.json"
    argv = ["jacobi", "--tau", tau_file, "--random", "5", "--seed", "5", "--out", str(report)]
    assert main(argv) == 0
    assert [rec["system"] for rec in json.loads(report.read_text())] == [
        ["[1 0 0; 1 0 0]", "[0 1 0; 1 1 0]", "[0 0 1; 1 1 1]", "[1 0 0; 0 0 0]",
         "[0 1 0; 1 0 0]", "[0 0 1; 1 1 0]", "[0 0 0; 1 1 1]", "[0 0 0; 0 0 0]"],
        ["[0 1 1; 1 1 0]", "[1 1 1; 0 1 0]", "[1 0 0; 1 0 0]", "[0 0 1; 0 0 0]",
         "[0 1 0; 0 0 1]", "[0 0 0; 0 1 1]", "[1 0 1; 1 0 1]", "[1 1 0; 1 1 1]"],
        ["[1 1 1; 0 0 1]", "[0 0 1; 1 0 1]", "[1 0 0; 1 0 0]", "[0 0 1; 1 1 0]",
         "[0 0 0; 1 1 1]", "[1 1 1; 0 1 1]", "[0 0 0; 0 0 0]", "[1 0 0; 0 1 0]"],
        ["[1 0 0; 1 1 0]", "[1 0 1; 1 0 0]", "[1 0 0; 1 0 1]", "[1 0 1; 1 0 1]",
         "[0 1 0; 1 0 0]", "[0 1 0; 0 0 0]", "[1 1 0; 0 0 0]", "[1 1 0; 1 1 0]"],
        ["[1 0 1; 1 1 0]", "[0 1 1; 1 0 1]", "[1 1 0; 0 1 0]", "[1 0 0; 0 0 0]",
         "[1 1 1; 0 0 0]", "[0 0 0; 1 1 0]", "[0 0 1; 0 1 0]", "[0 1 0; 1 0 1]"],
        ["[1 0 1; 1 1 0]", "[0 1 0; 1 1 1]", "[1 1 1; 0 1 0]", "[0 1 1; 1 1 1]",
         "[0 0 1; 0 1 0]", "[0 0 0; 1 1 0]", "[1 1 0; 0 0 0]", "[1 0 0; 0 0 0]"],
    ]


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


def _drawn_pairs(monkeypatch, tau_file, tmp_path, *flags):
    # the pairs `weber` checks, in report order, with the checks stubbed out
    monkeypatch.setattr(cli, "bitangent_frame", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "weber_verify", lambda qs, qt, *args, **kwargs:
                        WeberResult(qs, qt, 1 + 0j, 1 + 0j, 1, 0.0))
    report = tmp_path / "weber.json"
    assert main(_eval_argv("weber", tau_file, *flags, "--out", str(report))) == 0
    return [(rec["qS"], rec["qT"]) for rec in json.loads(report.read_text())]


def test_weber_pair_draw(monkeypatch, tau_file, tmp_path):
    # --pairs 24 --seed 3 gives the pairs of the list-based rejection loop
    # the reports were first written with
    evens = even_forms(3)
    expected = [(parse_quadform("000/000"), parse_quadform("110/110"))]
    rng = np.random.default_rng(3)
    while len(expected) < 25:
        i, j = rng.integers(0, len(evens), 2)
        if i != j and (evens[i], evens[j]) not in expected:
            expected.append((evens[i], evens[j]))
    pairs = _drawn_pairs(monkeypatch, tau_file, tmp_path, "--pairs", "24", "--seed", "3")
    assert pairs == [(format_quadform(a), format_quadform(b)) for a, b in expected]

    # --pairs 1259 gives every ordered pair once, with a bounded number of
    # form comparisons (a membership scan of the drawn list makes millions)
    comparisons = 0
    form_eq = QuadForm.__eq__

    def counting_eq(self, other):
        nonlocal comparisons
        comparisons += 1
        return form_eq(self, other)

    monkeypatch.setattr(QuadForm, "__eq__", counting_eq)
    pairs = _drawn_pairs(monkeypatch, tau_file, tmp_path, "--pairs", "1259")
    names = [format_quadform(q) for q in evens]
    assert sorted(pairs) == sorted((a, b) for a in names for b in names if a != b)
    assert comparisons < len(pairs)


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


def _iota_family(monkeypatch, tau_file, index, qt):
    families = []
    monkeypatch.setattr(cli, "iota_value",
                        lambda family, *args: families.append(family) or 1 + 0j)
    assert main(["iota", "--tau", tau_file, "--aronhold-index", str(index),
                 "--qt", qt]) == 0
    return families[0]


def test_iota_index_uses_its_own_set(monkeypatch, tau_file):
    # sets 12 and 46 share a total; each index must build its own set's family
    sets = enumerate_aronhold_sets()
    q_t = parse_quadform("000/000")
    assert form_sum(sets[12]) == form_sum(sets[46])
    f = _iota_family(monkeypatch, tau_file, 46, "000/000").numerators[0].forms
    # base system (q1, q2, q3, q567, q467, q457, q456, total) back to its set
    basis = [*f[:3], sum3(f[4], f[5], f[6]), sum3(f[3], f[5], f[6]),
             sum3(f[3], f[4], f[6]), sum3(f[3], f[4], f[5])]
    assert set(basis) == set(sets[46])
    assert sum3(*basis[:3]) == q_t
    # set 12 is the first with its total, so its family is the pair's family
    assert (_iota_family(monkeypatch, tau_file, 12, "000/000")
            == family_for_pair(form_sum(sets[12]), q_t))


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
