import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as W
from stats import MIN_SAMPLES, Tally

BENCH = Path(W.__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_unit_passes_and_matches_the_cli(name, tmp_path):
    wl = W.WORKLOADS[name]
    ctx = wl.setup()
    tally = Tally()
    W.run_unit(ctx, next(wl.units(3)), tally)
    assert tally.attempted == wl.checks_per_unit
    assert W.cross_check_signs(ctx, tally) == 0
    assert tally.failed == 0
    assert W.cli_equivalence(ctx, tmp_path) == []


def test_units_depend_on_the_seed_only():
    for name, wl in W.WORKLOADS.items():
        first = [repr(t) for t in next(wl.units(5))]
        again = [repr(t) for t in next(wl.units(5))]
        other = [repr(t) for t in next(wl.units(6))]
        assert first == again and first != other, name


def test_a_pass_holds_enough_checks_for_p90():
    for wl in W.WORKLOADS.values():
        assert wl.pass_units * wl.checks_per_unit >= MIN_SAMPLES


def test_small_ymin_rule_keeps_re_and_sets_the_level():
    import thetachar as tc

    for level in W.LEVELS:
        rng = np.random.default_rng(0)
        m = W.scaled_tau(rng, level)
        tau = tc.RiemannMatrix(m)
        assert tau.y_min == pytest.approx(level, abs=1e-12)
        rng = np.random.default_rng(0)
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(m.real, 0.1 * ((s + s.T) / 2).real)


def test_weber_batches_stay_below_the_cli_pair_count():
    import thetachar as tc

    q = tc.even_forms(3)
    with pytest.raises(ValueError):
        W.draw_pairs(W.WeberBatch("s1", q[0], q[1], 0, 1260))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weber_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
