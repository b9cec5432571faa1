"""Acceptance battery: one test per criterion, at its stated tolerance.

Each test prints its pass/fail summary line (run with ``-s`` to see all
of them live).  Criterion 4 asks for a plateau witness gap <= 0.06: the
gap of any finite-support witness for the slow log family decays like
1/log(support), and at the default budget no witness can get below the
0.048 floor set by the finite dual optimum on 10^7 terms (README,
"Plateau criterion").
"""

import os
import subprocess
import sys

import pytest

import gibbs_series
from gibbs_series import acceptance, sequences


def _run(cid: str):
    res = acceptance.run_criterion(cid)
    print(res.summary_line())
    assert res.passed, f"criterion {cid} details: {res.details}"


def test_criterion_01_geometric_closed_form():
    _run("1")


def test_criterion_02_conjugate_exactness():
    _run("2")


def test_criterion_03_gibbs_weights():
    _run("3")


def test_criterion_04_plateau_law_and_witness():
    _run("4")


def test_criterion_05_box_reports():
    _run("5")


def test_criterion_06_gradient_sums():
    _run("6")


def test_criterion_07_alternating_series():
    _run("7")


def test_criterion_08_alternating_attainment():
    _run("8")


def test_criterion_09_fenchel_young_sweep():
    _run("9")


def test_criterion_10_domain_table():
    _run("10")


def test_parallel_run_matches_serial_from_an_empty_box_table():
    # the worker threads share the caches, and the one that runs
    # criterion 5 fills the box table
    serial = acceptance.run_all(jobs=1)
    sequences._box_table.cache_clear()
    assert acceptance.run_all(jobs=2) == serial


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cid", ["6", "9"])
def test_sampled_criteria_pass_at_other_seeds(cid, seed):
    res = acceptance.run_criterion(cid, seed=seed)
    assert res.passed, f"criterion {cid} at seed {seed}: {res.details}"
    assert res.details["seed"] == seed


def test_sampled_criteria_refuse_a_negative_seed():
    # random.Random(-1) would repeat the points of seed 1
    for cid in ("6", "9"):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            acceptance.run_criterion(cid, seed=-1)


def test_sampled_criteria_do_not_load_numpy_random():
    # the standard library draws the points: numpy.random's first use would
    # load its extension modules, ~8 ms and 5.6 MB of peak RSS
    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbs_series.__file__)))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    code = (
        "import sys\n"
        "from gibbs_series import acceptance\n"
        "assert all(acceptance.run_criterion(c).passed for c in ('6', '9'))\n"
        "print('numpy.random' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env=env,
    )
    assert done.stdout.strip() == "False"
