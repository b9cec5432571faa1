"""CLI surface: JSON documents, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gibbs_series
from gibbs_series import acceptance
from gibbs_series.cli import EXIT_DOMAIN, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, dumps, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse(out: str) -> dict:
    return json.loads(out)


def child_env() -> dict:
    """Environment for a child interpreter that imports this copy of the package."""
    src = str(Path(gibbs_series.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


class TestDumps:
    def test_floats_round_trip(self):
        for x in (0.1, -2.386294361119891, 1e-300, 3.0):
            assert json.loads(dumps(x)) == x

    def test_non_finite(self):
        assert dumps(math.inf) == '"inf"'
        assert dumps(-math.inf) == '"-inf"'
        assert dumps({"a": [1, None, True]}) == '{"a": [1, null, true]}'


class TestCommands:
    def test_conjugate_document(self, capsys):
        code, out = run_cli(capsys, "conjugate", "linear", "--u", "2")
        assert code == EXIT_OK
        doc = parse(out)
        assert doc["schema"] == "gibbs-series/1"
        assert doc["value"] == pytest.approx(-2.3862944, abs=1e-6)
        assert doc["regime"] == "Interior"
        assert doc["y"] == pytest.approx(-0.6931472, abs=1e-6)

    def test_fit_box_singleton(self, capsys):
        code, out = run_cli(capsys, "fit", "box:1", "--u", "1", "--v", "3")
        assert code == EXIT_OK
        doc = parse(out)
        assert doc["status"] == "BoundarySingleton"
        assert doc["entropy"] == pytest.approx(-1.0, abs=1e-12)

    def test_eval_empty_domain_exits_2(self, capsys):
        code, out = run_cli(capsys, "eval", "loglog", "--y", "-5", "--p", "0")
        assert code == EXIT_DOMAIN
        assert parse(out)["error"] == "EmptyDomain"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("eval", "logfam:1.0000001", "--y", "0.5"), EXIT_DOMAIN),
            (("conjugate", "logfam:1.0000001", "--u", "1"), EXIT_OK),
            (("witness", "logfam:1.0000001", "--u", "3", "--eps", "0.1"), EXIT_USAGE),
        ],
        ids=["eval", "conjugate", "witness"],
    )
    def test_next_to_theta_1_reads_the_edge_class_from_the_rules(self, capsys, argv, code):
        # the edge sum f(-1) of logfam:1.0000001 to 1e-8 exceeds the term
        # budget; none of these calls needs it, so none exits 3
        assert run_cli(capsys, *argv)[0] == code

    def test_eval_value(self, capsys):
        code, out = run_cli(capsys, "eval", "linear", "--y", "-0.6931471805599453")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["midpoint"] == pytest.approx(1.0, abs=1e-9)
        assert doc["tail_bound"] <= 1e-9

    def test_infinite_slope_edge(self, capsys):
        # logfam:1.5 is closed at y = -1 with infinite slope; its edge value
        # is certified at the default tolerance well within the budget
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            K, theta = 1000, mp.mpf(1.5)

            def g(x):
                return 1 / (x * mp.log(x) ** theta)

            # Euler-Maclaurin from K; the remainder is far below 1e-15
            f_edge = (
                mp.fsum(g(n) for n in range(3, K))
                + mp.log(K) ** (1 - theta) / (theta - 1)
                + g(K) / 2
                - mp.diff(g, K, 1) / 12
                + mp.diff(g, K, 3) / 720
            )
        code, out = run_cli(capsys, "domain", "logfam:1.5")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["boundary_class"] == "ClosedInfiniteSlope"
        assert abs(doc["f_at_boundary"] - f_edge) <= doc["f_boundary_err"]
        code, out = run_cli(capsys, "eval", "logfam:1.5", "--y", "-1")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["tail_bound"] <= 1e-9
        assert doc["value"] <= f_edge <= doc["value"] + doc["tail_bound"]

    def test_domain(self, capsys):
        code, out = run_cli(capsys, "domain", "logfam:3")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["boundary_class"] == "ClosedFiniteSlope"
        assert 1.5 < doc["gamma"] < 2.2

    def test_domain_empty_is_classification_success(self, capsys):
        code, out = run_cli(capsys, "domain", "loglog")
        assert code == EXIT_OK
        assert parse(out)["boundary_class"] == "EmptyDomain"

    def test_boxconj_infinite(self, capsys):
        code, out = run_cli(capsys, "boxconj", "--u", "1", "--v", "2")
        assert code == EXIT_OK
        assert parse(out)["value"] == "inf"

    def test_boxconj_past_float64_is_a_numeric_error(self, capsys):
        code, out = run_cli(capsys, "boxconj", "--u", "1e306", "--v", "3e306")
        assert (code, parse(out)["error"]) == (EXIT_NUMERIC, "NumericError")
        assert "passed float64" in parse(out)["detail"]

    def test_logconj(self, capsys):
        code, out = run_cli(capsys, "logconj", "--v", "1")
        assert code == EXIT_OK
        assert parse(out)["value"] == 0.0

    def test_fit_infeasible_exits_2(self, capsys):
        code, out = run_cli(capsys, "fit", "box:1", "--u", "1", "--v", "2")
        assert code == EXIT_DOMAIN
        assert parse(out)["status"] == "Infeasible"

    def test_fit_infeasible_reason_shows_the_exact_comparison(self, capsys):
        # v/u rounds to s_min = 0.30000000000000004, yet v < s_min * u
        code, out = run_cli(capsys, "fit", "box:0.1", "--u", "0.3", "--v", "0.09")
        assert code == EXIT_DOMAIN
        reason = parse(out)["reason"]
        assert reason.startswith("energy 0.09 below the minimal exponent times the mass, ")
        printed = reason.split(";")[0].rsplit(", ", 1)[1]
        assert float(printed) == 0.30000000000000004 * 0.3 != 0.09

    def test_budget_bound_fit_exits_3(self, capsys):
        # 1000 terms bracket no probe of this solve to its band: the
        # start's probe raises its budget error
        code, out = run_cli(capsys, "--max-terms", "1000", "fit", "power:1.5", "--u", "1", "--v", "1000")
        assert code == EXIT_NUMERIC
        assert parse(out)["error"] == "BudgetExceeded"

    def test_witness_alternating(self, capsys):
        code, out = run_cli(
            capsys, "witness", "linear", "--u", "2", "--v", "0", "--eps", "0.05"
        )
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["kind"] == "alternating"
        assert 0.0 <= doc["gap"] <= 0.05

    def test_witness_budget_exits_3(self, capsys):
        code, out = run_cli(
            capsys,
            "--max-terms", "50000",
            "witness", "logfam:3", "--u", "3.0", "--eps", "1e-4",
        )
        assert code == EXIT_NUMERIC
        doc = parse(out)
        assert doc["error"] == "WitnessBudgetExceeded"
        assert doc["best_gap"] > 1e-4

    def test_witness_alternating_needs_unit_gaps(self, capsys):
        code, out = run_cli(
            capsys, "witness", "quadratic", "--u", "2", "--v", "0", "--eps", "0.1"
        )
        assert code == EXIT_DOMAIN
        assert parse(out)["error"] == "Infeasible"

    def test_table_example1_csv(self, capsys):
        code, out = run_cli(capsys, "--format", "csv", "table", "example1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + five rows
        assert lines[0].startswith("sequence,")

    def test_table_box_json(self, capsys):
        code, out = run_cli(capsys, "table", "box")
        doc = parse(out)
        assert code == EXIT_OK
        by_uv = {(r["u"], r["v"]): r for r in doc["rows"]}
        assert by_uv[(1.0, 3.0)]["classification"] == "ground_state"
        assert by_uv[(0.0, 2.0)]["classification"] == "empty_feasible_set"
        assert by_uv[(1.0, 4.0)]["classification"] == "interior"

    def test_fit_single_moment(self, capsys):
        code, out = run_cli(capsys, "fit", "linear", "--u", "2")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["status"] == "InteriorUnique"
        assert doc["dual_y"] == pytest.approx(-math.log(2.0), abs=1e-9)
        assert doc["weights"][0]["weight"] == pytest.approx(0.5, abs=1e-10)

    def test_witness_plateau_success(self, capsys):
        code, out = run_cli(
            capsys, "witness", "logfam:3", "--u", "3.0", "--eps", "0.3"
        )
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["kind"] == "plateau"
        assert 0.0 <= doc["gap"] <= 0.3
        assert 0.0 < doc["lam"] < 1.0

    def test_verify_single_criterion(self, capsys):
        code, out = run_cli(capsys, "verify", "7")
        doc = parse(out)
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert doc["results"][0]["id"] == "7"

    def test_verify_alias(self, capsys):
        code, out = run_cli(capsys, "verify", "alternating-series")
        assert code == EXIT_OK

    def test_verify_all_reflects_criterion_status(self, capsys, monkeypatch):
        # exit 0 iff every criterion passes: the shipped battery passes in
        # full, and a single failing criterion turns the exit numeric
        code, out = run_cli(capsys, "verify", "all")
        doc = parse(out)
        by_id = {r["id"]: r["passed"] for r in doc["results"]}
        assert by_id == {str(i): True for i in range(1, 11)}
        assert doc["passed"] is True
        assert code == EXIT_OK

        def failing(seed):
            return acceptance.CriterionResult("7", "forced failure", False)

        monkeypatch.setitem(acceptance.CRITERIA, "7", failing)
        code, out = run_cli(capsys, "verify", "all")
        doc = parse(out)
        by_id = {r["id"]: r["passed"] for r in doc["results"]}
        assert by_id == {str(i): (i != 7) for i in range(1, 11)}
        assert doc["passed"] is False
        assert code == EXIT_NUMERIC

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["eval", "power:300", "--y", "-1"], ["conjugate", "power:500", "--u", "3"]],
        ids=" ".join,
    )
    def test_exponents_past_float64(self, capsys, argv):
        # the walk stops at the last float exponent (index 10 of power:300)
        # and the envelope bounds the rest, so nothing overflows
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        doc = parse(captured.out)
        if argv[0] == "eval":
            assert doc["truncation_index"] == 10
            assert doc["value"] <= math.exp(-1.0) <= doc["value"] + doc["tail_bound"]
        else:
            # the root 2^500 exp(2^500 y) = 2 - exp(y) lies ~1e-148 from the
            # open edge 0; the reference is its 80-digit value
            assert doc["regime"] == "Interior"
            assert doc["y"] == pytest.approx(-1.0566427430477518e-148, rel=1e-12)
            assert doc["residual"] <= 1e-9 * 3

    @pytest.mark.parametrize(
        "theta, moments, mass, energy",
        [
            (300, ("--u", "1.5"), None, 1.5),
            (300, ("--u", "1.5", "--v", "3"), 1.5, 3.0),
            (1000, ("--u", "1", "--v", "1.0001"), 1.0, 1.0001),
        ],
        ids=["--u 1.5", "--u 1.5 --v 3", "power:1000 --u 1 --v 1.0001"],
    )
    def test_fit_past_float64(self, capsys, theta, moments, mass, energy):
        # the law's prefix stops at index 10, the last float exponent of
        # power:300; its weights carry the moments up to the certified
        # tails.  For power:1000 the root y ~ -6.55e-299 leaves 2^1000 w_2
        # ~ 1e-4 on index 2, and the tail after it needs an envelope from
        # an s1 past 2^1000
        code, out = run_cli(capsys, "fit", f"power:{theta}", *moments)
        doc = parse(out)
        assert code == EXIT_OK and doc["status"] == "InteriorUnique"
        pairs = [(w["index"], w["weight"]) for w in doc["weights"]]
        assert abs(math.fsum(float(n) ** theta * w for n, w in pairs) - energy) <= 1e-9 * energy
        if mass is not None:
            assert abs(math.fsum(w for _, w in pairs) - mass) <= 1e-9 * mass
        assert max(doc["tail_mass"], doc["tail_energy"]) <= 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "power:0.5", "--y=-1e307"],
            ["eval", "logfam:2", "--y=-1e307"],
            ["eval", "logfam:-1", "--y=-1e100", "--p", "1"],
        ],
        ids=" ".join,
    )
    def test_integral_tail_past_float64(self, capsys, argv):
        # the power integral's b S and the log family's gamma integrals
        # overflow float64 here: each is bounded where it does not, which
        # only raises the bound, and every term underflows to 0
        code, out = run_cli(capsys, *argv)
        doc = parse(out)
        assert code == EXIT_OK and 0.0 < doc["tail_bound"] <= 1e-300
        assert doc["value"] <= 0.0 < doc["value"] + doc["tail_bound"]

    def test_tail_past_float64_in_sigma_y(self, capsys):
        # sigma_257 y overflows: the envelope takes s1 at most 2^1000 / |y|,
        # so the geometric tail stays finite instead of NaN
        code, out = run_cli(capsys, "eval", "linear", "--y", "-1e307")
        doc = parse(out)
        assert code == EXIT_OK and math.isfinite(doc["tail_bound"])
        assert doc["value"] <= 0.0 < doc["value"] + doc["tail_bound"]

    def test_kernel_overflow_is_quiet(self, capsys):
        # sigma_n y passes -1.8e308 inside the first block; exp takes the
        # -inf products to 0 without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "power:127.7", "--y", "-100"])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, detail",
        [
            ("eval power:50 --y=-1.1125369292536007e-308 --p 1", "partial sum passed float64"),
            # a box factor whose partial sum passes float64 at k = 1792
            ("eval box:1e300 --y=-1e-310 --p 1", "partial sum passed float64"),
            # a factor's (kappa k^2)^2 passes float64 from k = 1 on: its g''
            # walk sums no term, and the product's g'^2 passes float64
            ("eval box:1e300 --y=-1e-310 --p 2", "box bracket did not reach"),
        ],
    )
    def test_sum_past_float64_is_budget_bound(self, capsys, argv, detail):
        # the partial sum passes float64: the walk stops at that block,
        # quietly, with the bracket [2^1023, inf]
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_NUMERIC, "")
        doc = parse(captured.out)
        assert detail in doc["detail"]
        assert (doc["best_value"], doc["best_tail_bound"]) == (2.0 ** 1023, "inf")

    def test_walk_cut_at_the_last_float_exponent_names_it(self, capsys):
        # power:300's fourth term at p = 2 passes float64 (4^600), so the
        # walk stops at index 3 far inside the term budget, and says so
        code = main(["eval", "power:300", "--y=-1e-300", "--p", "2"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_NUMERIC, "")
        doc = parse(captured.out)
        assert "unreachable by index 3, the last float exponent" in doc["detail"]
        assert "10000000 terms" not in doc["detail"]
        assert math.isfinite(doc["best_value"]) and doc["best_tail_bound"] == "inf"

    @pytest.mark.filterwarnings("error")
    def test_root_whose_probes_pass_float64(self, capsys):
        # probes near the edge 0 read +inf, above u, and the solve steps back
        code = main(["conjugate", "power:50", "--u", "1e300"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        doc = parse(captured.out)
        assert doc["regime"] == "Interior" and doc["residual"] <= 1e-9 * 1e300

    @pytest.mark.parametrize("y", ["-5e-1", "-1E+2", "-.5"])
    def test_negative_number_in_exponent_form(self, capsys, y):
        # argparse takes a dash-led token for an option unless it reads as
        # a negative number; these read as one, the same value as --y=<y>
        spaced = run_cli(capsys, "eval", "linear", "--y", y)
        assert spaced == run_cli(capsys, "eval", "linear", f"--y={y}")
        assert spaced[0] == EXIT_OK


class TestUsageErrors:
    def test_unknown_sequence(self, capsys):
        assert main(["eval", "cubic", "--y", "-1"]) == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert main(["conjugate", "linear"]) == EXIT_USAGE

    def test_bad_budget(self, capsys):
        assert main(["--max-terms", "10", "eval", "linear", "--y", "-1"]) == EXIT_USAGE

    def test_bad_tolerance(self, capsys):
        assert main(["--tol", "-1", "eval", "linear", "--y", "-1"]) == EXIT_USAGE

    def test_unknown_claim(self, capsys):
        assert main(["verify", "criterion-zero"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed=-1", "verify", "6"], "argument --seed: must be >= 0, got -1"),
            (["--seed", "-1", "verify", "1"], "argument --seed: must be >= 0, got -1"),
            (["--seed", "x", "verify", "1"], "argument --seed: invalid int value: 'x'"),
        ],
        ids=" ".join,
    )
    def test_bad_seed(self, capsys, argv, message):
        # a negative seed would draw the points of its absolute value
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: gibbs-series")
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["conjugate", "linear", "--u", "2"], ["fit", "linear", "--u", "2"]],
        ids=" ".join,
    )
    def test_csv_outside_table(self, capsys, argv):
        # only the scenario tables have rows to write as CSV
        assert main(["--format", "csv", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "table command only" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "linear", "--y", "nan"],
            ["eval", "linear", "--y=-inf"],
            ["logconj", "--v", "nan"],
            ["fit", "linear", "--u", "1", "--v", "nan"],
            ["conjugate", "linear", "--u", "inf"],
            ["fit", "linear", "--u", "1", "--v", "inf"],
            ["boxconj", "--u", "1", "--v", "inf"],
        ],
        ids=" ".join,
    )
    def test_non_finite_input(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a number" in captured.err


class TestMalformedSequenceSpecs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "linear:5", "--y", "-1"],
            ["eval", "quadratic:9", "--y", "-1"],
            ["domain", "loglog:7"],
            ["eval", "logfam:nan", "--y", "-1"],
            ["eval", "logfam:inf", "--y", "-2"],
            ["eval", "box:inf", "--y", "-1"],
            ["eval", "power:inf", "--y", "-1"],
        ],
        ids=" ".join,
    )
    def test_rejected_before_any_summing(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad sequence spec {argv[1]!r}")
        assert captured.err.count("\n") == 1

    def test_sequence_echo_round_trips(self, capsys):
        code, out = run_cli(capsys, "eval", "power:1.23456789", "--y", "-1")
        assert code == EXIT_OK
        assert parse(out)["sequence"] == "power:1.23456789"


class TestOtherFormatsAndErrors:
    def test_pretty_format(self, capsys):
        code, out = run_cli(capsys, "--format", "pretty", "domain", "linear")
        assert code == EXIT_OK
        assert "boundary_class: OpenBoundary" in out

    def test_pretty_table(self, capsys):
        code, out = run_cli(capsys, "--format", "pretty", "table", "box")
        rows = out.splitlines()
        assert code == EXIT_OK and len(rows) == 5
        assert rows[0].startswith("u=1.0 | v=3.0 | classification=ground_state | h_star=-1.0 |")
        assert "classification=empty_feasible_set" in rows[1]

    def test_eval_beyond_the_edge_exits_2(self, capsys):
        code, out = run_cli(capsys, "eval", "linear", "--y", "1")
        assert (code, parse(out)["error"]) == (EXIT_DOMAIN, "OutsideDomain")

    def test_root_past_the_budget_is_a_numeric_error(self, capsys, walked):
        # within 1000 terms, f'(y) = 1e300 is solved with a residual of 1e300
        code, out = run_cli(capsys, "--max-terms", "1000", "conjugate", "linear", "--u", "1e300")
        assert (code, parse(out)["error"]) == (EXIT_NUMERIC, "NumericError")

    def test_interior_logfam_conjugate(self, capsys):
        # every probe of f'(y) = u near the edge ends at the slope sandwich
        code, out = run_cli(capsys, "conjugate", "logfam:2.9", "--u", "0.6625")
        assert code == EXIT_OK
        doc = parse(out)
        assert doc["regime"] == "Interior"
        assert -1.3 < doc["y"] < -1.2

    def test_interior_logfam_conjugate_nearer_the_edge(self, capsys):
        # the second-order slope sandwich certifies f'(y) = 1 at y ~ -1.39
        # within the default budget
        code, out = run_cli(capsys, "conjugate", "logfam:1.5", "--u", "1")
        assert code == EXIT_OK
        doc = parse(out)
        assert doc["regime"] == "Interior"
        assert -1.45 < doc["y"] < -1.35

    def test_eval_budget_exhaustion_exits_3(self, capsys):
        code, out = run_cli(
            capsys,
            "--max-terms", "2000", "--tol", "1e-10",
            "eval", "logfam:3", "--y", "-1.02", "--p", "1",
        )
        assert code == EXIT_NUMERIC
        doc = parse(out)
        assert doc["error"] == "BudgetExceeded"
        assert doc["best_tail_bound"] > 1e-10

    @pytest.mark.parametrize("theta", ["1e-6", "1e-300"])
    def test_tiny_power_exponent_gives_up_within_seconds(self, theta):
        # a = p + 1/theta is past the incomplete gamma function's climb cap,
        # so no tail is certified: the walk sums its 10^7 terms and reports
        # their finite partial sum
        done = subprocess.run(
            [sys.executable, "-m", "gibbs_series.cli", "eval", f"power:{theta}", "--y", "-1"],
            capture_output=True,
            text=True,
            timeout=5,
            env=child_env(),
        )
        assert done.returncode == EXIT_NUMERIC
        doc = parse(done.stdout)
        assert doc["error"] == "BudgetExceeded"
        assert 0.0 < doc["best_value"] < math.inf

    def test_box_budget_exhaustion_names_the_box(self, capsys):
        # the bracket reported is f_box(-0.5) = 0.42749..., not its factor
        code, out = run_cli(capsys, "--tol", "1e-30", "eval", "box:1", "--y", "-0.5")
        assert code == EXIT_NUMERIC
        doc = parse(out)
        assert doc["error"] == "BudgetExceeded"
        assert "for box:1 at y=-0.5" in doc["detail"]
        assert abs(doc["best_value"] - 0.4274923674) < 1e-9

    def test_box_factor_failure_names_kappa(self, capsys):
        # the factor summed exp(0.37 k^2 y), so the message names 0.37;
        # box:1's factor is the plain quadratic and its message keeps it
        for spec, factor in (("box:0.37", "quadratic (kappa=0.37)"), ("box:1", "quadratic")):
            code, out = run_cli(capsys, "--tol", "1e-30", "eval", spec, "--y", "-0.25", "--p", "1")
            assert code == EXIT_NUMERIC
            detail = parse(out)["detail"]
            assert f"for {spec} at y=-0.25 (a factor: " in detail
            assert detail.endswith(f" for {factor} at y=-0.25)")

    def test_box_weights_are_index_triples(self, capsys):
        code, out = run_cli(capsys, "--max-weights", "3", "fit", "box:1", "--u", "1", "--v", "4")
        assert code == EXIT_OK
        doc = parse(out)
        assert [w["index"] for w in doc["weights"]] == [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
        assert all(isinstance(w["weight"], float) for w in doc["weights"])
        assert doc["weights_total"] > 3 and doc["weights_truncated"] is True

    def test_domain_honours_budget(self, capsys):
        # the slope sum of logfam:3.5 at the edge needs more than 1000 terms
        # at the default tolerance
        code, out = run_cli(capsys, "--max-terms", "1000", "domain", "logfam:3.5")
        assert code == EXIT_NUMERIC
        doc = parse(out)
        assert doc["error"] == "BudgetExceeded"
        assert "within 1000 terms" in doc["detail"]

    def test_table_example2(self, capsys):
        code, out = run_cli(capsys, "table", "example2")
        doc = parse(out)
        assert code == EXIT_OK
        assert len(doc["rows"]) == 5


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["conjugate", "linear", "--u", "2"],
            ["domain", "logfam:3"],
            ["fit", "linear", "--u", "1", "--v", "2"],
        ],
    )
    def test_byte_identical_across_processes(self, argv):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "gibbs_series.cli", *argv],
                capture_output=True,
                text=True,
                check=False,
                env=child_env(),
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert outs[0].strip()

    @pytest.mark.parametrize(
        "first,second,codes",
        [
            (["--format", "pretty", "conjugate", "linear", "--u", "2"],
             ["conjugate", "linear", "--u", "2"], (EXIT_OK, EXIT_OK)),
            (["fit", "linear", "--u", "2", "--v", "3"],
             ["fit", "linear", "--u", "2"], (EXIT_OK, EXIT_OK)),
            (["--max-terms", "1000", "domain", "logfam:3.5"],
             ["domain", "logfam:3.5"], (EXIT_NUMERIC, EXIT_OK)),
        ],
        ids=["format", "optional-v", "max-terms"],
    )
    def test_shared_parser_carries_nothing_between_calls(self, capsys, first, second, codes):
        # the parser is built once per process; an option given to one call
        # must not leak into the next, in either order
        def run(argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        a_then_b = [run(first), run(second)]
        b_then_a = [run(second), run(first)][::-1]
        assert a_then_b == b_then_a
        assert (a_then_b[0][0], a_then_b[1][0]) == codes
        assert a_then_b[0][1:] != a_then_b[1][1:]


def test_cli_import_does_not_load_scipy():
    code = "import sys, gibbs_series.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=child_env(),
    )
    assert done.stdout.strip() == "False"


def test_cli_import_defers_the_pool_and_csv_and_generates_no_dataclass_code():
    # only ``verify --jobs N`` and ``--format csv`` need these modules, and
    # the records are NamedTuples or plain classes, all but one
    code = (
        "import dataclasses, inspect, json, sys, gibbs_series.cli\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.startswith('gibbs_series')]\n"
        "dcs = sorted({c.__name__ for m in mods for _, c in inspect.getmembers(m, inspect.isclass)"
        " if c.__module__.startswith('gibbs_series') and dataclasses.is_dataclass(c)})\n"
        "print(json.dumps([sorted({'concurrent.futures', 'csv'} & set(sys.modules)), dcs]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=child_env(),
    )
    loaded, dataclasses = json.loads(done.stdout)
    assert loaded == []
    assert len(dataclasses) <= 1, dataclasses
