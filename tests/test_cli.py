import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cvmc
from cvmc import cli

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

BASE_SCENARIO = """\
market:
  initial_price: 100.0
  rate: 0.05
  volatility: 0.2
  trading_days_per_year: 252
contract:
  kind: asian_fixed_strike
  days_to_maturity: 30
  strike: 100.0
runs: 2000
seed: 7
estimator: cv-multi
"""

ZERO_VOL_SCENARIO = """\
market:
  initial_price: 100.0
  rate: 0.05
  volatility: 0.0
contract:
  kind: asian_fixed_strike
  days_to_maturity: 5
  strike: 90.0
runs: 100
seed: 7
estimator: plain
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(text=BASE_SCENARIO, name="scenario.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestScenarioParsing:
    def test_valid_document(self):
        scenario = cli.parse_scenario(BASE_SCENARIO)
        assert scenario.market.initial_price == 100.0
        assert scenario.contract.kind == "asian_fixed_strike"
        assert scenario.estimator == "cv-multi"
        assert scenario.pilot_fraction == 0.1
        assert scenario.batch_size == 4096

    def test_unknown_field_is_an_error(self):
        text = BASE_SCENARIO.replace("  rate: 0.05\n", "  rate: 0.05\n  dividend_yield: 0.01\n")
        with pytest.raises(cli.ScenarioError, match="dividend_yield"):
            cli.parse_scenario(text)

    def test_misspelled_field_reported_as_missing(self):
        with pytest.raises(cli.ScenarioError, match="volatility"):
            cli.parse_scenario(BASE_SCENARIO.replace("volatility", "volatilty"))

    def test_missing_field_names_the_field(self):
        text = BASE_SCENARIO.replace("seed: 7\n", "")
        with pytest.raises(cli.ScenarioError, match="seed"):
            cli.parse_scenario(text)

    def test_unknown_estimator(self):
        with pytest.raises(cli.ScenarioError, match="estimator"):
            cli.parse_scenario(BASE_SCENARIO.replace("cv-multi", "cv-everything"))

    def test_invalid_nested_value_names_the_field(self):
        with pytest.raises(cli.ScenarioError, match="initial_price"):
            cli.parse_scenario(BASE_SCENARIO.replace("initial_price: 100.0", "initial_price: -5"))

    def test_wrong_type_rejected(self):
        with pytest.raises(cli.ScenarioError, match="runs"):
            cli.parse_scenario(BASE_SCENARIO.replace("runs: 2000", "runs: many"))

    def test_yaml_syntax_error_is_a_scenario_error(self):
        with pytest.raises(cli.ScenarioError, match="parse error"):
            cli.parse_scenario("market: [unclosed")

    def test_custom_estimator_requires_weights(self):
        text = BASE_SCENARIO.replace("estimator: cv-multi", "estimator: custom")
        with pytest.raises(cli.ScenarioError, match="custom_weights"):
            cli.parse_scenario(text)
        weights = "custom_weights: [" + ", ".join(["1.0"] * 30) + "]\n"
        scenario = cli.parse_scenario(text + weights)
        assert scenario.custom_weights is not None
        assert len(scenario.custom_weights) == 30

    def test_weights_forbidden_elsewhere(self):
        with pytest.raises(cli.ScenarioError, match="custom_weights"):
            cli.parse_scenario(BASE_SCENARIO + "custom_weights: [1.0]\n")

    def test_weight_count_must_match_days(self):
        text = BASE_SCENARIO.replace("estimator: cv-multi", "estimator: custom")
        with pytest.raises(cli.ScenarioError, match="30"):
            cli.parse_scenario(text + "custom_weights: [1.0, 2.0]\n")


    def test_numbers_with_an_exponent_are_numbers(self, scenario_file, capsys):
        # YAML 1.1 reads 2e-1 and 1e2 as strings; the scenario loader reads them as YAML 1.2 does
        written = BASE_SCENARIO.replace("volatility: 0.2", "volatility: 2e-1").replace("strike: 100.0", "strike: 1e2")
        outputs = []
        for text in (BASE_SCENARIO, written):
            assert cli.main(["compare", "--scenario", scenario_file(text), "--format", "csv"]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        with pytest.raises(cli.ScenarioError, match="^scenario.runs: expected an integer, got 100000.0$"):
            cli.parse_scenario(BASE_SCENARIO.replace("runs: 2000", "runs: 1e5"))
        with pytest.raises(cli.ScenarioError, match="^market.volatility: expected a number, got '0.2'$"):
            cli.parse_scenario(BASE_SCENARIO.replace("volatility: 0.2", 'volatility: "0.2"'))

    def test_no_section_prefix_is_doubled(self):
        with pytest.raises(cli.ScenarioError, match="^market.volatility: missing required field$"):
            cli.parse_scenario(BASE_SCENARIO.replace("  volatility: 0.2\n", ""))
        with pytest.raises(cli.ScenarioError, match="^contract.days_to_maturity: expected an integer, got 3.5$"):
            cli.parse_scenario(BASE_SCENARIO.replace("days_to_maturity: 30", "days_to_maturity: 3.5"))

    def test_null_optional_fields_are_their_defaults(self):
        text = BASE_SCENARIO.replace("  strike: 100.0\n", "  strike: null\n").replace("asian_fixed_strike", "lookback_floating")
        scenario = cli.parse_scenario(text + "custom_weights: null\n")
        assert scenario.contract.strike is None and scenario.custom_weights is None


# Scenarios whose values the engine refuses; the parse refuses them, and names the field.
ENGINE_REFUSED = {
    "pilot-split": (BASE_SCENARIO.replace("runs: 2000", "runs: 10"), "scenario.pilot_fraction: pilot split too small"),
    "nan-weights": (
        BASE_SCENARIO.replace("days_to_maturity: 30", "days_to_maturity: 3").replace("cv-multi", "custom")
        + "custom_weights: [.nan, 1, 1]\n",
        "scenario.custom_weights: weights must be finite",
    ),
    "overflowing-weights": (
        BASE_SCENARIO.replace("cv-multi", "custom") + "custom_weights: [" + ", ".join(["1.0e+308"] * 30) + "]\n",
        "scenario.custom_weights: custom weights overflow floating point",
    ),
    "zero-weights": (
        BASE_SCENARIO.replace("days_to_maturity: 30", "days_to_maturity: 3").replace("cv-multi", "custom")
        + "custom_weights: [0, 0, 0]\n",
        "scenario.custom_weights: weights must not be all zero",
    ),
}


class TestEngineRefusals:
    @pytest.mark.parametrize("case", sorted(ENGINE_REFUSED))
    def test_load_scenario_refuses(self, scenario_file, case):
        text, message = ENGINE_REFUSED[case]
        with pytest.raises(cli.ScenarioError, match=f"^{re.escape(message)}"):
            cli.load_scenario(scenario_file(text))

    @pytest.mark.parametrize("command", ["price", "compare"])
    @pytest.mark.parametrize("case", sorted(ENGINE_REFUSED))
    def test_price_and_compare_refuse_with_one_json_error(self, scenario_file, capsys, command, case):
        text, message = ENGINE_REFUSED[case]
        assert cli.main([command, "--scenario", scenario_file(text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error_class"] == "validation"
        assert err["message"].startswith(message)

    def test_compare_refuses_before_any_estimator_runs(self, scenario_file, capsys, monkeypatch):
        # plain takes 3 runs, but cv-single and cv-multi need 4
        calls = []
        monkeypatch.setattr(cli, "cv_estimate", lambda *args, **kwargs: calls.append(args))
        path = scenario_file(BASE_SCENARIO.replace("cv-multi", "plain").replace("runs: 2000", "runs: 3"))
        assert cli.main(["compare", "--scenario", path]) == cli.EXIT_VALIDATION
        assert calls == []
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "scenario.runs: runs must be >= 4 for a control-variate estimate, got 3"


class TestRunScenario:
    def test_zero_volatility_report_is_exact(self, scenario_file):
        report = cli.run_scenario(scenario_file(ZERO_VOL_SCENARIO))
        assert report.results["standard_error"] == 0.0
        expected = math.exp(-0.05 * 5 / 252) * (
            sum(100.0 * math.exp(0.05 * i / 252) for i in range(1, 6)) / 5 - 90.0
        )
        assert report.results["estimate"] == pytest.approx(expected, rel=1e-12)

    def test_rerun_is_bit_identical(self, scenario_file):
        path = scenario_file()
        first = cli.run_scenario(path)
        second = cli.run_scenario(path)
        assert json.dumps(first.results) == json.dumps(second.results)
        assert first.scenario == second.scenario

    def test_overrides_change_the_run(self, scenario_file):
        path = scenario_file()
        base = cli.run_scenario(path)
        more_runs = cli.run_scenario(path, runs=4000)
        other_seed = cli.run_scenario(path, seed=8)
        assert more_runs.scenario["runs"] == 4000
        assert more_runs.results["runs_used"] == 3600
        assert other_seed.results["estimate"] != base.results["estimate"]

    def test_report_schema_is_stable_across_estimators(self, scenario_file):
        cv = cli.run_scenario(scenario_file())
        plain = cli.run_scenario(
            scenario_file(BASE_SCENARIO.replace("cv-multi", "plain"), name="plain.yaml")
        )
        assert set(cv.results) == set(plain.results)
        assert plain.results["coefficients"] is None
        assert plain.results["per_control_correlations"] == []
        assert cv.results["coefficients"] is not None


class TestMainPrice:
    def test_json_output_and_exit_code(self, scenario_file, capsys):
        assert cli.main(["price", "--scenario", scenario_file()]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact_version"]
        assert payload["results"]["runs_used"] == 1800

    def test_table_format(self, scenario_file, capsys):
        assert (
            cli.main(["price", "--scenario", scenario_file(), "--format", "table"])
            == cli.EXIT_OK
        )
        out = capsys.readouterr().out
        assert "estimate" in out and "empirical_variance_ratio" in out

    def test_output_file(self, scenario_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main(["price", "--scenario", scenario_file(), "--output", str(target)])
        assert code == cli.EXIT_OK
        assert json.loads(target.read_text())["results"]["estimate"] > 0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = cli.main(["price", "--scenario", str(tmp_path / "absent.yaml")])
        assert code == cli.EXIT_IO
        err = json.loads(capsys.readouterr().err)
        assert err["error_class"] == "io"

    def test_invalid_scenario_is_validation_error(self, scenario_file, capsys):
        path = scenario_file(BASE_SCENARIO + "surprise: 1\n", name="bad.yaml")
        assert cli.main(["price", "--scenario", path]) == cli.EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error_class"] == "validation"
        assert "surprise" in err["message"]

    def test_overflowing_volatility_is_validation_error(self, scenario_file, capsys):
        path = scenario_file(BASE_SCENARIO.replace("volatility: 0.2", "volatility: 1.0e+200"))
        assert cli.main(["price", "--scenario", path]) == cli.EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error_class"] == "validation"
        assert err["message"].startswith("market: volatility must be <=")

    def test_overflow_prints_one_json_error(self, scenario_file):
        # spot and strike near the float limit overflow the moment sums; in
        # a fresh interpreter any numpy warning would reach stderr too
        text = BASE_SCENARIO.replace("100.0", "1.0e+160").replace("cv-multi", "plain")
        argv = [sys.executable, "-m", "cvmc", "price", "--scenario", scenario_file(text)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == cli.EXIT_VALIDATION
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error_class"] == "validation"
        assert "overflow" in err["message"]

    @pytest.mark.parametrize("command", ["price", "compare"])
    def test_a_rate_that_overflows_the_discount_factor_prints_one_json_error(self, scenario_file, command):
        # exp(-r * n / N) = exp(1000) for a rate of -1000 over 252 days
        text = BASE_SCENARIO.replace("rate: 0.05", "rate: -1000").replace("days_to_maturity: 30", "days_to_maturity: 252")
        argv = [sys.executable, "-m", "cvmc", command, "--scenario", scenario_file(text)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == cli.EXIT_VALIDATION
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        err = json.loads(line)
        assert err["error_class"] == "validation"
        assert err["message"] == "market.rate: rate -1000.0 over 252 days overflows the discount factor exp(1000) in floating point"

    @pytest.mark.parametrize("weight", ["1.0e+308", "1e155"])
    def test_custom_weights_that_overflow_print_one_json_error(self, scenario_file, weight):
        # in a fresh interpreter a numpy overflow warning would reach stderr too
        text = BASE_SCENARIO.replace("cv-multi", "custom") + "custom_weights: [" + ", ".join([weight] * 30) + "]\n"
        argv = [sys.executable, "-m", "cvmc", "price", "--scenario", scenario_file(text)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == cli.EXIT_VALIDATION
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        err = json.loads(line)
        assert err["error_class"] == "validation"
        assert err["message"] == (
            "scenario.custom_weights: custom weights overflow floating point: their sum times the daily mean "
            "or their sum of squares times the daily variance is not finite"
        )

    def test_a_scenario_too_large_for_memory_prints_one_json_error(self, scenario_file):
        # 10^15 days: numpy refuses the petabyte arrays at once, touching no memory
        text = BASE_SCENARIO.replace("days_to_maturity: 30", "days_to_maturity: 1000000000000000")
        argv = [sys.executable, "-m", "cvmc", "price", "--scenario", scenario_file(text)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == cli.EXIT_VALIDATION
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error_class"] == "validation"
        assert err["message"].startswith("the scenario does not fit in memory: ")

    @pytest.mark.parametrize("command", ["price", "compare"])
    @pytest.mark.parametrize("source", ["[pilot]", "{pilot: 1}"], ids=["list", "mapping"])
    def test_unhashable_coefficient_source_prints_one_json_error(self, scenario_file, command, source):
        text = BASE_SCENARIO + f"coefficient_source: {source}\n"
        argv = [sys.executable, "-m", "cvmc", command, "--scenario", scenario_file(text)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == cli.EXIT_VALIDATION
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error_class"] == "validation"
        assert err["message"].startswith("scenario.coefficient_source:")

    def test_runs_override_below_minimum_rejected(self, scenario_file, capsys):
        # the overrides are checked by parse_scenario, like the file's values
        for field, value in (("runs", "1"), ("seed", "-1")):
            argv = ["price", "--scenario", scenario_file(), f"--{field}", value]
            assert cli.main(argv) == cli.EXIT_VALIDATION
            assert json.loads(capsys.readouterr().err)["message"].startswith(f"scenario.{field}:")


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    path = tmp_path_factory.mktemp("cmp") / "scenario.yaml"
    path.write_text(BASE_SCENARIO.replace("runs: 2000", "runs: 20000"))
    return cli.compare_estimators(str(path))


class TestMainCompare:
    def test_row_order_and_plain_ratio(self, comparison):
        assert [row["estimator"] for row in comparison.rows] == [
            "plain",
            "cv-single",
            "cv-multi",
        ]
        assert comparison.rows[0]["empirical_variance_ratio"] == 1.0

    def test_ratios_nonincreasing_with_slack(self, comparison):
        ratios = [row["empirical_variance_ratio"] for row in comparison.rows]
        assert ratios[1] <= ratios[0] + 0.02
        assert ratios[2] <= ratios[1] + 0.02

    def test_estimates_mutually_consistent(self, comparison):
        for a, b in itertools.combinations(comparison.rows, 2):
            combined = math.hypot(a["standard_error"], b["standard_error"])
            assert abs(a["estimate"] - b["estimate"]) < 4 * combined

    def test_csv_format(self, scenario_file, capsys):
        code = cli.main(["compare", "--scenario", scenario_file(), "--format", "csv"])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("estimator,estimate,standard_error")
        assert len(lines) == 4

    def test_table_format(self, scenario_file, capsys):
        code = cli.main(["compare", "--scenario", scenario_file(), "--format", "table"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("cv-multi")

    def test_zero_volatility_rejected(self, scenario_file, capsys):
        path = scenario_file(
            ZERO_VOL_SCENARIO.replace("estimator: plain", "estimator: cv-multi"),
            name="zero.yaml",
        )
        assert cli.main(["compare", "--scenario", path]) == cli.EXIT_VALIDATION


class TestMainCheckInequality:
    def test_all_trials_pass(self, capsys):
        code = cli.main(["check-ineq", "--trials", "200", "--seed", "5"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == payload["trials"] == 200
        assert payload["max_violation"] <= 1e-12
        witness = payload["equality_witness"]
        assert witness["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert witness["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_single_trial_deterministic(self, capsys):
        cli.main(["check-ineq", "--trials", "1", "--seed", "13"])
        first = json.loads(capsys.readouterr().out)
        cli.main(["check-ineq", "--trials", "1", "--seed", "13"])
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_table_format(self, capsys):
        code = cli.main(["check-ineq", "--trials", "10", "--seed", "3", "--format", "table"])
        assert code == cli.EXIT_OK
        assert "equality witness" in capsys.readouterr().out

    def test_zero_trials_rejected(self, capsys):
        assert cli.main(["check-ineq", "--trials", "0"]) == cli.EXIT_VALIDATION

    def test_bad_trials_error_names_the_flag(self, capsys):
        assert cli.main(["check-ineq", "--trials", "-2", "--seed", "1"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in json.loads(captured.err)["message"]

    @pytest.mark.parametrize("seed", ["-1", str(2**65)])
    def test_seed_outside_64_bits_rejected(self, seed, capsys):
        assert cli.main(["check-ineq", "--trials", "5", "--seed", seed]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in json.loads(captured.err)["message"]


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs ~70 MB and ~1 s to import; cvmc needs none of it
    code = "import sys, cvmc, cvmc.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # scipy is not a runtime dependency: with it unimportable, the CLI
    # still checks the inequality and prices a scenario
    scenario = SCENARIOS / "asian_fixed_benchmark.yaml"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cvmc import cli\n"
        "codes = [cli.main(['check-ineq', '--trials', '20']),\n"
        f"         cli.main(['price', '--scenario', {str(scenario)!r}, '--runs', '2000'])]\n"
        "print(codes)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0]"


def test_one_lane_runs_do_not_import_concurrent_futures():
    # importing concurrent.futures takes about 9 ms: only a call on two lanes pays it
    scenario = SCENARIOS / "asian_fixed_benchmark.yaml"
    code = (
        "import sys, cvmc, cvmc.cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        f"code = cvmc.cli.main(['price', '--scenario', {str(scenario)!r}, '--runs', '2000'])\n"
        "print(code, loaded + ['concurrent.futures' in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 [False, False]"


def test_package_version_is_the_project_version():
    # by a regex: Python 3.10 has no tomllib
    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)[1] == cvmc.__version__
