"""Command-line contract: every subcommand returns 0 and writes a summary
that validates against the shipped schema; bad input returns 1 with a
one-line JSON error record on stderr."""

import json
import math
from importlib.resources import files

import jsonschema
import pytest

from betamix import cli, sensitivity
from betamix.cli import main
from betamix.config import write_rows_csv
from betamix.likelihood import ProfileInterval
from betamix.priors import ELICIT_COVERAGE
from betamix.simulate import simulate_study

SCHEMA = json.loads((files("betamix") / "schemas" / "summary.schema.json").read_text())


def _validated(out_dir, command: str) -> dict:
    summary = json.loads((out_dir / f"{command}_summary.json").read_text())
    jsonschema.validate(summary, SCHEMA)
    assert summary["command"] == command
    return summary


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    assert main(["simulate", "--n-groups", "4", "--n-total", "60", "--out-dir", str(out)]) == 0
    summary = _validated(out, "simulate")
    assert summary["model"]["n_obs"] == 60 and summary["model"]["n_groups"] == 4
    return out / summary["files"]["data"]


@pytest.mark.parametrize(
    "argv, command",
    [
        (["fit"], "fit"),
        (["ml"], "ml"),
        (["mcmc"], "mcmc"),
        (["compare"], "compare"),
        (["sensitivity", "--param", "tau", "--targets", "0.1"], "sensitivity"),
    ],
    ids=["fit", "ml", "mcmc", "compare", "sensitivity"],
)
def test_subcommand_writes_a_valid_summary(study_csv, tmp_path, argv, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"engine": {"chains": 2, "iterations": 300, "burn_in": 100, "thin": 1}}
    ))
    out = tmp_path / "out"
    code = main([*argv, "--data", str(study_csv), "--config", str(config), "--out-dir", str(out)])
    assert code == 0
    summary = _validated(out, command)
    if command == "mcmc":
        # site labels are the sampler's string keys, written as they are
        assert {"('beta',)", "('theta',)"} <= set(summary["diagnostics"]["acceptance"])
    if command == "sensitivity":
        # a q = 1 scan reweights the default fit; the schema holds both fields
        (row,) = summary["rows"]
        assert row["method"] == "reweighted" and row["extension_solves"] >= 0
        for key, bad in (("method", "resampled"), ("extension_solves", -1),
                         ("extension_solves", 0.5)):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**summary, "rows": [{**row, key: bad}]}, SCHEMA)


@pytest.fixture(scope="module")
def slope_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("slope_study")
    assert main(["simulate", "--random", "intercept+slope", "--n-groups", "4",
                 "--n-total", "60", "--out-dir", str(out)]) == 0
    return out / _validated(out, "simulate")["files"]["data"]


@pytest.mark.parametrize(
    "argv",
    [["fit"], ["mcmc"], ["ml"], ["compare"],
     ["sensitivity", "--param", "phi", "--targets", "0.1"]],
    ids=["fit", "mcmc", "ml", "compare", "sensitivity"],
)
def test_subcommand_runs_the_intercept_slope_model(slope_csv, tmp_path, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"random": "intercept+slope", "slope_column": "income"},
        "engine": {"chains": 2, "iterations": 300, "burn_in": 100, "thin": 1},
    }))
    out = tmp_path / "out"
    assert main([*argv, "--data", str(slope_csv), "--config", str(config),
                 "--out-dir", str(out)]) == 0
    summary = _validated(out, argv[0])
    assert summary["model"]["random"] == "intercept+slope"
    if argv[0] == "compare":
        # the ladder null, fixed effects, q = 1, q = 2
        names = [m["name"] for m in summary["models"]]
        assert names == ["null", "fixed", "intercept", "full"]
    if argv[0] == "sensitivity":
        # a phi scan on q = 2 refits each target in forked workers
        (row,) = summary["rows"]
        assert row["method"] == "refit" and row["error"] is None


@pytest.mark.parametrize("model, integration",
                         [({"random": "intercept"}, "grid"),
                          ({"random": "intercept+slope", "slope_column": "income"}, "ccd")],
                         ids=["q1", "q2"])
def test_fit_summary_names_the_integration_rule(study_csv, tmp_path, model, integration):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model}))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(study_csv), "--config", str(config),
                 "--out-dir", str(out)]) == 0
    block = _validated(out, "fit")["model"]
    assert block["integration"] == integration
    if integration == "ccd":
        assert block["hyper_points"] == 25
    else:
        assert block["hyper_points"] > 25


def test_open_profile_end_is_written_as_null(study_csv, tmp_path, monkeypatch):
    def open_above(fit, name, level):
        return ProfileInterval(name, level, fit.estimate(name) / 2.0, math.inf, 1.92, 0)

    monkeypatch.setattr(cli, "profile_interval", open_above)
    assert main(["ml", "--profile", "--data", str(study_csv), "--out-dir", str(tmp_path)]) == 0
    summary = _validated(tmp_path, "ml")
    assert summary["interval_method"] == "profile"
    for row in summary["parameters"].values():
        assert row["upper"] is None and row["lower"] is not None
    assert '"upper": null' in (tmp_path / "ml_summary.json").read_text()


def test_simulate_without_flags_writes_the_default_study(tmp_path):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 0
    summary = _validated(tmp_path, "simulate")
    study = simulate_study(seed=0)
    assert summary["truth"] == study.truth.as_dict()
    write_rows_csv(study.rows, tmp_path / "direct.csv")
    written = (tmp_path / summary["files"]["data"]).read_bytes()
    assert written == (tmp_path / "direct.csv").read_bytes()


def test_elicit_writes_a_valid_summary(tmp_path):
    assert main(["elicit", "--range", "0.693", "--out-dir", str(tmp_path)]) == 0
    summary = _validated(tmp_path, "elicit")
    assert summary["result"]["rate"] > 0.0
    # without --coverage the run takes the one default of the elicitation
    assert summary["result"]["coverage"] == ELICIT_COVERAGE


def _error_record(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_engine_is_not_an_option(tmp_path, capsys, command):
    # each engine has its own subcommand: fit, mcmc, ml
    with pytest.raises(SystemExit) as stop:
        main([command, "--engine", "mcmc", "--out-dir", str(tmp_path)])
    assert stop.value.code == 2
    err = _error_record(capsys)
    assert err["type"] == "UsageError" and "--engine" in err["message"]


@pytest.mark.parametrize("key, value", [("kind", "mcmc"), ("grid_points", 201)],
                         ids=["kind", "grid_points"])
def test_engine_kind_is_an_unknown_config_key(study_csv, tmp_path, capsys, key, value):
    # deleted engine settings: the subcommand picks the engine, and every
    # marginal has density.MARGINAL_POINTS abscissae
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"engine": {key: value, "chains": 2, "iterations": 300, "burn_in": 100, "thin": 1}}
    ))
    code = main(["fit", "--data", str(study_csv), "--config", str(config),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and f"'{key}'" in err["message"]
    assert not (tmp_path / "fit_summary.json").exists()


def test_summary_commands_are_the_parsers_subcommands():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert set(SCHEMA["properties"]["command"]["enum"]) == set(cli._HANDLERS) == set(sub.choices)


def test_sensitivity_params_are_the_scan_table():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    (param,) = [a for a in sub.choices["sensitivity"]._actions if a.dest == "param"]
    assert list(param.choices) == list(sensitivity.SCANS)


def test_missing_data_file_is_a_json_error(tmp_path, capsys):
    code = main(["fit", "--data", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "not found" in err["message"]


def test_unknown_config_key_is_a_json_error(study_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"engine": {"chainz": 2}}))
    code = main(["fit", "--data", str(study_csv), "--config", str(config),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "chainz" in err["message"]


@pytest.mark.parametrize("level", ["0", "1.5"])
def test_level_outside_the_unit_interval_is_a_json_error(study_csv, tmp_path, capsys, level):
    code = main(["ml", "--level", level, "--data", str(study_csv), "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "level" in err["message"]
    assert not (tmp_path / "ml_summary.json").exists()


def test_coverage_outside_the_unit_interval_is_a_json_error(tmp_path, capsys):
    code = main(["elicit", "--range", "0.693", "--coverage", "1.5", "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "coverage" in err["message"]
    assert not (tmp_path / "elicit_summary.json").exists()


def test_level_is_checked_before_the_data_and_the_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("ml_fit ran for a level outside (0, 1)")

    monkeypatch.setattr(cli, "ml_fit", no_fit)
    code = main(["ml", "--level", "1.5", "--data", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "level" in err["message"]


def test_bad_grid_step_is_a_json_error_before_the_fit(study_csv, tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_laplace ran with grid_step 0")

    monkeypatch.setattr(cli, "fit_laplace", no_fit)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"engine": {"grid_step": 0}}))
    code = main(["fit", "--data", str(study_csv), "--config", str(config),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = _error_record(capsys)
    assert err["type"] == "DomainError" and "step" in err["message"]
