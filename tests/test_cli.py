"""Command-line interface: config schema, reports, exit codes, artifacts."""

import json
import math
import os

import pytest

from conelab import entropy, flow, geometry, spectral
from conelab.cli import (
    ConfigError,
    EXIT_OK,
    EXIT_OPERATIONAL,
    EXIT_PROPERTY,
    main,
    parse_config,
    render_config,
)


@pytest.fixture(autouse=True)
def _outroot(tmp_path, monkeypatch):
    monkeypatch.setenv("CONELAB_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def _report(tmp_path, out="out"):
    with open(tmp_path / out / "report.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg["grid"]["N"] == 2000
        assert cfg["grid"]["p"] == 2.0
        assert cfg["metric"]["preset"] == "flat_cone"
        assert cfg["tolerances"]["el_residual"] == 1e-8

    def test_unknown_key_names_nearest(self):
        with pytest.raises(ConfigError, match="nearest.*grid"):
            parse_config(overrides=["gridd.N=100"])
        with pytest.raises(ConfigError, match="nearest"):
            parse_config(overrides=["grid.NN=100"])

    def test_unknown_key_is_operational_exit(self, capsys):
        assert main(["lambda", "--set", "gridd.N=100"]) == EXIT_OPERATIONAL
        assert "gridd" in capsys.readouterr().err

    def test_bad_override_syntax(self):
        with pytest.raises(ConfigError, match="section.key"):
            parse_config(overrides=["N=100"])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/conf.ini")

    def test_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(overrides=["tolerances.constraint=-1"])
        with pytest.raises(ConfigError, match="at least 16"):
            parse_config(overrides=["grid.N=8"])
        with pytest.raises(ConfigError, match="preset"):
            parse_config(overrides=["metric.path=m.csv"])

    def test_render_round_trips_in_memory(self, tmp_path):
        cfg = parse_config(overrides=["grid.N=123", "mu.tau=0.3"])
        path = tmp_path / "c.ini"
        path.write_text(render_config(cfg))
        assert parse_config(str(path)) == cfg


class TestArtifacts:
    def test_effective_ini_round_trip_is_byte_identical(self, tmp_path):
        args = ["lambda", "--N", "400", "--set", "metric.cone_factor=0.9"]
        assert main(args + ["--output-dir", "r1"]) == EXIT_OK
        eff1 = (tmp_path / "r1" / "effective.ini").read_bytes()
        ini = tmp_path / "r1" / "effective.ini"
        assert main(["lambda", "--config", str(ini)]) == EXIT_OK
        cfg = parse_config(str(ini))
        eff2 = (tmp_path / cfg["run"]["output_dir"]
                / "effective.ini").read_bytes()
        assert eff1 == eff2

    def test_reports_deterministic_modulo_timestamp(self, tmp_path):
        for out in ("h1", "h2"):
            assert main(["heat-check", "--seed", "3",
                         "--output-dir", out]) == EXIT_OK
        r1 = _report(tmp_path, "h1")
        r2 = _report(tmp_path, "h2")
        for r in (r1, r2):
            r.pop("timestamp")
            # the effective configs differ only in the output directory name
            r["effective_config"] = r["effective_config"].replace(
                "h1", "OUT").replace("h2", "OUT")
        assert r1 == r2

    def test_report_contents(self, tmp_path):
        assert main(["heat-check", "--output-dir", "h"]) == EXIT_OK
        rep = _report(tmp_path, "h")
        assert rep["schema_version"] == 1
        assert rep["subcommand"] == "heat-check"
        assert rep["pass"] is True
        assert rep["plane_equality_max_relative_error"] < 1e-8
        assert rep["mass_conservation_error"] < 1e-8
        assert "timestamp" in rep and "tool_version" in rep

    def test_flow_csv_and_svg(self, tmp_path):
        args = ["flow", "--preset", "sphere_suspension", "--svg",
                "--N", "300", "--output-dir", "f",
                "--set", f"metric.radius={math.sqrt(3.0)!r}",
                "--set", "flow.normalization=shrink",
                "--set", "flow.t_end=0.002", "--set", "flow.samples=4"]
        assert main(args) == EXIT_OK
        csv_path = tmp_path / "f" / "flow_series.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,entropy,sup_ric,cone_factor"
        svg = (tmp_path / "f" / "entropy_series.svg").read_text()
        assert svg.startswith("<svg")
        rep = _report(tmp_path, "f")
        assert rep["monotonicity"]["constant"] is True
        assert rep["monotonicity"]["stationarity_ok"] is True

    def test_nu_svg(self, tmp_path):
        args = ["nu", "--preset", "sphere_suspension", "--N", "300",
                "--svg", "--output-dir", "n"]
        assert main(args) == EXIT_OK
        assert (tmp_path / "n" / "tau_profile.svg").read_text().startswith(
            "<svg")
        rep = _report(tmp_path, "n")
        assert abs(rep["tau_star"] - 1.0 / 6.0) < 1e-2


class TestExitCodes:
    def test_success(self):
        assert main(["heat-check"]) == EXIT_OK

    def test_operational_error_writes_no_report(self, tmp_path, capsys):
        # flow entropy kind incompatible with the normalization
        args = ["flow", "--preset", "sphere_suspension", "--N", "300",
                "--output-dir", "bad",
                "--set", "flow.normalization=shrink",
                "--set", "flow.entropy=lambda"]
        assert main(args) == EXIT_OPERATIONAL
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "report.json").exists()

    @pytest.mark.parametrize("args", [
        ["mu", "--N", "200"],
        ["nu", "--N", "200"],
        ["mu", "--N", "200", "--variant", "foo"],
        ["nu", "--preset", "sphere_suspension", "--N", "200",
         "--set", "nu.variant=foo"],
    ])
    def test_solver_failure_is_one_line(self, tmp_path, capsys, args):
        # a Newton failure on the flat cone's roundoff-level curvature, and
        # an unknown W variant, end in exit 1 and one message, no traceback
        assert main([*args, "--output-dir", "x"]) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        if "foo" in " ".join(args):
            assert "unknown variant 'foo'" in err[0]
        assert not (tmp_path / "x" / "report.json").exists()

    def test_property_failure_still_writes_report(self, tmp_path, capsys):
        args = ["lambda", "--N", "400", "--output-dir", "p",
                "--set", "tolerances.el_residual=1e-30"]
        assert main(args) == EXIT_PROPERTY
        assert "property-check failure" in capsys.readouterr().out
        rep = _report(tmp_path, "p")
        assert rep["pass"] is False
        assert rep["el_residual"] > 1e-30


class TestConvergence:
    def test_second_order_on_off_angle_cone(self, tmp_path):
        # cone_factor != 1 makes the minimizer non-constant, so the
        # discretization error is visible and second order
        args = ["convergence", "--output-dir", "c",
                "--set", "metric.cone_factor=0.9"]
        assert main(args) == EXIT_OK
        rep = _report(tmp_path, "c")
        assert abs(rep["fitted_order"] - 2.0) < 0.2
        assert rep["exact_at_all_resolutions"] is False
        header = (tmp_path / "c" / "convergence.csv"
                  ).read_text().splitlines()[0]
        assert header == "N,lambda"
        assert len(rep["N_values"]) == 4

    def test_exact_at_all_resolutions_flagged(self, tmp_path):
        # constant minimizer on the round sphere: every resolution is at
        # the roundoff floor, so no order can be fitted
        args = ["convergence", "--preset", "sphere_suspension",
                "--refinements", "2", "--output-dir", "e"]
        assert main(args) == EXIT_OK
        rep = _report(tmp_path, "e")
        assert rep["exact_at_all_resolutions"] is True
        assert rep["fitted_order"] is None

    def test_unsupported_op_is_operational(self, capsys):
        assert main(["convergence", "--op", "mu"]) == EXIT_OPERATIONAL
        assert "mu" in capsys.readouterr().err


def test_tip_fit_runs_only_in_the_report_layer(s3, monkeypatch):
    """The solvers run no tip fit; a report runs one per solution it prints."""
    calls = []
    fit = spectral.fit_asymptotics

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    for module in (spectral, entropy):
        if hasattr(module, "fit_asymptotics"):
            monkeypatch.setattr(module, "fit_asymptotics", counted)

    met = geometry.sphere_suspension(s3, 120, p=2.0)
    entropy.compute_nu(met, "minus")
    assert len(calls) == 0
    assert main(["nu", "--preset", "sphere_suspension", "--N", "120",
                 "--output-dir", "n"]) == EXIT_OK
    assert len(calls) == 1

    grid = geometry.RadialGrid.graded(100, 1.0, p=1.0)
    cfg = flow.FlowConfig(t_end=4e-4, entropy_kind="lambda",
                          sample_period=1e-4)
    traj = flow.run_flow(geometry.flat_cone(s3, grid), cfg)
    assert len(traj) >= 4
    assert len(calls) == 1
