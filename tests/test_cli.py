"""Command-line interface: config schema, reports, exit codes, artifacts."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conelab import cli, entropy, flow, geometry, heat, spectral
from conelab.cli import (
    CONFIG_SCHEMA,
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
    monkeypatch.chdir(tmp_path)
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
        with pytest.raises(ConfigError, match="requires metric.path"):
            parse_config(overrides=["metric.preset=file"])

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

    def test_set_override_does_not_carry_into_the_next_call(self, tmp_path):
        # every call parses with one parser built once per process, whose
        # subcommands copy --set from one parent parser; its list default
        # must not collect one call's overrides for the next
        assert cli._parser() is cli._parser()
        assert main(["heat-check", "--set", "mu.tau=0.25",
                     "--output-dir", "s1"]) == EXIT_OK
        assert main(["heat-check", "--output-dir", "s2"]) == EXIT_OK
        first = parse_config(str(tmp_path / "s1" / "effective.ini"))
        second = parse_config(str(tmp_path / "s2" / "effective.ini"))
        assert first["mu"]["tau"] == 0.25
        assert second["mu"]["tau"] == cli._default_config()["mu"]["tau"] != 0.25

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
        assert rep["link"] == "S3"
        assert rep["pass"] is True
        assert rep["plane_equality_max_relative_error"] < 1e-8
        assert rep["mass_conservation_error"] < 1e-8
        assert "timestamp" in rep and "tool_version" in rep

    def test_flow_csv(self, tmp_path):
        args = ["flow", "--preset", "sphere_suspension",
                "--N", "300", "--output-dir", "f",
                "--set", f"metric.radius={math.sqrt(3.0)!r}",
                "--set", "flow.normalization=shrink",
                "--set", "flow.t_end=0.002", "--set", "flow.samples=4"]
        assert main(args) == EXIT_OK
        csv_path = tmp_path / "f" / "flow_series.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,entropy,sup_ric,cone_factor"
        rep = _report(tmp_path, "f")
        assert rep["monotonicity"]["constant"] is True
        assert rep["monotonicity"]["stationarity_ok"] is True

    def test_nu_tau_profile_csv(self, tmp_path):
        args = ["nu", "--preset", "sphere_suspension", "--N", "300",
                "--output-dir", "n"]
        assert main(args) == EXIT_OK
        header, *lines = (tmp_path / "n" / "tau_profile.csv").read_text(
            ).splitlines()
        assert header == "tau,mu"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines]
        assert rows and all(len(row) == 2 for row in rows)
        rep = _report(tmp_path, "n")
        assert min(mu for _, mu in rows) == rep["value"]
        assert (rep["tau_star"], rep["value"]) in rows
        assert abs(rep["tau_star"] - 1.0 / 6.0) < 1e-2
        assert rep["tau_star_at_edge"] is None


class TestExitCodes:
    def test_success(self):
        assert main(["heat-check"]) == EXIT_OK

    def test_operational_error_writes_no_report(self, tmp_path, capsys):
        # an entropy other than the one the normalization makes monotone
        args = ["flow", "--preset", "sphere_suspension", "--N", "300",
                "--output-dir", "bad",
                "--set", "flow.normalization=shrink",
                "--set", "flow.entropy=lambda"]
        assert main(args) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("conelab: error: flow.entropy must be one of")
        assert not (tmp_path / "bad").exists()

    def test_entropy_not_matching_the_normalization_is_one_line(self, capsys):
        # flow.entropy only switches the normalization's own entropy on or
        # off, so a named entropy is refused by every subcommand
        for sub in cli._RUNNERS:
            args = [sub, "--set", "flow.normalization=shrink",
                    "--set", "flow.entropy=lambda"]
            assert main(args) == EXIT_OPERATIONAL
            (line,) = capsys.readouterr().err.splitlines()
            assert line == ("conelab: error: flow.entropy must be one of "
                            "auto, none; got 'lambda'")

    @pytest.mark.parametrize("args", [
        ["mu", "--N", "200"],
        ["nu", "--N", "200"],
        ["mu", "--N", "200", "--variant", "foo"],
        ["nu", "--preset", "sphere_suspension", "--N", "200",
         "--set", "nu.variant=foo"],
        ["mu", "--preset", "sphere_suspension", "--link", "S40", "--N", "200",
         "--set", "mu.tau=1e-50"],
    ])
    def test_solver_failure_is_one_line(self, tmp_path, capsys, args):
        # a Newton failure on the flat cone's roundoff-level curvature, an
        # unknown W variant, refused when the config is parsed, and a tau
        # inside the configured range whose (4 pi tau)^{-m/2} still
        # overflows at m = 41 end in exit 1 and one message, no traceback
        assert main([*args, "--output-dir", "x"]) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        joined = " ".join(args)
        if "foo" in joined:
            assert "variant must be one of minus, plus; got 'foo'" in err[0]
        elif "S40" in joined:
            assert err[0].endswith(
                "tau = 1e-50 out of range: (4 pi tau)^(-m/2) at m = 41 is "
                "not a finite positive float")
        elif joined.endswith("--N 200"):
            # the solver's own message, not min()'s over no converged start
            assert "mu_minus Newton iteration failed at tau=" in err[0]
        assert not (tmp_path / "x" / "report.json").exists()

    @pytest.mark.parametrize("args", [
        ["heat-check", "--N", "5"],
        ["lambda", "--N", "abc"],
        ["lambda", "--bogus"],
        ["heat-check", "--set", "heat.t_min=nan"],
        ["heat-check", "--set", "heat.t_max=inf"],
        ["heat-check", "--set", "tolerances.heat_error=nan"],
        ["heat-check", "--set", "heat.t_min=-1"],
        ["heat-check", "--set", "heat.t_min=2", "--set", "heat.t_max=1"],
        ["heat-check", "--set", "heat.n_samples=0"],
        ["convergence", "--set", "convergence.base_N=0"],
        ["convergence", "--set", "convergence.base_N=-3"],
        ["nu", "--preset", "sphere_suspension", "--N", "200",
         "--set", "nu.tau_min=10", "--set", "nu.tau_max=0.01"],
        ["nu", "--preset", "sphere_suspension", "--N", "200",
         "--set", "nu.tau_min=0"],
        ["flow", "--preset", "perturbed_cone", "--set", "flow.drift_bound=0"],
        ["flow", "--preset", "perturbed_cone", "--set", "flow.drift_bound=-1"],
        ["link-check", "--link", "S0"],
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, args):
        # flags are --set shorthands: validated like the config, and a
        # usage error is operational (exit 2 means a property failure)
        assert main([*args, "--output-dir", "u"]) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        assert not (tmp_path / "u").exists()
        if "S0" in args:
            # the link and its dimension, not k_max, are at fault
            assert err[0].endswith(
                "link S0: the sphere dimension n = 0 must be at least 1")

    @pytest.mark.parametrize("args", [
        ["mu", "--set", "mu.tau=1e-300"],
        ["nu", "--set", "nu.tau_min=1e-300"],
    ])
    def test_tau_out_of_range_is_one_line(self, tmp_path, capsys, args):
        # below the configured range of tau: the message names tau, not the
        # errno tuple of the overflow of (4 pi tau)^{-m/2}
        args = [*args, "--preset", "sphere_suspension", "--N", "200",
                "--output-dir", "t"]
        assert main(args) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        assert "tau" in err[0] and "(34," not in err[0]
        assert not (tmp_path / "t" / "report.json").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_flow_samples_below_one_rejected(self, tmp_path, capsys,
                                             samples):
        args = ["flow", "--preset", "sphere_suspension", "--N", "200",
                "--set", f"flow.samples={samples}", "--output-dir", "s"]
        assert main(args) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert err == ["conelab: error: flow.samples must be at least 1"]
        assert not (tmp_path / "s").exists()

    def test_flow_on_an_all_frozen_grid_is_one_line(self, tmp_path, capsys):
        # on the 16-node flat cone the tip margin 3 sqrt(2n) dx freezes
        # every node although b > 0 everywhere: the grid is too small
        assert main(["flow", "--N", "16", "--output-dir", "f"]) == \
            EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert err == ["conelab: error: grid too small for the frozen "
                       "boundary bands"]
        assert not (tmp_path / "f" / "report.json").exists()

    def test_convergence_refuses_a_metric_file(self, tmp_path, capsys):
        # a file fixes the grid, so every "refinement" would solve the same
        # problem and report four equal values as an exact discretization
        x = [(i / 300) ** 2 for i in range(1, 301)]
        (tmp_path / "m.csv").write_text(
            "x,a,b\n" + "".join(f"{v!r},1.0,{v!r}\n" for v in x))
        args = ["convergence", "--preset", "file",
                "--set", f"metric.path={tmp_path / 'm.csv'}",
                "--output-dir", "c"]
        assert main(args) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("conelab: error: ") and "metric.preset" in line
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("sub", list(cli._RUNNERS))
    def test_every_subcommand_at_its_defaults_ends_cleanly(self, tmp_path,
                                                          capsys, sub):
        # a pass, a property failure with its report, or one error line
        code = main([sub, "--output-dir", "d"])
        err = capsys.readouterr().err.splitlines()
        report = tmp_path / "d" / "report.json"
        assert code in (EXIT_OK, EXIT_PROPERTY, EXIT_OPERATIONAL)
        if code == EXIT_PROPERTY:
            assert report.exists()
        if code == EXIT_OPERATIONAL:
            assert len(err) == 1 and err[0].startswith("conelab: error: ")
            assert not report.exists()

    @pytest.mark.parametrize("rows", [
        ["x,a,b", "0.5,1.0,0.5"], ["x,a,b"],
        ["x,a", *(f"{i / 20!r},1.0" for i in range(1, 21))],
        ["x,a,b", *(f"{i / 20!r},1.0,{i / 20!r}" for i in range(20, 0, -1))]])
    def test_degenerate_metric_file_is_one_line(self, tmp_path, capsys,
                                                rows):
        # one data row is a one-node grid; a header alone is an empty one;
        # then a file without column b, and one with decreasing x; each is
        # rejected on loading, naming the file
        path = tmp_path / "metric.csv"
        path.write_text("\n".join(rows) + "\n")
        args = ["lambda", "--preset", "file", "--set", f"metric.path={path}",
                "--output-dir", "d"]
        assert main(args) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        assert str(path) in err[0]
        assert not (tmp_path / "d" / "report.json").exists()

    @pytest.mark.parametrize("lines, bad", [
        (["n = 3", "scal_F = 6.0", "vol_F = 19.7", "eig = 0 1", "eig = 9"], 5),
        (["n = 3", "scal_F = 6.0", "vol_F = 19.7", "eig = 3 4.5"], 4),
        (["# a link", "n = three", "scal_F = 6.0", "vol_F = 19.7"], 2),
        (["n = 3", "scal_F 6.0", "vol_F = 19.7", "eig = 0 1"], 2)])
    def test_malformed_link_file_is_one_line(self, tmp_path, capsys, lines,
                                             bad):
        # the message names the file, the line number and the line
        path = tmp_path / "link.txt"
        path.write_text("\n".join(lines) + "\n")
        args = ["link-check", "--link", str(path), "--output-dir", "d"]
        assert main(args) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        assert str(path) in err[0]
        assert f"line {bad} {lines[bad - 1]!r}" in err[0]
        assert not (tmp_path / "d" / "report.json").exists()

    def test_link_file_without_eigenvalues_is_one_line(self, tmp_path, capsys):
        # no `eig =` line: the whole file is at fault, so no line is named
        path = tmp_path / "link.txt"
        path.write_text("n = 3\nscal_F = 6.0\nvol_F = 19.7\n")
        args = ["link-check", "--link", str(path), "--output-dir", "d"]
        assert main(args) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"conelab: error: link file {path}: "
                        "laplace_spectrum must be nonempty")
        assert not (tmp_path / "d" / "report.json").exists()

    @pytest.mark.parametrize("text, first_line", [
        ("N = 5\n", "File contains no section headers."),
        ("[grid]\nN = 300\n[grid]\nN = 400\n",
         "While reading from {path!r} [line  3]: section 'grid' already "
         "exists"),
        ("[grid]\nN\n", "Source contains parsing errors: {path!r}")],
        ids=["no-section", "duplicate-section", "bare-key"])
    def test_malformed_config_file_is_one_line(self, tmp_path, capsys, text,
                                               first_line):
        # configparser's own message, cut to its first line, names the file
        path = tmp_path / "conf.ini"
        path.write_text(text)
        args = ["link-check", "--config", str(path), "--output-dir", "d"]
        assert main(args) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"conelab: error: config file {path}: "
                        + first_line.format(path=str(path)))
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("sub", [["link-check"], ["mapping"],
                                     ["heat-check", "--set",
                                      "heat.n_samples=10"]],
                             ids=["link-check", "mapping", "heat-check"])
    @pytest.mark.parametrize("out, errno_name", [("F", "File exists"),
                                                 ("F/sub", "Not a directory")],
                             ids=["file", "under-a-file"])
    def test_unwritable_output_dir_is_one_line(self, tmp_path, capsys, sub,
                                               out, errno_name):
        # the report is written inside the error boundary: a path through
        # an existing file is an operational error, not a traceback
        (tmp_path / "F").write_text("a file\n")
        assert main([*sub, "--output-dir", out]) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("conelab: error: ") and errno_name in line
        assert (tmp_path / "F").read_text() == "a file\n"

    def test_nu_refused_by_its_tip_fit_writes_nothing(self, tmp_path, capsys):
        # 40 rows of the unit S^4: the tip-fit window holds one node, so the
        # report cannot be built, and its tau profile is not written either
        x = [k * math.pi / 40 for k in range(1, 41)]
        path = tmp_path / "s4.csv"
        path.write_text("x,a,b\n" + "".join(
            f"{v!r},1.0,{math.sin(v) if k < 40 else 0.0!r}\n"
            for k, v in enumerate(x, start=1)))
        args = ["nu", "--preset", "file", "--set", f"metric.path={path}",
                "--output-dir", "n"]
        assert main(args) == EXIT_OPERATIONAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("conelab: error: fit window")
        assert not (tmp_path / "n").exists() or not os.listdir(tmp_path / "n")

    def test_flag_sets_only_its_own_key(self, tmp_path):
        args = ["mu", "--preset", "sphere_suspension", "--N", "200",
                "--variant", "plus", "--output-dir", "v"]
        assert main(args) == EXIT_OK
        cfg = parse_config(str(tmp_path / "v" / "effective.ini"))
        assert cfg["mu"]["variant"] == "plus"
        assert cfg["nu"]["variant"] == "minus"

    def test_empty_fit_window_is_one_line(self, tmp_path, capsys):
        # 20 uniform rows: the default tip-fit window [4 x_1, L/10] holds
        # no node, and the message names the window and its node count
        path = tmp_path / "metric.csv"
        path.write_text("x,a,b\n" + "".join(f"{i / 1000!r},1.0,{i / 1000!r}\n"
                                            for i in range(1, 21)))
        args = ["lambda", "--preset", "file", "--set", f"metric.path={path}",
                "--output-dir", "d"]
        assert main(args) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("conelab: error: ")
        assert "[0.004, 0.002]" in err[0] and "0 grid points" in err[0]
        assert not (tmp_path / "d" / "report.json").exists()

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate; raised directly, because whether a
        # huge request fails at once depends on the kernel's overcommit policy
        def too_large(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setattr(cli, "build_metric", too_large)
        assert main(["lambda", "--output-dir", "m"]) == EXIT_OPERATIONAL
        err = capsys.readouterr().err.splitlines()
        assert err == ["conelab: error: Unable to allocate 7.28 TiB"]
        assert not (tmp_path / "m").exists()

    def test_property_failure_still_writes_report(self, tmp_path, capsys):
        args = ["lambda", "--N", "400", "--output-dir", "p",
                "--set", "tolerances.el_residual=1e-30"]
        assert main(args) == EXIT_PROPERTY
        assert "property-check failure" in capsys.readouterr().out
        rep = _report(tmp_path, "p")
        assert rep["pass"] is False
        assert rep["el_residual"] > 1e-30


_S4 = ["metric.preset=sphere_suspension", "grid.N=200"]
_S4_FLOW = ["metric.preset=sphere_suspension", "grid.N=100",
            f"metric.radius={math.sqrt(3.0)!r}", "flow.normalization=shrink",
            "flow.t_end=0.002", "flow.samples=4"]
_S4_CONVERGENCE = [*_S4, "convergence.base_N=40", "convergence.refinements=2"]
# key or section -> a cheap subcommand that reads the key, and its settings
_SWEEP_RUNS = {
    "run": ("heat-check", ["heat.n_samples=10"]),
    "grid": ("lambda", ["grid.N=200"]),
    "metric": ("lambda", ["metric.preset=perturbed_cone", "grid.N=200"]),
    "metric.k_max": ("link-check", []),
    "metric.cone_factor": ("lambda", ["grid.N=200"]),
    "metric.radius": ("lambda", _S4),
    "tolerances": ("lambda", _S4),
    "tolerances.monotonicity": ("flow", _S4_FLOW),
    "tolerances.heat_error": ("heat-check", ["heat.n_samples=10"]),
    "tolerances.fit_order": ("convergence", _S4_CONVERGENCE),
    "mu": ("mu", _S4),
    "nu": ("nu", ["metric.preset=sphere_suspension", "grid.N=120"]),
    "flow": ("flow", _S4_FLOW),
    "heat": ("heat-check", ["heat.n_samples=10"]),
    "mapping": ("mapping", []),
    "convergence": ("convergence", _S4_CONVERGENCE),
}
_NUMERIC_KEYS = [f"{sec}.{key}" for sec, keys in CONFIG_SCHEMA.items()
                 for key, spec in keys.items() if spec[0] in (int, float)]


@pytest.mark.parametrize("value", ["0", "-1", "1e-300", "1e300"])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_extreme_value_ends_cleanly(tmp_path, capsys, key, value):
    """Every numeric key at an extreme value ends in exit 0, 1 or 2 within
    10 s and without a warning; exit 1 prints one line, and a value that
    parse_config rejects is rejected by a message naming its key."""
    sub, sets = _SWEEP_RUNS.get(key) or _SWEEP_RUNS[key.split(".")[0]]
    sets = [*sets, f"{key}={value}"]
    try:
        parse_config(overrides=sets)
    except ConfigError as exc:
        assert key in str(exc)
    args = [sub, "--output-dir", "x", *(a for s in sets for a in ("--set", s))]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    assert time.perf_counter() - start < 10
    assert not caught, [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_OPERATIONAL, EXIT_PROPERTY)
    if code == EXIT_OPERATIONAL:
        assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("sec, lo, hi", [
    ("heat", "t_min", "t_max"), ("nu", "tau_min", "tau_max")])
def test_inverted_range_rejected_by_parse_config(sec, lo, hi):
    with pytest.raises(ConfigError,
                       match=f"^{sec}.{lo} must be at most {sec}.{hi}$"):
        parse_config(overrides=[f"{sec}.{lo}=2", f"{sec}.{hi}=1"])


@pytest.mark.parametrize("item", [
    f"grid.N={10**9}", f"convergence.base_N={10**9}",
    "convergence.refinements=60", f"metric.k_max={10**9}",
    f"heat.n_samples={10**9}", f"flow.samples={10**9}", "run.seed=-1"])
def test_out_of_range_value_rejected_by_parse_config(item):
    # on parse_config only: run, the sizes would take unbounded time or memory
    key = item.split("=")[0]
    with pytest.raises(ConfigError, match=re.escape(key) + " must be"):
        parse_config(overrides=[item])


@pytest.mark.parametrize("key", [
    "metric.preset", "mu.variant", "nu.variant", "flow.normalization",
    "flow.entropy", "flow.reference"])
def test_string_value_outside_its_choices_rejected_by_parse_config(key):
    # refused before any subcommand runs, naming the key and its choices
    section, name = key.split(".")
    choices = ", ".join(CONFIG_SCHEMA[section][name][2])
    with pytest.raises(ConfigError, match=re.escape(
            f"{key} must be one of {choices}; got 'bogus'")):
        parse_config(overrides=[f"{key}=bogus"])


def test_convergence_finest_grid_within_grid_bound():
    # 250 * 2**12 nodes exceeds grid.N's bound; 16 * 2**12 does not
    with pytest.raises(ConfigError, match=re.escape(
            "convergence.base_N * 2**convergence.refinements must be at "
            "most 100000")):
        parse_config(overrides=["convergence.refinements=12"])
    cfg = parse_config(overrides=["convergence.base_N=16",
                                  "convergence.refinements=12"])
    assert cfg["convergence"]["refinements"] == 12


S4 = ["--preset", "sphere_suspension", "--link", "S3"]


@pytest.mark.parametrize("args", [
    ["link-check"],
    ["lambda", *S4, "--N", "100"],
    ["mu", *S4, "--N", "100"],
    ["nu", *S4, "--N", "120"],
    ["flow", *S4, "--N", "100", "--set", f"metric.radius={math.sqrt(3.0)!r}",
     "--set", "flow.normalization=shrink", "--set", "flow.t_end=0.002",
     "--set", "flow.samples=4"],
    ["heat-check", "--set", "heat.n_samples=10"],
    ["mapping", "--set", "mapping.exponent=1"],
    ["convergence", *S4, "--refinements", "2",
     "--set", "convergence.base_N=40"],
], ids=lambda args: args[0])
def test_report_envelope(tmp_path, args):
    """Every subcommand's report carries the shared envelope, and the exit
    code follows its verdict."""
    code = main([*args, "--output-dir", "r"])
    rep = _report(tmp_path, "r")
    assert rep["subcommand"] == args[0]
    assert rep["schema_version"] == 1
    for key in ("tool_version", "seed", "grid", "tolerances",
                "effective_config", "timestamp"):
        assert key in rep
    assert isinstance(rep["pass"], bool)
    assert code == (EXIT_OK if rep["pass"] else EXIT_PROPERTY)


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
    cfg = flow.FlowConfig(t_end=4e-4, samples=4)
    traj = flow.run_flow(geometry.flat_cone(s3, grid), cfg)
    assert len(traj) >= 4
    assert len(calls) == 1


def test_step_collapse_names_t_end_and_samples(capsys):
    # the step is set by an error estimate; a sample interval that no
    # allowed number of steps resolves names the keys that set it
    args = ["flow", "--output-dir", "f",
            *(a for s in [*_S4_FLOW, "flow.t_end=1e300"] for a in ("--set", s))]
    assert main(args) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    m = re.fullmatch(r"conelab: error: step-size collapse: .+ at "
                     r"flow\.t_end = (\S+), flow\.samples = (\d+)", line)
    assert m, line
    assert float(m.group(1)) == 1e300 and m.group(2) == "4"


@pytest.mark.parametrize("N", [150, 300])
def test_round_sphere_steady_flow_follows_closed_form(tmp_path, N):
    # the unit round S^4 shrinks homothetically under the steady flow,
    # r(t)^2 = 1 - 6t, so lambda(t) = 12 / (1 - 6t); its smooth poles keep
    # their cone angle while a and b' fall
    args = ["flow", "--preset", "sphere_suspension", "--N", str(N),
            "--p", "1", "--set", "flow.t_end=0.1", "--output-dir", "s"]
    assert main(args) == EXIT_OK
    assert _report(tmp_path, "s")["monotonicity"]["min_successive_diff"] > 0
    _, *lines = (tmp_path / "s" / "flow_series.csv").read_text().splitlines()
    rows = [tuple(map(float, line.split(",")[:2])) for line in lines]
    assert len(rows) == CONFIG_SCHEMA["flow"]["samples"][1] + 1
    for t, lam in rows:
        assert abs(lam * (1.0 - 6.0 * t) / 12.0 - 1.0) < 1e-3, (t, lam)


@pytest.mark.parametrize("bound, edge", [
    ("nu.tau_max=0.1", "tau_max"), ("nu.tau_min=0.3", "tau_min")])
def test_nu_with_tau_star_on_a_bound_fails(tmp_path, bound, edge):
    """tau* = 1/6 on the unit S^4 lies outside these ranges: the minimum
    sits on the bound, which is not the infimum, so the run fails and names
    the bound in its report, its only verdict on the edge."""
    args = ["nu", *S4, "--N", "400", "--set", bound, "--output-dir", "e"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_PROPERTY
    rep = _report(tmp_path, "e")
    assert rep["tau_star_at_edge"] == edge and rep["pass"] is False


def test_nu_with_tau_star_next_to_a_bound_passes(tmp_path):
    # tau_min = 0.16 is the first point of the scan and its argmin, yet
    # tau* = 1/6 lies inside the range: no edge, no warning
    args = ["nu", *S4, "--N", "400", "--set", "nu.tau_min=0.16",
            "--output-dir", "e"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_OK
    rep = _report(tmp_path, "e")
    assert rep["tau_star_at_edge"] is None
    assert abs(rep["tau_star"] - 1.0 / 6.0) < 1e-6


# the entropy-flow benchmark's cone flow at N = 400: 55 sample intervals,
# a cone-factor drift of 4.3e-7
_CONE_FLOW = ["flow", "--preset", "perturbed_cone", "--N", "400",
              "--set", "grid.p=1.0", "--set", "grid.L=2.0",
              "--set", "metric.cutoff=0.7", "--set", "flow.reference=flat_cone",
              "--set", "metric.amplitude=0.018863"]


def test_cone_flow_steps_are_counted_and_k_halves(tmp_path):
    # each interval runs k and 2k >= 3 steps; k halving back once an
    # interval is easy keeps the count at 181 (331 if k never halved)
    assert main([*_CONE_FLOW, "--output-dir", "c"]) == EXIT_OK
    rep = _report(tmp_path, "c")
    assert 3 * (rep["samples"] - 1) <= rep["steps"] <= 181


def test_cone_flow_beyond_its_drift_bound_is_one_line(tmp_path, capsys):
    args = [*_CONE_FLOW, "--set", "flow.drift_bound=1e-8",
            "--set", "flow.entropy=none", "--output-dir", "d"]
    assert main(args) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("conelab: error: cone-condition drift beyond bound")
    assert not (tmp_path / "d" / "report.json").exists()


def test_perturbed_cone_reads_the_cone_factor():
    # at zero amplitude the perturbed cone is the flat cone of metric.cone_factor
    sets = ["grid.N=100", "metric.cone_factor=0.5", "metric.amplitude=0"]
    cone = cli.build_metric(parse_config(overrides=sets))
    pert = cli.build_metric(parse_config(
        overrides=[*sets, "metric.preset=perturbed_cone"]))
    assert np.array_equal(pert.b, cone.b) and np.array_equal(pert.a, cone.a)


def test_heat_check_reads_its_link(tmp_path, monkeypatch):
    dims = []
    kernel_mass = heat.kernel_mass
    monkeypatch.setattr(heat, "kernel_mass", lambda n, t, x: (
        dims.append(n) or kernel_mass(n, t, x)))
    assert main(["heat-check", "--link", "S2", "--set", "heat.n_samples=10",
                 "--output-dir", "h"]) == EXIT_OK
    rep = _report(tmp_path, "h")
    assert rep["link"] == "S2" and rep["pass"] is True and dims == [2]


def test_heat_check_with_a_missing_link_file_is_one_line(tmp_path, capsys):
    assert main(["heat-check", "--link", "/nonexistent",
                 "--output-dir", "h"]) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("conelab: error: ") and "/nonexistent" in line
    assert not (tmp_path / "h" / "report.json").exists()


def test_mapping_exponent_message_names_key_and_link_dimension(capsys):
    assert main(["mapping", "--set", "mapping.exponent=1e300",
                 "--output-dir", "m"]) == EXIT_OPERATIONAL
    assert capsys.readouterr().err.splitlines() == [
        "conelab: error: mapping.exponent N = 1e+300 must satisfy "
        "0 < N <= n = 3, the link dimension"]


@pytest.mark.parametrize("args", [
    ["lambda", "--N", "100"],
    ["lambda", "--N", "200"],
    ["lambda", "--N", "400"],
    ["mu", "--N", "200"],
])
def test_cone_factor_above_hardy_bound_is_refused(tmp_path, capsys, args):
    # b = 2x over S^3: c^2 = 4 > scal_F/(n-1) = 3, so lambda is -infinity;
    # refused at every resolution instead of printed as a number
    args = [*args, "--set", "metric.cone_factor=2", "--output-dir", "h"]
    assert main(args) == EXIT_OPERATIONAL
    assert capsys.readouterr().err.splitlines() == [
        "conelab: error: tip cone factor c = 2 exceeds the Hardy bound "
        "c^2 <= scal_F/(n-1) = 3 at link dimension n = 3: lambda is -infinity"]
    assert not (tmp_path / "h" / "report.json").exists()


def test_cone_factor_below_hardy_bound_runs(tmp_path):
    args = ["lambda", "--N", "400", "--set", "metric.cone_factor=1.7",
            "--output-dir", "c"]
    assert main(args) == EXIT_OK
    assert math.isfinite(_report(tmp_path, "c")["value"])


def test_low_dimensional_link_message_wins_over_hardy_bound(capsys):
    args = ["lambda", "--link", "S2", "--N", "200",
            "--set", "metric.cone_factor=2", "--output-dir", "s"]
    assert main(args) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    assert "q != 0 requires link dimension n >= 3" in line


def test_sphere_suspension_at_a_radius_whose_pole_rounds_negative(tmp_path):
    args = ["lambda", "--preset", "sphere_suspension", "--N", "200",
            "--set", "metric.radius=6.5", "--output-dir", "r"]
    assert main(args) == EXIT_OK


def _run_fresh(script, tmp_path):
    """Run a Python script in a fresh process on this conelab; it must pass."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_heat_ops_load_neither_scipy_optimize_nor_scipy_linalg(tmp_path):
    """heat-check and mapping never solve a banded system and no op runs
    scipy's minimizer, so a fresh process leaves both modules unloaded."""
    script = (
        "import sys\n"
        "from conelab import cli\n"
        "assert cli.main(['heat-check', '--set', 'heat.n_samples=10',\n"
        "                 '--output-dir', 'h']) == 0\n"
        "assert cli.main(['mapping', '--set', 'mapping.exponent=1',\n"
        "                 '--output-dir', 'm']) == 0\n"
        "loaded = {'scipy.optimize', 'scipy.linalg'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert cli.main(['nu', '--preset', 'sphere_suspension', '--N', '120',\n"
        "                 '--output-dir', 'n']) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n")
    _run_fresh(script, tmp_path)


def test_import_loads_no_scipy_and_lambda_loads_only_scipy_linalg(tmp_path):
    """`import conelab` and its CLI load no scipy module; a lambda op's
    banded solves load scipy.linalg's compiled _flapack and no other scipy
    subpackage, not even the scipy.linalg package init."""
    script = (
        "import sys\n"
        "import conelab\n"
        "from conelab import cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "assert cli.main(['lambda', '--N', '100', '--output-dir', 'l']) == 0\n"
        "subpackages = {m.split('.')[1] for m in sys.modules\n"
        "               if m.startswith('scipy.') and m != 'scipy.version'\n"
        "               and not m.split('.')[1].startswith('_')}\n"
        "assert subpackages == {'linalg'}, subpackages\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "assert 'scipy.linalg' not in sys.modules\n")
    _run_fresh(script, tmp_path)


def test_no_op_loads_a_scipy_subpackage(tmp_path):
    """`import conelab` loads no scipy module, and the banded solves and
    Bessel calls of every op load only the compiled extensions, found
    without importing scipy itself, so a fresh process that runs every
    subcommand never runs the init of scipy or of a scipy subpackage.
    heat-check draws its samples without loading numpy.random."""
    script = (
        "import sys\n"
        "import conelab\n"
        "from conelab import cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "# link-check's built-in links end in a report, not yet a pass\n"
        "assert cli.main(['link-check', '--output-dir', 'l']) != 1\n"
        "sphere = ['--preset', 'sphere_suspension', '--N', '120']\n"
        "for args in (['lambda', *sphere], ['mu', *sphere], ['nu', *sphere],\n"
        "             ['flow', *sphere, '--set', 'flow.t_end=0.001',\n"
        "              '--set', 'flow.samples=2'],\n"
        "             ['heat-check', '--set', 'heat.n_samples=10'],\n"
        "             ['mapping', '--set', 'mapping.exponent=1'],\n"
        "             ['convergence', *sphere, '--refinements', '2',\n"
        "              '--set', 'convergence.base_N=60']):\n"
        "    assert cli.main([*args, '--output-dir', args[0]]) == 0, args\n"
        "packages = {'scipy', 'scipy.linalg', 'scipy.special',\n"
        "            'scipy.optimize', 'scipy.interpolate', 'numpy.random'}\n"
        "loaded = packages & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert {'scipy.linalg._flapack',\n"
        "        'scipy.special._special_ufuncs'} <= set(sys.modules)\n")
    _run_fresh(script, tmp_path)


def test_loaded_routines_are_the_ones_scipy_exports(tmp_path):
    """dgtsv and ive, loaded first, are the very objects that scipy.linalg
    and scipy.special export when imported afterwards: the same code."""
    script = (
        "import sys\n"
        "from conelab.spectral import _scipy_compiled\n"
        "dgtsv = _scipy_compiled('linalg._flapack', 'dgtsv')\n"
        "ive = _scipy_compiled('special._special_ufuncs', 'ive')\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "assert 'scipy.special' not in sys.modules\n"
        "import scipy.linalg.lapack, scipy.special\n"
        "assert dgtsv is scipy.linalg.lapack.dgtsv\n"
        "assert ive is scipy.special.ive\n")
    _run_fresh(script, tmp_path)


@pytest.mark.parametrize("module, name", [
    ("linalg._flapack_moved", "dgtsv"), ("linalg._flapack", "dgtsv_moved")])
def test_moved_scipy_layout_is_one_line(module, name, monkeypatch, capsys):
    import scipy
    load = spectral._scipy_compiled.__wrapped__
    monkeypatch.setattr(spectral, "_scipy_compiled",
                        lambda *_: load(module, name))
    assert main(["lambda", "--N", "100"]) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    assert f"scipy {scipy.__version__} has no compiled {name} in " in line
    assert module.replace(".", os.sep) in line


def test_missing_scipy_is_one_line(monkeypatch, capsys):
    """Without scipy the first banded solve ends in one line, not in an
    ImportError traceback."""
    import importlib.util
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *rest: (
        None if name == "scipy" else find_spec(name, *rest)))
    load = spectral._scipy_compiled.__wrapped__
    monkeypatch.setattr(spectral, "_scipy_compiled", lambda *args: load(*args))
    assert main(["lambda", "--N", "100"]) == EXIT_OPERATIONAL
    (line,) = capsys.readouterr().err.splitlines()
    assert "scipy is not installed; dgtsv comes from scipy.linalg._flapack" \
        in line


_SEEDS = [*range(60), 2**32 - 1, 2**32, 2**40 + 7, 123456789012345,
          2**128 + 3, 2**160 - 1, 10**50, 7**80]


@pytest.mark.parametrize("n", [1, 100])
def test_heat_check_draws_are_numpys_default_rng(n):
    """heat-check's four sample blocks, drawn in order, are numpy's
    default_rng(seed).uniform stream bit for bit, at seeds of one to nine
    32-bit words."""
    blocks = [(math.log(0.01), 0.0), (0.1, 2.0), (0.1, 2.0),
              (-math.pi, math.pi)]
    for seed in _SEEDS:
        rng = np.random.default_rng(seed)
        uniform = cli._uniform_sampler(seed)
        for lo, hi in blocks:
            drawn = uniform(lo, hi, n).tobytes()
            assert drawn == rng.uniform(lo, hi, n).tobytes(), (seed, lo, hi)
