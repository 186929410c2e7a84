"""Command-line front end: config ingestion, run orchestration, reports.

One binary with subcommands.  Configuration comes from an INI file with
sections plus command-line overrides; every run emits a JSON report that
embeds the effective configuration, the tool version, the seed, and all
residuals backing its verdicts.  Exit codes: 0 success, 2 property-check
failure (report still written), 1 operational error (no report).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime
import difflib
import functools
import json
import math
import os
import random
import sys

import numpy as np

from . import __version__, entropy, flow, geometry, heat, spectral
from . import link as linkmod

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_PROPERTY = 2


class ConfigError(geometry.ConelabError):
    pass


# the most grid nodes: one lambda solve at N = 100000 takes 7 s and 110 MB
MAX_NODES = 100_000

# section -> key -> (parser, default[, interval or choices]); any other key
# is fatal.  An interval: "[", "]" include an end, "(", ")" exclude it, an
# open finite lower end is 0.  Choices: a string key's tuple, default first.
CONFIG_SCHEMA = {
    "run": {
        "seed": (int, 0, "[0, inf)"),
        "output_dir": (str, "out"),
    },
    "grid": {
        "N": (int, 2000, f"[{geometry.MIN_NODES}, {MAX_NODES}]"),
        "p": (float, 2.0, "[1, 10]"),
        "L": (float, 1.0, "[1e-6, 1e6]"),
    },
    "metric": {
        "preset": (str, "flat_cone", ("flat_cone", "sphere_suspension",
                                      "perturbed_cone", "file")),
        "link": (str, "S3"),
        "k_max": (int, 12, "[1, 100000]"),
        "cone_factor": (float, 1.0, "[1e-6, 1e6]"),
        "radius": (float, 1.0, "[1e-6, 1e6]"),
        "amplitude": (float, 0.01, "[-1e6, 1e6]"),
        "exponent": (float, 2.0, "[0.1, inf)"),
        "cutoff": (float, 0.0, "(-inf, inf)"),
        "path": (str, ""),
    },
    "tolerances": {
        "el_residual": (float, 1e-8, "(0, inf)"),
        "constraint": (float, 1e-12, "(0, inf)"),
        "monotonicity": (float, 1e-7, "(0, inf)"),
        "heat_error": (float, 1e-8, "(0, inf)"),
        "fit_order": (float, 1.8, "(0, inf)"),
    },
    "mu": {
        "tau": (float, 0.5, "[1e-50, 1e50]"),
        "variant": (str, "minus", tuple(entropy._SIGN)),
    },
    "nu": {
        "variant": (str, "minus", tuple(entropy._SIGN)),
        "tau_min": (float, 1e-3, "[1e-50, 1e50]"),
        "tau_max": (float, 1e3, "[1e-50, 1e50]"),
    },
    "flow": {
        "t_end": (float, 0.004, "(0, inf)"),
        "normalization": (str, "steady", tuple(flow._KAPPA)),
        "entropy": (str, "auto", ("auto", "none")),
        "samples": (int, 55, "[1, 1000]"),
        "reference": (str, "initial", ("initial", "flat_cone")),
        "drift_bound": (float, 1e-3, "(0, inf)"),
    },
    "heat": {
        "t_min": (float, 0.01, "[1e-20, inf)"),
        "t_max": (float, 1.0, "[1e-20, inf)"),
        "n_samples": (int, 100, "[1, 100000]"),
    },
    "mapping": {
        "exponent": (float, 3.0, "(0, inf)"),
    },
    "convergence": {
        "base_N": (int, 250, f"[{geometry.MIN_NODES}, {MAX_NODES}]"),
        "refinements": (int, 3, "[2, 12]"),
    },
}


def _default_config() -> dict:
    return {sec: {k: spec[1] for k, spec in keys.items()}
            for sec, keys in CONFIG_SCHEMA.items()}


def _set_value(cfg: dict, section: str, key: str, raw) -> None:
    if section not in CONFIG_SCHEMA:
        near = difflib.get_close_matches(section, CONFIG_SCHEMA.keys(), n=1)
        hint = f"; nearest valid section: {near[0]!r}" if near else ""
        raise ConfigError(f"unknown config section {section!r}{hint}")
    if key not in CONFIG_SCHEMA[section]:
        near = difflib.get_close_matches(f"{section}.{key}", [
            f"{s}.{k}" for s, keys in CONFIG_SCHEMA.items() for k in keys], n=1)
        hint = f"; nearest valid key: {near[0]!r}" if near else ""
        raise ConfigError(f"unknown config key {section}.{key!r}{hint}")
    parse, _, *interval = CONFIG_SCHEMA[section][key]
    try:
        val = parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    if interval:
        _check_interval(f"{section}.{key}", val, *interval)
    cfg[section][key] = val


def _check_interval(name: str, val, interval: str | tuple) -> None:
    """Reject a value outside the key's interval or choices, naming the key."""
    if isinstance(interval, tuple):
        if val not in interval:
            raise ConfigError(f"{name} must be one of {', '.join(interval)}; "
                              f"got {val!r}")
        return
    lo, hi = interval[1:-1].split(", ")
    if val < float(lo) or (interval[0] == "(" and val == float(lo)):
        raise ConfigError(f"{name} must be positive" if interval[0] == "("
                          else f"{name} must be at least {lo}")
    if val > float(hi) or (interval[-1] == ")" and val == float(hi)):
        word = "below" if interval[-1] == ")" else "at most"
        raise ConfigError(f"{name} must be {word} {hi}")


def parse_config(path: str | None = None,
                 overrides: list[str] | None = None) -> dict:
    """Defaults, then INI file, then KEY=VALUE overrides (section.key)."""
    cfg = _default_config()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case (N, L)
        try:
            read = parser.read(path)
        except configparser.Error as exc:  # messages of several lines
            raise ConfigError(f"config file {path}: {exc}".splitlines()[0])
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _set_value(cfg, section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _set_value(cfg, section.strip(), key.strip(), raw.strip())
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """The rules that involve two keys; one key's range is in the schema."""
    for sec, lo, hi in (("heat", "t_min", "t_max"),
                        ("nu", "tau_min", "tau_max")):
        if cfg[sec][lo] > cfg[sec][hi]:
            raise ConfigError(f"{sec}.{lo} must be at most {sec}.{hi}")
    c = cfg["convergence"]
    if c["base_N"] * 2 ** c["refinements"] > MAX_NODES:
        raise ConfigError("convergence.base_N * 2**convergence.refinements "
                          f"must be at most {MAX_NODES}")
    if cfg["metric"]["path"] and cfg["metric"]["preset"] != "file":
        raise ConfigError(
            "metric.path conflicts with metric.preset; use preset = file")
    if cfg["metric"]["preset"] == "file" and not cfg["metric"]["path"]:
        raise ConfigError("metric.preset = file requires metric.path")


def render_config(cfg: dict) -> str:
    """Effective configuration as INI text; re-parsing reproduces the run."""
    lines = []
    for sec in sorted(cfg):
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            lines.append(f"{key} = {cfg[sec][key]}")
        lines.append("")
    return "\n".join(lines)


# -- model construction ------------------------------------------------------------

def build_link(cfg: dict) -> linkmod.LinkData:
    return linkmod.get_link(cfg["metric"]["link"], k_max=cfg["metric"]["k_max"])


def build_metric(cfg: dict) -> geometry.RadialMetric:
    m = cfg["metric"]
    g = cfg["grid"]
    link = build_link(cfg)
    if m["preset"] == "flat_cone":
        grid = geometry.RadialGrid.graded(g["N"], g["L"], p=g["p"])
        return geometry.flat_cone(link, grid, cone_factor=m["cone_factor"])
    if m["preset"] == "sphere_suspension":
        return geometry.sphere_suspension(link, g["N"], radius=m["radius"],
                                          p=g["p"])
    if m["preset"] == "perturbed_cone":
        grid = geometry.RadialGrid.graded(g["N"], g["L"], p=g["p"])
        cutoff = m["cutoff"] if m["cutoff"] > 0 else None
        return geometry.perturbed_cone(link, grid, amplitude=m["amplitude"],
                                       exponent=m["exponent"], cutoff=cutoff,
                                       cone_factor=m["cone_factor"])
    return geometry.metric_from_csv(link, m["path"])  # preset = file


# -- report plumbing ---------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _base_report(cfg: dict, subcommand: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed": cfg["run"]["seed"],
        "grid": dict(cfg["grid"]),
        "tolerances": dict(cfg["tolerances"]),
        "effective_config": render_config(cfg),
    }


def output_dir(cfg: dict) -> str:
    out = cfg["run"]["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def write_report(cfg: dict, report: dict) -> str:
    out = output_dir(cfg)
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True,
                            default=_jsonable))
        fh.write("\n")
    with open(os.path.join(out, "effective.ini"), "w") as fh:
        fh.write(report["effective_config"])
    return path


def write_csv(cfg: dict, name: str, header: list[str], rows) -> str:
    path = os.path.join(output_dir(cfg), name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    return path


# -- subcommands -------------------------------------------------------------------

def cmd_link_check(cfg: dict) -> dict:
    link = build_link(cfg)
    verdict = linkmod.check_tangential_stability(link)
    gap = linkmod.check_admissibility_gap(link)
    ind = spectral.indicial_exponents(link, gamma=cfg["metric"]["exponent"])
    return {
        "link": link.name,
        "n": link.n,
        "stability": verdict,
        "admissibility_gap": gap,
        "gamma_bar": ind.gamma_bar,
        "indicial_nu": ind.nu,
        "indicial_mu_plus": ind.mu_plus,
        "essentially_selfadjoint": ind.essentially_selfadjoint,
        "pass": (verdict in (linkmod.STRICTLY_STABLE,
                             linkmod.STABLE_NOT_STRICT) and gap),
    }


def _solution_fields(rep, grid: geometry.RadialGrid) -> dict:
    """Value, residuals and tip fit of a lambda or mu report."""
    c0, e, fr = spectral.fit_asymptotics(rep.omega, grid)
    return {
        "value": rep.value,
        "el_residual": rep.el_residual,
        "constraint_residual": rep.constraint_residual,
        "fitted_exponent": None if not np.isfinite(e) else e,
        "fit_constant": c0,
        "fit_residual": fr,
    }


def _mu_report_dict(rep: entropy.MuReport, grid: geometry.RadialGrid) -> dict:
    return {
        **_solution_fields(rep, grid),
        "tau": rep.tau, "variant": rep.variant,
        "normalization_identity": rep.normalization_identity,
        "basin_values": list(rep.basin_values), "nonconvex": rep.nonconvex,
    }


def _residual_gate(cfg: dict, rep) -> bool:
    """Whether the EL and constraint residuals of rep are within tolerance."""
    tol = cfg["tolerances"]
    return (rep.el_residual < tol["el_residual"]
            and rep.constraint_residual < tol["constraint"])


def cmd_lambda(cfg: dict) -> dict:
    metric = build_metric(cfg)
    rep = entropy.compute_lambda(metric)
    return {**_solution_fields(rep, metric.grid),
            "pass": _residual_gate(cfg, rep)}


def cmd_mu(cfg: dict) -> dict:
    metric = build_metric(cfg)
    rep = entropy.compute_mu(metric, cfg["mu"]["tau"],
                             variant=cfg["mu"]["variant"])
    return {**_mu_report_dict(rep, metric.grid),
            "pass": _residual_gate(cfg, rep)}


def cmd_nu(cfg: dict) -> dict:
    metric = build_metric(cfg)
    rep = entropy.compute_nu(metric, variant=cfg["nu"]["variant"],
                             tau_range=(cfg["nu"]["tau_min"],
                                        cfg["nu"]["tau_max"]))
    report = {
        "value": rep.value,
        "tau_star": rep.tau_star,
        "variant": rep.variant,
        "lambda_value": rep.lambda_value,
        "tau_star_at_edge": rep.tau_edge,
        "optimal_slice": _mu_report_dict(rep.mu_report, metric.grid),
        "pass": rep.tau_edge is None and _residual_gate(cfg, rep.mu_report),
    }
    # the report first: its tip fit can refuse, and then nothing is written
    write_csv(cfg, "tau_profile.csv", ["tau", "mu"],
              zip(rep.tau_profile.tolist(), rep.mu_profile.tolist()))
    return report


def cmd_flow(cfg: dict) -> dict:
    metric = build_metric(cfg)
    f = cfg["flow"]
    reference = None
    if f["reference"] == "flat_cone":
        reference = geometry.flat_cone(metric.link, metric.grid,
                                       cone_factor=cfg["metric"]["cone_factor"])
    fconf = flow.FlowConfig(
        t_end=f["t_end"], normalization=f["normalization"],
        reference=reference, samples=f["samples"],
        entropy=f["entropy"] == "auto", cone_drift_bound=f["drift_bound"])
    trajectory = flow.run_flow(metric, fconf)
    report = {}
    rows = [(s.t, s.entropy_value, s.sup_ric, s.cone_factor)
            for s in trajectory]
    write_csv(cfg, "flow_series.csv",
              ["t", "entropy", "sup_ric", "cone_factor"], rows)
    ok = True
    if fconf.entropy:
        mono = flow.monotonicity_report(
            trajectory, fconf, tol_mono=cfg["tolerances"]["monotonicity"])
        report["monotonicity"] = dataclasses.asdict(mono)
        ok = mono.passed and (mono.stationarity_ok is not False)
    first, last = trajectory[0], trajectory[-1]
    return {
        **report,
        "samples": len(trajectory),
        "t_end": last.t,
        "steps": last.steps,
        "time_error_estimate": max(s.time_error for s in trajectory),
        "sup_ric_initial": first.sup_ric,
        "sup_ric_final": last.sup_ric,
        "sup_ric_normalized_final": last.sup_ric_normalized,
        "cone_factor_initial": first.cone_factor,
        "cone_factor_final": last.cone_factor,
        "cone_factor_drift": abs(last.cone_factor / first.cone_factor - 1.0),
        "entropy_initial": first.entropy_value,
        "entropy_final": last.entropy_value,
        "pass": bool(ok),
    }


def cmd_heat_check(cfg: dict) -> dict:
    """The cone heat kernel over S1, which is the plane's, at n_samples
    random points drawn by random.Random(seed), and the kernel's mass."""
    link = build_link(cfg)
    h = cfg["heat"]
    rng = random.Random(cfg["run"]["seed"])
    ns = h["n_samples"]

    def uniform(lo, hi):
        return np.array([rng.uniform(lo, hi) for _ in range(ns)])

    t = np.exp(uniform(math.log(h["t_min"]), math.log(h["t_max"])))
    x = uniform(0.1, 2.0)
    y = uniform(0.1, 2.0)
    dth = uniform(-math.pi, math.pi)
    err = heat.s1_plane_kernel_error(t, x, y, dth)
    mass = heat.kernel_mass(link.n, 0.01, 1.0)
    mass_err = abs(mass - 1.0)
    tol = cfg["tolerances"]["heat_error"]
    return {
        "link": link.name,
        "plane_equality_max_relative_error": err,
        "mass_conservation_error": mass_err,
        "n_samples": ns,
        "pass": err < tol and mass_err < tol,
    }


def cmd_mapping(cfg: dict) -> dict:
    return heat.mapping_exponent_report(build_link(cfg),
                                        cfg["mapping"]["exponent"])


def cmd_convergence(cfg: dict) -> dict:
    if cfg["metric"]["preset"] == "file":
        raise ConfigError("convergence refines grid.N, which a metric file "
                          "fixes; metric.preset = file is not refinable")
    c = cfg["convergence"]
    Ns = [c["base_N"] * 2**k for k in range(c["refinements"] + 1)]
    values = []
    for N in Ns:
        sub = {sec: dict(keys) for sec, keys in cfg.items()}
        sub["grid"]["N"] = N
        values.append(entropy.compute_lambda(build_metric(sub)).value)
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    scale = max(1e-300, max(abs(v) for v in values))
    if all(d <= 1e-10 * scale for d in diffs):
        # below the roundoff floor at every resolution (exact discrete
        # solutions, e.g. constant minimizers); an order fit is vacuous
        orders, order = [math.inf], math.inf
    else:
        orders = [math.log2(diffs[i] / diffs[i + 1])
                  for i in range(len(diffs) - 1) if diffs[i + 1] > 0]
        order = float(np.mean(orders)) if orders else float("nan")
    write_csv(cfg, "convergence.csv", ["N", "lambda"],
              list(zip(Ns, values)))
    return {
        "op": "lambda",
        "N_values": Ns,
        "values": values,
        "successive_differences": diffs,
        "fitted_order": order if math.isfinite(order) else None,
        "exact_at_all_resolutions": not math.isfinite(order) and bool(orders),
        "pass": bool(orders) and order >= cfg["tolerances"]["fit_order"],
    }


# each runner returns its own report fields, "pass" among them; main adds
# the shared envelope of _base_report and derives the exit code from "pass"
_RUNNERS = {
    "link-check": cmd_link_check,
    "lambda": cmd_lambda,
    "mu": cmd_mu,
    "nu": cmd_nu,
    "flow": cmd_flow,
    "heat-check": cmd_heat_check,
    "mapping": cmd_mapping,
    "convergence": cmd_convergence,
}

# shorthand flags for --set: flag -> section.key, shared by all subcommands
_FLAGS = {
    "--seed": "run.seed",
    "--output-dir": "run.output_dir",
    "--preset": "metric.preset",
    "--link": "metric.link",
    "--N": "grid.N",
    "--p": "grid.p",
    "--L": "grid.L",
}
_SUBCOMMAND_FLAGS = {
    "mu": {"--tau": "mu.tau", "--variant": "mu.variant"},
    "nu": {"--variant": "nu.variant"},
    "convergence": {"--refinements": "convergence.refinements"},
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are operational errors: exit 1 with one line."""

    def error(self, message):
        raise ConfigError(message)


def _add_shorthands(parser: argparse.ArgumentParser, flags: dict) -> None:
    for flag, dest in flags.items():
        parser.add_argument(flag, dest=dest, metavar="VALUE",
                            help=f"shorthand for --set {dest}=VALUE")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it as is."""
    parser = _ArgumentParser(
        prog="conelab",
        description="entropy functionals and singular Ricci-de Turck flow "
                    "on radial conical metrics")
    parser.add_argument("--version", action="version", version=__version__)
    # the options every subcommand shares, built once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config value")
    _add_shorthands(common, _FLAGS)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = subs.add_parser(name, help=f"run the {name} harness",
                             parents=[common])
        _add_shorthands(sp, _SUBCOMMAND_FLAGS.get(name, {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        flags = [f"{dest}={val}" for dest, val in vars(args).items()
                 if "." in dest and val is not None]
        cfg = parse_config(args.config, args.set + flags)
        report = {**_base_report(cfg, args.subcommand),
                  **_RUNNERS[args.subcommand](cfg)}
        path = write_report(cfg, report)
    except (geometry.ConelabError, OSError, ValueError, ArithmeticError,
            MemoryError) as exc:
        print(f"conelab: error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL

    verdict = "pass" if report["pass"] else "property-check failure"
    print(f"conelab {args.subcommand}: {verdict} ({path})")
    return EXIT_OK if report["pass"] else EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
