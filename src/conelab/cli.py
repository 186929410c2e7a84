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
import datetime
import difflib
import json
import math
import os
import sys

import numpy as np

from . import __version__, entropy, flow, geometry, heat, spectral
from . import link as linkmod

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_PROPERTY = 2

SUBCOMMANDS = ("link-check", "lambda", "mu", "nu", "flow", "heat-check",
               "mapping", "convergence")


class ConfigError(geometry.ConelabError):
    pass


def _parse_bool(s) -> bool:
    return str(s).strip().lower() in ("1", "true", "yes", "on")


# section -> key -> (parser, default).  The documented configuration schema;
# anything outside it is a fatal unknown-key error.
CONFIG_SCHEMA = {
    "run": {
        "subcommand": (str, ""),
        "seed": (int, 0),
        "output_dir": (str, "out"),
        "svg": (_parse_bool, False),
    },
    "grid": {
        "N": (int, 2000),
        "p": (float, 2.0),
        "L": (float, 1.0),
    },
    "metric": {
        "preset": (str, "flat_cone"),
        "link": (str, "S3"),
        "k_max": (int, 12),
        "cone_factor": (float, 1.0),
        "radius": (float, 1.0),
        "amplitude": (float, 0.01),
        "exponent": (float, 2.0),
        "cutoff": (float, 0.0),
        "path": (str, ""),
        "gamma": (float, 1.0),
    },
    "tolerances": {
        "el_residual": (float, 1e-8),
        "constraint": (float, 1e-12),
        "monotonicity": (float, 1e-7),
        "heat_error": (float, 1e-8),
        "fit_order": (float, 1.8),
    },
    "mu": {
        "tau": (float, 0.5),
        "variant": (str, "minus"),
    },
    "nu": {
        "variant": (str, "minus"),
        "tau_min": (float, 1e-3),
        "tau_max": (float, 1e3),
    },
    "flow": {
        "t_end": (float, 0.004),
        "normalization": (str, "steady"),
        "entropy": (str, "auto"),
        "samples": (int, 55),
        "cfl": (float, 0.4),
        "reference": (str, "initial"),
        "drift_bound": (float, 1e-3),
    },
    "heat": {
        "t_min": (float, 0.01),
        "t_max": (float, 1.0),
        "n_samples": (int, 100),
    },
    "mapping": {
        "exponent": (float, 3.0),
    },
    "convergence": {
        "op": (str, "lambda"),
        "base_N": (int, 250),
        "refinements": (int, 3),
    },
}


def _default_config() -> dict:
    return {sec: {k: default for k, (_, default) in keys.items()}
            for sec, keys in CONFIG_SCHEMA.items()}


def _all_keys() -> list[str]:
    return [f"{sec}.{k}" for sec, keys in CONFIG_SCHEMA.items() for k in keys]


def _set_value(cfg: dict, section: str, key: str, raw) -> None:
    if section not in CONFIG_SCHEMA:
        near = difflib.get_close_matches(section, CONFIG_SCHEMA.keys(), n=1)
        hint = f"; nearest valid section: {near[0]!r}" if near else ""
        raise ConfigError(f"unknown config section {section!r}{hint}")
    if key not in CONFIG_SCHEMA[section]:
        near = difflib.get_close_matches(
            f"{section}.{key}", _all_keys(), n=1)
        hint = f"; nearest valid key: {near[0]!r}" if near else ""
        raise ConfigError(f"unknown config key {section}.{key!r}{hint}")
    parse = CONFIG_SCHEMA[section][key][0]
    try:
        cfg[section][key] = parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})")


def parse_config(path: str | None = None,
                 overrides: list[str] | None = None) -> dict:
    """Defaults, then INI file, then KEY=VALUE overrides (section.key)."""
    cfg = _default_config()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case (N, L)
        read = parser.read(path)
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
    for key, val in cfg["tolerances"].items():
        if val <= 0:
            raise ConfigError(f"tolerances.{key} must be positive")
    if cfg["grid"]["N"] < 16:
        raise ConfigError("grid.N must be at least 16")
    if cfg["metric"]["path"] and cfg["metric"]["preset"] not in ("", "file"):
        raise ConfigError(
            "metric.path conflicts with metric.preset; use preset = file")


def _render_value(val) -> str:
    if isinstance(val, bool):
        return str(val)
    if isinstance(val, float):
        return repr(val)  # exact float round-trip
    return str(val)


def render_config(cfg: dict) -> str:
    """Effective configuration as INI text; re-parsing reproduces the run."""
    lines = []
    for sec in sorted(cfg):
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            lines.append(f"{key} = {_render_value(cfg[sec][key])}")
        lines.append("")
    return "\n".join(lines)


# -- model construction ------------------------------------------------------------

def build_link(cfg: dict) -> linkmod.LinkData:
    return linkmod.get_link(cfg["metric"]["link"], k_max=cfg["metric"]["k_max"])


def build_metric(cfg: dict) -> geometry.RadialMetric:
    m = cfg["metric"]
    g = cfg["grid"]
    link = build_link(cfg)
    preset = m["preset"] or ("file" if m["path"] else "flat_cone")
    if preset == "flat_cone":
        grid = geometry.RadialGrid.graded(g["N"], g["L"], p=g["p"])
        return geometry.flat_cone(link, grid, cone_factor=m["cone_factor"],
                                  gamma=m["gamma"])
    if preset == "sphere_suspension":
        return geometry.sphere_suspension(link, g["N"], radius=m["radius"],
                                          p=g["p"])
    if preset == "perturbed_cone":
        grid = geometry.RadialGrid.graded(g["N"], g["L"], p=g["p"])
        cutoff = m["cutoff"] if m["cutoff"] > 0 else None
        return geometry.perturbed_cone(link, grid, amplitude=m["amplitude"],
                                       exponent=m["exponent"], cutoff=cutoff)
    if preset == "file":
        if not m["path"]:
            raise ConfigError("metric.preset = file requires metric.path")
        return geometry.metric_from_csv(link, m["path"], gamma=m["gamma"])
    raise ConfigError(f"unknown metric preset {preset!r}")


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
    root = os.environ.get("CONELAB_OUTPUT_ROOT")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
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


def svg_line_plot(path: str, xs, ys, title: str) -> None:
    """Minimal static 640x400 SVG polyline chart (no external plotting stack)."""
    width, height = 640, 400
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    mx, pad = 60, 20
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = mx + (xs - x0) / (x1 - x0) * (width - mx - pad)
    py = (height - mx) - (ys - y0) / (y1 - y0) * (height - mx - pad)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width/2:.0f}" y="16" text-anchor="middle" '
        f'font-size="13">{title}</text>\n'
        f'<line x1="{mx}" y1="{pad}" x2="{mx}" y2="{height-mx}" '
        f'stroke="black"/>\n'
        f'<line x1="{mx}" y1="{height-mx}" x2="{width-pad}" '
        f'y2="{height-mx}" stroke="black"/>\n'
        f'<text x="{mx}" y="{height-mx+14}" font-size="10">{x0:.4g}</text>\n'
        f'<text x="{width-pad}" y="{height-mx+14}" text-anchor="end" '
        f'font-size="10">{x1:.4g}</text>\n'
        f'<text x="{mx-4}" y="{height-mx}" text-anchor="end" '
        f'font-size="10">{y0:.4g}</text>\n'
        f'<text x="{mx-4}" y="{pad+4}" text-anchor="end" '
        f'font-size="10">{y1:.4g}</text>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue" '
        f'stroke-width="1.5"/>\n'
        f'</svg>\n'
    )
    with open(path, "w") as fh:
        fh.write(svg)


# -- subcommands -------------------------------------------------------------------

def cmd_link_check(cfg: dict) -> tuple[int, dict]:
    link = build_link(cfg)
    report = _base_report(cfg, "link-check")
    verdict = linkmod.check_tangential_stability(link)
    gap = linkmod.check_admissibility_gap(link)
    ind = spectral.indicial_exponents(link, gamma=cfg["metric"]["gamma"])
    report.update({
        "link": link.name,
        "n": link.n,
        "stability": verdict,
        "admissibility_gap": gap,
        "gamma_bar": ind.gamma_bar,
        "indicial_nu": ind.nu,
        "indicial_mu_plus": ind.mu_plus,
        "essentially_selfadjoint": ind.essentially_selfadjoint,
    })
    ok = verdict in (linkmod.STRICTLY_STABLE, linkmod.STABLE_NOT_STRICT) and gap
    report["pass"] = ok
    return (EXIT_OK if ok else EXIT_PROPERTY), report


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
        "multiplier": rep.multiplier,
        "normalization_identity": rep.normalization_identity,
        "basin_values": list(rep.basin_values), "nonconvex": rep.nonconvex,
    }


def _residual_gate(cfg: dict, report: dict, rep) -> tuple[int, dict]:
    """Pass iff the EL and constraint residuals of rep are within tolerance."""
    tol = cfg["tolerances"]
    ok = (rep.el_residual < tol["el_residual"]
          and rep.constraint_residual < tol["constraint"])
    report["pass"] = ok
    return (EXIT_OK if ok else EXIT_PROPERTY), report


def cmd_lambda(cfg: dict) -> tuple[int, dict]:
    metric = build_metric(cfg)
    rep = entropy.compute_lambda(metric)
    report = _base_report(cfg, "lambda")
    report.update(_solution_fields(rep, metric.grid))
    return _residual_gate(cfg, report, rep)


def cmd_mu(cfg: dict) -> tuple[int, dict]:
    metric = build_metric(cfg)
    rep = entropy.compute_mu(metric, cfg["mu"]["tau"],
                             variant=cfg["mu"]["variant"])
    report = _base_report(cfg, "mu")
    report.update(_mu_report_dict(rep, metric.grid))
    return _residual_gate(cfg, report, rep)


def cmd_nu(cfg: dict) -> tuple[int, dict]:
    metric = build_metric(cfg)
    rep = entropy.compute_nu(metric, variant=cfg["nu"]["variant"],
                             tau_range=(cfg["nu"]["tau_min"],
                                        cfg["nu"]["tau_max"]))
    report = _base_report(cfg, "nu")
    report.update({
        "value": rep.value,
        "tau_star": rep.tau_star,
        "variant": rep.variant,
        "lambda_value": rep.lambda_value,
        "optimal_slice": _mu_report_dict(rep.mu_report, metric.grid),
    })
    if cfg["run"]["svg"]:
        svg_line_plot(os.path.join(output_dir(cfg), "tau_profile.svg"),
                      np.log10(rep.tau_profile), rep.mu_profile,
                      f"mu_{rep.variant}(tau) vs log10 tau")
    return _residual_gate(cfg, report, rep.mu_report)


def cmd_flow(cfg: dict) -> tuple[int, dict]:
    metric = build_metric(cfg)
    f = cfg["flow"]
    reference = None
    if f["reference"] == "flat_cone":
        reference = geometry.flat_cone(metric.link, metric.grid,
                                       cone_factor=cfg["metric"]["cone_factor"],
                                       gamma=cfg["metric"]["gamma"])
    elif f["reference"] != "initial":
        raise ConfigError("flow.reference must be 'initial' or 'flat_cone'")
    fconf = flow.FlowConfig(
        t_end=f["t_end"], normalization=f["normalization"],
        reference=reference, cfl=f["cfl"],
        sample_period=f["t_end"] / max(f["samples"], 1),
        entropy_kind=f["entropy"], cone_drift_bound=f["drift_bound"])
    trajectory = flow.run_flow(metric, fconf)
    report = _base_report(cfg, "flow")
    rows = [(s.t, s.entropy_value, s.sup_ric, s.cone_factor)
            for s in trajectory]
    write_csv(cfg, "flow_series.csv",
              ["t", "entropy", "sup_ric", "cone_factor"], rows)
    ok = True
    if fconf.entropy_kind != "none":
        mono = flow.monotonicity_report(
            trajectory, fconf, tol_mono=cfg["tolerances"]["monotonicity"])
        report["monotonicity"] = {
            "which": mono.which,
            "min_successive_diff": mono.min_successive_diff,
            "passed": mono.passed,
            "constant": mono.constant,
            "stationarity_sup": mono.stationarity_sup,
            "stationarity_ok": mono.stationarity_ok,
        }
        ok = mono.passed and (mono.stationarity_ok is not False)
        if cfg["run"]["svg"]:
            svg_line_plot(os.path.join(output_dir(cfg), "entropy_series.svg"),
                          [s.t for s in trajectory],
                          [s.entropy_value for s in trajectory],
                          f"{fconf.entropy_kind} along the flow")
    first, last = trajectory[0], trajectory[-1]
    cone_drift = abs(last.cone_factor / first.cone_factor - 1.0)
    report.update({
        "samples": len(trajectory),
        "t_end": last.t,
        "sup_ric_initial": first.sup_ric,
        "sup_ric_final": last.sup_ric,
        "sup_ric_normalized_final": last.sup_ric_normalized,
        "cone_factor_initial": first.cone_factor,
        "cone_factor_final": last.cone_factor,
        "cone_factor_drift": cone_drift,
        "entropy_initial": first.entropy_value,
        "entropy_final": last.entropy_value,
    })
    report["pass"] = bool(ok)
    return (EXIT_OK if ok else EXIT_PROPERTY), report


def cmd_heat_check(cfg: dict) -> tuple[int, dict]:
    h = cfg["heat"]
    rng = np.random.default_rng(cfg["run"]["seed"])
    ns = h["n_samples"]
    t = np.exp(rng.uniform(math.log(h["t_min"]), math.log(h["t_max"]), ns))
    x = rng.uniform(0.1, 2.0, ns)
    y = rng.uniform(0.1, 2.0, ns)
    dth = rng.uniform(-math.pi, math.pi, ns)
    err = heat.s1_plane_kernel_error(t, x, y, dth)
    mass = heat.kernel_mass(3, 0.01, 1.0)
    mass_err = abs(mass - 1.0)
    report = _base_report(cfg, "heat-check")
    tol = cfg["tolerances"]["heat_error"]
    ok = err < tol and mass_err < tol
    report.update({
        "plane_equality_max_relative_error": err,
        "mass_conservation_error": mass_err,
        "n_samples": ns,
        "pass": ok,
    })
    return (EXIT_OK if ok else EXIT_PROPERTY), report


def cmd_mapping(cfg: dict) -> tuple[int, dict]:
    rep = heat.mapping_exponent_report(build_link(cfg),
                                       cfg["mapping"]["exponent"])
    report = _base_report(cfg, "mapping")
    report.update(rep)
    return (EXIT_OK if rep["pass"] else EXIT_PROPERTY), report


def cmd_convergence(cfg: dict) -> tuple[int, dict]:
    c = cfg["convergence"]
    if c["op"] != "lambda":
        raise ConfigError(f"unsupported convergence op {c['op']!r}")
    if c["refinements"] < 2:
        raise ConfigError("convergence needs at least 2 refinements")
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
    report = _base_report(cfg, "convergence")
    ok = bool(orders) and order >= cfg["tolerances"]["fit_order"]
    report.update({
        "op": "lambda",
        "N_values": Ns,
        "values": values,
        "successive_differences": diffs,
        "fitted_order": order if math.isfinite(order) else None,
        "exact_at_all_resolutions": not math.isfinite(order) and bool(orders),
        "pass": ok,
    })
    if cfg["run"]["svg"]:
        svg_line_plot(os.path.join(output_dir(cfg), "convergence.svg"),
                      np.log2(Ns), np.log10(np.abs(np.array(
                          values) - values[-1]) + 1e-300),
                      "log10 |lambda_N - lambda_finest| vs log2 N")
    return (EXIT_OK if ok else EXIT_PROPERTY), report


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

# convenience flags shared by all subcommands, mapped onto config keys
_FLAG_MAP = {
    "seed": ("run", "seed"),
    "output_dir": ("run", "output_dir"),
    "preset": ("metric", "preset"),
    "link": ("metric", "link"),
    "N": ("grid", "N"),
    "p": ("grid", "p"),
    "L": ("grid", "L"),
    "tau": ("mu", "tau"),
    "variant": ("mu", "variant"),
    "refinements": ("convergence", "refinements"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="entropy functionals and singular Ricci-de Turck flow "
                    "on radial conical metrics")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = subs.add_parser(name, help=f"run the {name} harness")
        sp.add_argument("--config", help="INI configuration file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config value")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--output-dir", dest="output_dir")
        sp.add_argument("--svg", action="store_true")
        sp.add_argument("--preset")
        sp.add_argument("--link")
        sp.add_argument("--N", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--L", type=float)
        if name == "mu":
            sp.add_argument("--tau", type=float)
            sp.add_argument("--variant")
        if name == "nu":
            sp.add_argument("--variant")
        if name == "convergence":
            sp.add_argument("--op")
            sp.add_argument("--refinements", type=int)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(getattr(args, "config", None), args.set)
        for flag, (section, key) in _FLAG_MAP.items():
            val = getattr(args, flag, None)
            if val is not None:
                cfg[section][key] = CONFIG_SCHEMA[section][key][0](val)
        if getattr(args, "svg", False):
            cfg["run"]["svg"] = True
        if getattr(args, "variant", None) is not None:
            cfg["nu"]["variant"] = args.variant
        if getattr(args, "op", None) is not None:
            cfg["convergence"]["op"] = args.op
        cfg["run"]["subcommand"] = args.subcommand
        code, report = _RUNNERS[args.subcommand](cfg)
    except (geometry.ConelabError, OSError, ValueError) as exc:
        print(f"conelab: error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL

    path = write_report(cfg, report)
    verdict = "pass" if code == EXIT_OK else "property-check failure"
    print(f"conelab {args.subcommand}: {verdict} ({path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
