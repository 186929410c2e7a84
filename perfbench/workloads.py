"""The benchmark's workloads: one round of CLI invocations each, with checks.

A round is a fixed list of `conelab` invocations.  The seed draws only the
inputs named in each builder; the program receives nothing but the drawn
values.  Every invocation's report is checked against a closed-form or
self-reported reference, and a few numbers from it are kept as checksums,
so a speed-up that moves an answer shows up next to its time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

LINK = ("--link", "S3")
S4 = ("--preset", "sphere_suspension", *LINK)
FLOW_DRIFT_BOUND = 1e-3   # the CLI default of flow.drift_bound
HEAT_TOL = 1e-8           # the CLI default of tolerances.heat_error


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `kind` names its time metric `<kind>_s`."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[int | None, dict | None], tuple[list[str], dict]]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _checker(body):
    """Wrap a check body so a missing report or key counts as a failure."""
    def check(code, report):
        if code != 0:
            return [f"exit code {code}"], {}
        if report is None:
            return ["no report written"], {}
        failures: list[str] = []
        try:
            sums = body(report, failures)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"malformed report: {exc!r}"], {}
        return failures, sums
    return check


def _expect(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _residuals(rep: dict, failures: list[str], label: str) -> None:
    _expect(failures, rep["el_residual"] < 1e-8,
            f"{label} EL residual {rep['el_residual']:.3g} >= 1e-8")
    _expect(failures, rep["constraint_residual"] < 1e-12,
            f"{label} constraint residual "
            f"{rep['constraint_residual']:.3g} >= 1e-12")


@_checker
def check_lambda(rep, failures):
    # lambda of the round S^4 of radius 1 is scal = 12
    _expect(failures, abs(rep["value"] - 12.0) < 1e-3,
            f"lambda {rep['value']!r} not within 1e-3 of 12")
    _residuals(rep, failures, "lambda")
    return {"lambda": rep["value"]}


@_checker
def check_mu(rep, failures):
    _residuals(rep, failures, f"mu_{rep['variant']}")
    return {f"mu_{rep['variant']}": rep["value"]}


@_checker
def check_nu(rep, failures):
    # the shrinker entropy of the round S^4 of radius 1 is optimal at
    # tau* = 1/(2 (m - 1)) = 1/6
    _expect(failures, abs(rep["tau_star"] - 1.0 / 6.0) < 1e-6,
            f"nu tau* {rep['tau_star']!r} not within 1e-6 of 1/6")
    _residuals(rep["optimal_slice"], failures, "nu optimal slice")
    return {"nu": rep["value"]}


@_checker
def check_convergence(rep, failures):
    return {"lambda_finest": rep["values"][-1]}


@_checker
def check_flow(rep, failures):
    _expect(failures, rep["samples"] >= 50,
            f"only {rep['samples']} flow samples")
    _expect(failures, rep["sup_ric_final"] < rep["sup_ric_initial"],
            f"sup|Ric| grew: {rep['sup_ric_initial']!r} -> "
            f"{rep['sup_ric_final']!r}")
    _expect(failures, rep["cone_factor_drift"] < FLOW_DRIFT_BOUND,
            f"cone drift {rep['cone_factor_drift']!r} over bound")
    return {"sup_ric_final": rep["sup_ric_final"],
            "lambda_final": rep["entropy_final"]}


@_checker
def check_heat(rep, failures):
    plane = rep["plane_equality_max_relative_error"]
    mass = rep["mass_conservation_error"]
    _expect(failures, plane < HEAT_TOL, f"plane error {plane:.3g}")
    _expect(failures, mass < HEAT_TOL, f"mass error {mass:.3g}")
    return {"plane_error": plane, "mass_error": mass}


@_checker
def check_mapping(rep, failures):
    _expect(failures, rep["pass"] is True, "mapping report did not pass")
    return {"spatial_slope": rep["spatial"]["slope"],
            "temporal_slope": rep["temporal_slope"]}


def entropy_flow(seed: int) -> list[Op]:
    """The entropy layer on the round S^4, then the README's cone flow.

    The two halves load geometry in opposite ways: the entropy ops build
    fresh grids and apply few stencils, the flow builds one grid and applies
    its stencils thousands of times.
    """
    rng = random.Random(seed)
    tau_minus = _log_uniform(rng, 0.05, 0.5)
    tau_plus = _log_uniform(rng, 0.2, 2.0)
    amplitude = rng.uniform(0.005, 0.02)
    return [
        Op("lambda", ("lambda", *S4, "--N", "2000"), check_lambda),
        Op("mu", ("mu", *S4, "--N", "2000", "--variant", "minus",
                  "--tau", repr(tau_minus)), check_mu),
        Op("mu", ("mu", *S4, "--N", "2000", "--variant", "plus",
                  "--tau", repr(tau_plus)), check_mu),
        Op("nu", ("nu", *S4, "--N", "800"), check_nu),
        Op("convergence", ("convergence", *S4, "--refinements", "3"),
           check_convergence),
        Op("flow", ("flow", "--preset", "perturbed_cone", *LINK, "--N", "800",
                    "--set", "grid.p=1.0", "--set", "grid.L=2.0",
                    "--set", "metric.cutoff=0.7",
                    "--set", "flow.reference=flat_cone",
                    "--set", f"metric.amplitude={amplitude!r}"), check_flow),
    ]


def heat_cone(seed: int) -> list[Op]:
    return [
        Op("heat_check", ("heat-check", *LINK, "--seed", str(seed)),
           check_heat),
        Op("mapping", ("mapping", *LINK), check_mapping),
    ]


WORKLOADS = {
    "entropy-flow": entropy_flow,
    "heat-cone": heat_cone,
}
