"""Self-test of the benchmark on tiny configurations.

    python3 perfbench/run.py --self-test

Checks that the untraced path leaves every conelab module attribute as it
was; that the tracer wraps every binding of each wrapped function and
restores them all; that exact counts match counts taken another way
(flow.flow_rhs.calls equals the step count, geometry.fornberg_weights.calls
equals 2N per fresh grid, entropy.compute_nu.mu_solves equals the length of
tau_profile); that the output checks reject wrong answers; and that
BENCHMARK.json lists exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os

from conelab import cli, entropy, flow, geometry, link

import run
import spans
import workloads

S4 = ("--preset", "sphere_suspension", "--link", "S3")


def _snapshot() -> dict:
    owners = [*spans.MODULES, geometry.RadialGrid]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _traced(out_dir, *argvs):
    """Run CLI invocations with the tracer installed; per-layer metrics."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        for argv in argvs:
            op = workloads.Op("selftest", argv, None)
            _, code, error = run.run_op(cli, op, out_dir)
            if code != 0 or error is not None:
                raise RuntimeError(f"{' '.join(argv)}: exit {code}, {error}")
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(first, 1)


def main() -> int:
    out_dir = os.path.join(run.OUT, "selftest")
    os.makedirs(out_dir, exist_ok=True)
    results = []

    def check(what, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}{': ' + detail if detail else ''}")

    before = _snapshot()
    op = workloads.Op("lambda", ("lambda", *S4, "--N", "50"),
                      workloads.check_lambda)
    run.run_op(cli, op, out_dir)
    check("untraced op leaves every module attribute untouched",
          _same(before, _snapshot()))

    tracer = spans.Tracer()
    tracer.install()
    try:
        originals = {id(fn) for _, _, fn in tracer._patched}
        stale = [key for key, v in _snapshot().items() if id(v) in originals]
        check("installed tracer leaves no conelab binding unwrapped",
              not stale, f"unwrapped: {stale}" if stale else "")
    finally:
        tracer.uninstall()
    check("uninstall restores every module attribute",
          _same(before, _snapshot()))

    # the flow step count, counted by a probe on the private per-step
    # band assembly, which the tracer does not wrap
    steps = 0
    bands = flow._implicit_bands

    def probe(*args, **kwargs):
        nonlocal steps
        steps += 1
        return bands(*args, **kwargs)

    flow._implicit_bands = probe
    try:
        m = _traced(out_dir, (
            "flow", "--preset", "perturbed_cone", "--link", "S3",
            "--N", "160", "--set", "grid.p=1.0", "--set", "grid.L=2.0",
            "--set", "metric.cutoff=0.7", "--set", "flow.reference=flat_cone"))
    finally:
        flow._implicit_bands = bands
    check("flow.flow_rhs.calls equals the step count",
          steps > 0 and m["flow.flow_rhs.calls"] == steps
          and m["flow.solve_banded.calls"] == 2 * steps,
          f"{m['flow.flow_rhs.calls']} calls, {steps} steps, "
          f"{m['flow.solve_banded.calls']} banded solves")

    # one fresh grid per resolution: N = 40, 80, 160
    m = _traced(out_dir, ("convergence", *S4, "--refinements", "2",
                          "--set", "convergence.base_N=40"))
    check("geometry.fornberg_weights.calls equals 2N per fresh grid",
          m["geometry.fornberg_weights.calls"] == 2 * (40 + 80 + 160),
          f"{m['geometry.fornberg_weights.calls']} calls")

    tracer = spans.Tracer()
    metric = geometry.sphere_suspension(link.sphere_link(3, 12), 120, p=2.0)
    tracer.install()
    try:
        first = tracer.mark()
        rep = entropy.compute_nu(metric)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(first, 1)
    solves = m["entropy.compute_nu.mu_solves"]
    check("entropy.compute_nu.mu_solves equals len(tau_profile)",
          solves == len(rep.tau_profile) > 0,
          f"{solves} solves, {len(rep.tau_profile)} taus")
    ratio = m["entropy.compute_mu.converged_ratio"]
    check("entropy.compute_mu.converged_ratio is a share of starts",
          0.0 < ratio <= 1.0, f"{ratio}")

    good = {"value": 12.0, "el_residual": 1e-12, "constraint_residual": 0.0}
    check("checks accept a right answer",
          workloads.check_lambda(0, good)[0] == [])
    bad = [(0, {**good, "value": 11.99}), (0, {**good, "el_residual": 1e-6}),
           (2, good), (None, good), (0, None), (0, {"value": 12.0})]
    check("checks reject wrong answers, exit codes and missing reports",
          all(workloads.check_lambda(c, r)[0] for c, r in bad))
    flow_rep = {"samples": 56, "sup_ric_initial": 0.6, "sup_ric_final": 0.7,
                "cone_factor_drift": 0.0, "entropy_final": 0.0}
    check("flow check rejects a growing sup|Ric|",
          bool(workloads.check_flow(0, flow_rep)[0]))

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check("BENCHMARK.json end_to_end matches the printed metrics",
          listed == list(run.END_TO_END))
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check("BENCHMARK.json per_layer matches the printed metrics",
          listed == list(spans.PER_LAYER))
    check("BENCHMARK.json workloads match the benchmark's",
          [w["name"] for w in bench["workloads"]]
          == list(workloads.WORKLOADS))

    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1
