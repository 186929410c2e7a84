"""Spans around the calls into each conelab layer, recorded from outside.

`Tracer.install` replaces every module binding of the wrapped functions
with a recording wrapper and `Tracer.uninstall` puts the originals back;
the untraced benchmark never installs anything.  A name imported with
`from .x import y` is a separate binding, so each wrapped function is
replaced in every conelab module that holds it.  `solve_banded` comes from
scipy and is wrapped per binding, one span name per importing module.

Spans stay in memory as (name, start, end, parent, op, error) and are
written out when the run ends.  Per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

import conelab
from conelab import cli, entropy, flow, geometry, heat, link, spectral

MODULES = (conelab, link, geometry, spectral, entropy, heat, flow, cli)

# (span name, owner, attribute, wrap every binding of the same object)
TARGETS = (
    ("geometry.fornberg_weights", geometry, "fornberg_weights", True),
    ("geometry.RadialGrid.d1", geometry.RadialGrid, "d1", True),
    ("geometry.RadialGrid.d2", geometry.RadialGrid, "d2", True),
    ("geometry.warped_ricci", geometry, "warped_ricci", True),
    ("geometry.volume_form", geometry, "volume_form", True),
    ("spectral.assemble_operator", spectral, "assemble_operator", True),
    ("spectral.solve_ground_state", spectral, "solve_ground_state", True),
    ("spectral.solve_banded", spectral, "solve_banded", False),
    ("spectral.fit_asymptotics", spectral, "fit_asymptotics", True),
    ("entropy.compute_lambda", entropy, "compute_lambda", True),
    ("entropy.compute_mu", entropy, "compute_mu", True),
    ("entropy.compute_nu", entropy, "compute_nu", True),
    ("entropy.solve_banded", entropy, "solve_banded", False),
    ("heat.bessel_i", heat, "bessel_i", True),
    ("heat.cone_kernel_mode", heat, "cone_kernel_mode", True),
    ("heat.heat_apply", heat, "heat_apply", True),
    ("heat.heat_convolve", heat, "heat_convolve", True),
    ("heat.classify_tip_behavior", heat, "classify_tip_behavior", True),
    ("heat.s1_plane_kernel_error", heat, "s1_plane_kernel_error", True),
    ("flow.run_flow", flow, "run_flow", True),
    ("flow.flow_rhs", flow, "flow_rhs", True),
    ("flow.deturck_vector_field", flow, "deturck_vector_field", True),
    ("flow.solve_banded", flow, "solve_banded", False),
    ("cli.build_metric", cli, "build_metric", True),
    ("cli.write_report", cli, "write_report", True),
    ("cli.write_csv", cli, "write_csv", True),
    ("link.get_link", link, "get_link", True),
)

# per-layer metrics of a traced run, in BENCHMARK.json order: (name, unit)
PER_LAYER = (
    ("geometry.fornberg_weights.calls", "count"),
    ("geometry.fornberg_weights.self_s", "s"),
    ("geometry.RadialGrid.d1.calls", "count"),
    ("geometry.RadialGrid.d1.self_s", "s"),
    ("geometry.RadialGrid.d2.calls", "count"),
    ("geometry.RadialGrid.d2.self_s", "s"),
    ("geometry.warped_ricci.calls", "count"),
    ("geometry.warped_ricci.self_s", "s"),
    ("geometry.volume_form.calls", "count"),
    ("geometry.volume_form.self_s", "s"),
    ("spectral.assemble_operator.calls", "count"),
    ("spectral.assemble_operator.self_s", "s"),
    ("spectral.solve_ground_state.calls", "count"),
    ("spectral.solve_ground_state.self_s", "s"),
    ("spectral.solve_banded.calls", "count"),
    ("spectral.solve_banded.self_s", "s"),
    ("spectral.fit_asymptotics.calls", "count"),
    ("spectral.fit_asymptotics.self_s", "s"),
    ("entropy.compute_lambda.calls", "count"),
    ("entropy.compute_lambda.self_s", "s"),
    ("entropy.compute_mu.calls", "count"),
    ("entropy.compute_mu.self_s", "s"),
    ("entropy.compute_mu.converged_ratio", "ratio"),
    ("entropy.compute_nu.self_s", "s"),
    ("entropy.compute_nu.mu_solves", "count"),
    ("entropy.solve_banded.calls", "count"),
    ("heat.bessel_i.calls", "count"),
    ("heat.bessel_i.self_s", "s"),
    ("heat.bessel_i.points", "count"),
    ("heat.cone_kernel_mode.calls", "count"),
    ("heat.cone_kernel_mode.self_s", "s"),
    ("heat.cone_kernel_mode.points", "count"),
    ("heat.heat_apply.calls", "count"),
    ("heat.heat_apply.self_s", "s"),
    ("heat.heat_apply.kernel_bytes", "B"),
    ("heat.heat_convolve.self_s", "s"),
    ("heat.classify_tip_behavior.self_s", "s"),
    ("heat.s1_plane_kernel_error.self_s", "s"),
    ("flow.run_flow.self_s", "s"),
    ("flow.flow_rhs.calls", "count"),
    ("flow.flow_rhs.self_s", "s"),
    ("flow.deturck_vector_field.calls", "count"),
    ("flow.deturck_vector_field.self_s", "s"),
    ("flow.solve_banded.calls", "count"),
    ("flow.solve_banded.self_s", "s"),
    ("flow.step_s", "s"),
    ("flow.entropy_samples_s", "s"),
    ("cli.build_metric.calls", "count"),
    ("cli.build_metric.self_s", "s"),
    ("cli.write_report.self_s", "s"),
    ("cli.write_report.bytes", "B"),
    ("cli.write_csv.self_s", "s"),
    ("link.get_link.calls", "count"),
    ("link.get_link.s", "s"),
    *((f"{name}.errors", "count") for name, *_ in TARGETS),
    ("bench.round_s_untraced", "s"),
    ("bench.round_s_traced", "s"),
    ("bench.trace_overhead", "ratio"),
)


def _arg(fn, name):
    """Read argument `name` of a call to fn, defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _extras(orig):
    """Per-call counts beyond calls and time, keyed by span name."""
    bessel_z = _arg(orig["heat.bessel_i"], "z")
    kernel = (_arg(orig["heat.cone_kernel_mode"], "x"),
              _arg(orig["heat.cone_kernel_mode"], "x_tilde"))
    apply_grid = _arg(orig["heat.heat_apply"], "grid")
    apply_quad = _arg(orig["heat.heat_apply"], "quad_pts")
    mu_starts = _arg(orig["entropy.compute_mu"], "starts")
    mu_omega0 = _arg(orig["entropy.compute_mu"], "omega0")

    def kernel_bytes(a, k, r):
        # computed, not measured: the dense N x (N * quad_pts) float64 kernel
        n = apply_grid(a, k).N
        return n * n * apply_quad(a, k) * 8

    def mu_basins(a, k, r):
        tried = len(mu_starts(a, k)) + (mu_omega0(a, k) is not None)
        return (len(r.basin_values), tried)

    return {
        "heat.bessel_i": lambda a, k, r: int(_size(bessel_z(a, k))),
        "heat.cone_kernel_mode": lambda a, k, r: int(
            _size(kernel[0](a, k), kernel[1](a, k))),
        "heat.heat_apply": kernel_bytes,
        "entropy.compute_mu": mu_basins,
        "cli.write_report": lambda a, k, r: os.path.getsize(r),
    }


def _size(*arrays):
    return np.broadcast(*(np.asarray(x) for x in arrays)).size


class Tracer:
    """Recording wrappers for every binding in TARGETS."""

    def __init__(self):
        self.spans: list = []
        self.extra: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        spans, stack, extras = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, failed)
            if extra is not None:
                extras[idx] = extra(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        orig = {name: owner.__dict__[attr]
                for name, owner, attr, _ in TARGETS}
        extras = _extras(orig)
        for name, owner, attr, every in TARGETS:
            fn = orig[name]
            wrapper = self._wrap(name, fn, extras.get(name))
            bindings = [(owner, attr)]
            if every:
                bindings += [(m, key) for m in MODULES if m is not owner
                             for key, val in vars(m).items() if val is fn]
            for o, key in bindings:
                self._patched.append((o, key, fn))
                setattr(o, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new round."""
        return len(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

    def layer_metrics(self, first: int, rounds: int) -> dict[str, float]:
        """Per-round per-layer metrics over spans[first:] (`rounds` rounds)."""
        spans = self.spans[first:]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= first:
                child[s[3] - first] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        errors = defaultdict(int)
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            self_s[s[0]] += dur[i] - child[i]
            total_s[s[0]] += dur[i]
            errors[s[0]] += s[5]
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = errors[name]
        out["link.get_link.s"] = total_s["link.get_link"]

        def extra_sum(name, pick=lambda v: v):
            return sum(pick(self.extra[first + i])
                       for i, s in enumerate(spans)
                       if s[0] == name and first + i in self.extra)

        out["heat.bessel_i.points"] = extra_sum("heat.bessel_i")
        out["heat.cone_kernel_mode.points"] = extra_sum("heat.cone_kernel_mode")
        out["heat.heat_apply.kernel_bytes"] = extra_sum("heat.heat_apply")
        out["cli.write_report.bytes"] = extra_sum("cli.write_report")

        def children_of(name):
            return [i for i, s in enumerate(spans)
                    if s[3] >= first and spans[s[3] - first][0] == name]

        out["entropy.compute_nu.mu_solves"] = sum(
            spans[i][0] == "entropy.compute_mu"
            for i in children_of("entropy.compute_nu"))
        entropy_in_flow = sum((dur[i] for i in children_of("flow.run_flow")
                               if spans[i][0].startswith("entropy.")), 0.0)
        out["flow.entropy_samples_s"] = entropy_in_flow
        # sums over the run become per-round values; a count stays a whole
        # number when every round repeats it
        for k, v in out.items():
            exact = isinstance(v, int) and v % rounds == 0
            out[k] = v // rounds if exact else v / rounds
        # ratios of sums, already independent of the number of rounds
        converged = extra_sum("entropy.compute_mu", lambda v: v[0])
        tried = extra_sum("entropy.compute_mu", lambda v: v[1])
        out["entropy.compute_mu.converged_ratio"] = (
            converged / tried if tried else 0.0)
        steps = calls["flow.flow_rhs"]
        out["flow.step_s"] = ((total_s["flow.run_flow"] - entropy_in_flow)
                              / steps if steps else 0.0)
        return out
