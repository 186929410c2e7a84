"""Ricci-de Turck flow of radial conical metrics.

The flow integrated here is

    d g / dt = -2 Ric(g) + L_W g + 2 kappa g,   kappa in {0, +1, -1},

with W the de Turck vector field of a fixed radial reference metric.  For
the warped ansatz g = a^2 dx^2 + b^2 g_F both sides stay radial (the only
possible off-diagonal contribution, (L_W g)_{x i}, vanishes identically for
a radial field W = w(x) d/dx), and the component equations are

    da/dt = a (kappa - Ric_rad)  + (a w)'
    db/dt = b (kappa - Ric_link) + b' w
    w     = (1/a^2)(a'/a - r_a'/r_a) + n (r_b r_b'/(r_a^2 b^2) - b'/(a^2 b))

with r_a, r_b the reference warping functions and ' = d/dx.  The principal
part of both equations is u''/a^2 (the stiff b'' pieces of Ric_rad and of
(a w)' cancel).  Each step takes the 3-point diffusion D3 u / a^2 implicitly,
D3 the 3-point second difference of the graded grid, by one tridiagonal
solve per field, and the explicit remainder (the full right-hand side minus
D3 u / a^2) explicitly.  The degenerate tip region and the outer truncation
are held frozen on a band of nodes; the interior CFL controller steps
against the squared minimum spacing of the evolved nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import entropy, geometry, link as linkmod, spectral
from .geometry import ConelabError, RadialMetric, warped_ricci
from .spectral import solve_banded


class FlowError(ConelabError):
    pass


_KAPPA = {"steady": 0.0, "shrink": 1.0, "expand": -1.0}
# the entropy that is monotone under each normalization
_MATCHING_ENTROPY = {"steady": "lambda", "shrink": "mu_minus",
                     "expand": "mu_plus"}


@dataclass
class FlowConfig:
    t_end: float
    normalization: str = "steady"
    reference: RadialMetric | None = None  # None: the initial metric
    cfl: float = 0.4                       # dt = cfl * min(dx)^2 (evolved nodes)
    sample_period: float = 0.0             # 0: diagnostics only at start/end
    entropy_kind: str = "auto"             # auto | the matching one | none
    cone_drift_bound: float = 1e-3

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError("cfl factor must lie in (0, 1)")
        if self.normalization not in _KAPPA:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        matching = _MATCHING_ENTROPY[self.normalization]
        if self.entropy_kind == "auto":
            self.entropy_kind = matching
        if self.entropy_kind not in (matching, "none"):
            raise ValueError(
                f"entropy {self.entropy_kind!r} cannot be certified under the "
                f"{self.normalization!r} normalization (needs {matching!r})")


@dataclass
class FlowState:
    t: float
    metric: RadialMetric
    sup_ric: float
    sup_ric_normalized: float  # sup |Ric - kappa g| in the orthonormal frame
    cone_factor: float
    entropy_value: float | None = None


def deturck_vector_field(metric: RadialMetric,
                         reference: RadialMetric) -> np.ndarray:
    """Radial component w of the de Turck field of (metric, reference)."""
    if metric.grid is not reference.grid and not np.array_equal(
            metric.grid.x, reference.grid.x):
        raise ValueError("metric and reference must share a grid")
    if metric.link is not reference.link:
        raise ValueError("metric and reference must share a link")
    a, b = metric.a, metric.b
    ra, rb = reference.a, reference.b
    n = metric.link.n
    da, db, _ = metric.jet
    dra, drb, _ = reference.jet
    safe_b = np.where(b > 0, b, 1.0)
    w = (da / a - dra / ra) / a**2 + n * (rb * drb / (ra**2 * safe_b**2)
                                          - db / (a**2 * safe_b))
    geometry._pole_takes_neighbour(metric, w)
    return w


def flow_rhs(metric: RadialMetric,
             config: FlowConfig) -> tuple[np.ndarray, np.ndarray]:
    """Component rates (da/dt, db/dt) of the normalized de Turck flow."""
    ref = config.reference if config.reference is not None else metric
    kappa = _KAPPA[config.normalization]
    w = deturck_vector_field(metric, ref)
    ric_rad, ric_link = warped_ricci(metric)
    da = metric.a * (kappa - ric_rad) + metric.grid.d1(metric.a * w)
    db = metric.b * (kappa - ric_link) + metric.jet[1] * w
    if not (np.isfinite(da).all() and np.isfinite(db).all()):
        raise FlowError("non-finite flow right-hand side")
    return da, db


def _implicit_bands(grid, coeff, dt, frozen):
    """Tridiagonal storage of I - dt * diag(coeff) * D3, identity where frozen.

    D3 is the 3-point second difference, the implicit part of the step; the
    explicit remainder carries the rest of the right-hand side.  The end
    rows have no centred 3-point stencil, so both must be frozen.
    """
    if not (frozen[0] and frozen[-1]):
        raise FlowError("end row outside the frozen band")
    lo, mid, hi = grid._d3
    scale = np.where(frozen, 0.0, -dt * coeff)
    # ab[1 + i - j, j] = A[i, j]
    ab = np.zeros((3, grid.N))
    ab[0, 1:] = scale[:-1] * hi[:-1]
    ab[1] = 1.0 + scale * mid
    ab[2, :-1] = scale[1:] * lo[1:]
    return ab


def run_flow(initial: RadialMetric, config: FlowConfig) -> list[FlowState]:
    """Integrate the flow from `initial`; returns the sampled trajectory.

    Implicit-explicit stepping: the 3-point diffusion D3 u / a^2 is solved
    implicitly (one tridiagonal solve per step per field), the remainder of
    the right-hand side explicitly.  The tip band of nodes is slaved
    multiplicatively to the initial profile (band values scale with the
    first evolved node); a smooth outer cap is slaved the same way from the
    other end, while a truncation boundary stays at its initial values.
    """
    ref = config.reference if config.reference is not None else initial
    cfg = replace(config, reference=ref)
    grid = initial.grid
    N = grid.N
    if linkmod.check_tangential_stability(initial.link) == linkmod.UNSTABLE:
        raise FlowError("link is tangentially unstable; the stability "
                        "theory does not cover this flow")
    if ref is not initial:
        # the initial metric must be an admissible perturbation of the
        # reference: same cone factor, deviation decaying at a positive rate
        ok = ref.b > 0
        v = np.zeros(N)
        v[ok] = initial.b[ok] / ref.b[ok] - 1.0
        vmax = float(np.max(np.abs(v)))
        if vmax > 1e-10:
            c0, e, _ = spectral.fit_asymptotics(v, grid)
            if not np.isfinite(e) or e < 0.1 or abs(c0) > 0.1 * vmax:
                raise FlowError(
                    "initial metric is not an admissible perturbation of "
                    "the reference (tip deviation does not decay)")
    nb = 4  # frozen nodes at least, per end
    if N < 2 * nb + 8:
        raise FlowError("grid too small for the frozen boundary bands")
    frozen = np.zeros(N, dtype=bool)
    frozen[:nb] = True
    frozen[-nb:] = True
    # the de Turck linearization carries a +2n/b^2 reaction near b -> 0
    # (tips and smooth caps); freeze every node where that rate beats the
    # grid-scale diffusion damping, otherwise those nodes blow up
    dx_loc = np.gradient(grid.x)
    margin = 3.0 * math.sqrt(2.0 * initial.link.n) * dx_loc
    frozen |= initial.b < margin
    first_live = int(np.argmin(frozen))
    last_live = N - 1 - int(np.argmin(frozen[::-1]))
    if frozen[first_live:last_live + 1].any():
        raise FlowError("frozen region is not two boundary bands; "
                        "b vanishes in the interior")
    if last_live - first_live < 8:
        raise FlowError("grid too small for the frozen boundary bands")
    live = slice(first_live, last_live + 1)  # the complement of frozen
    below = slice(first_live - 1, last_live)  # the live rows' neighbours
    above = slice(first_live + 1, last_live + 2)
    lo, mid, hi = grid._d3[:, live]

    dx_live = np.diff(grid.x)[first_live:last_live]
    steps = cfg.t_end / (cfg.cfl * float(np.min(dx_live)) ** 2)
    if steps > 5_000_000:
        raise FlowError(f"step-size collapse: {steps:.3g} steps required at "
                        f"flow.cfl = {cfg.cfl:g}, flow.t_end = {cfg.t_end:g}")
    n_steps = math.ceil(steps)
    dt = cfg.t_end / n_steps

    metric = initial
    # cone factor as the fitted limit of b/x at x -> 0, extrapolated
    # linearly from the first live nodes (the slaved band is excluded); the
    # nodes are fixed, so the least-squares intercept is one row applied to b
    fit_sl = slice(first_live, min(first_live + 8, last_live + 1))
    x_fit = grid.x[fit_sl]
    intercept_row = np.linalg.pinv(np.vander(x_fit, 2))[1] / x_fit

    def fitted_cone_factor(b):
        return float(intercept_row @ b[fit_sl])

    cf0 = fitted_cone_factor(initial.b)
    a0, b0 = initial.a, initial.b

    def slave_bands(a, b):
        # multiplicative slaving to the initial band profile: the excised
        # tip keeps the indicial shape (a ~ const, b ~ slope * x for conical
        # data) with the slope tracking the first evolved node; exact at
        # fixed points and under uniform rescaling
        for u, u0 in ((a, a0), (b, b0)):
            u[:first_live] = u0[:first_live] * (u[first_live] / u0[first_live])
            if initial.has_cap:
                u[last_live + 1:] = u0[last_live + 1:] * (u[last_live] / u0[last_live])

    def diagnostics(t, met):
        kappa = _KAPPA[cfg.normalization]
        ric = np.stack([r[live] for r in warped_ricci(met)])
        ev = None
        if cfg.entropy_kind == "lambda":
            ev = entropy.compute_lambda(met).value
        elif cfg.entropy_kind in ("mu_minus", "mu_plus"):
            variant = "minus" if cfg.entropy_kind == "mu_minus" else "plus"
            # tau = 1/(2 |kappa|) = 1/2, the scale at which a fixed point
            # Ric = kappa g of the normalized flow is a soliton
            ev = entropy.compute_mu(met, 0.5, variant=variant).value
        # a bare copy: the trajectory must not keep each sample's memo alive
        return FlowState(t=t, metric=replace(met),
                         sup_ric=float(np.max(np.abs(ric))),
                         sup_ric_normalized=float(np.max(np.abs(ric - kappa))),
                         cone_factor=fitted_cone_factor(met.b),
                         entropy_value=ev)

    trajectory = [diagnostics(0.0, metric)]
    next_sample = cfg.sample_period if cfg.sample_period > 0 else math.inf

    a, b = a0.copy(), b0.copy()
    for step in range(n_steps):
        da, db = flow_rhs(metric, cfg)
        coeff = 1.0 / metric.a**2
        ab_mat = _implicit_bands(grid, coeff, dt, frozen)
        for u, rate in ((a, da), (b, db)):
            d3u = lo * u[below] + mid * u[live] + hi * u[above]
            rhs = u.copy()
            rhs[live] += dt * (rate[live] - coeff[live] * d3u)
            u[:] = solve_banded(ab_mat, rhs)
        slave_bands(a, b)
        t = (step + 1) * dt
        if (a <= 0).any() or (b[live] <= 0).any():
            raise FlowError(f"positivity loss at t = {t:.6g}")
        metric = replace(metric, a=a, b=b)
        cf = fitted_cone_factor(b)
        if abs(cf - cf0) > cfg.cone_drift_bound * max(abs(cf0), 1e-300):
            raise FlowError(f"cone-condition drift beyond bound at t = {t:.6g}")
        if t + 1e-12 * cfg.t_end >= next_sample or step == n_steps - 1:
            trajectory.append(diagnostics(t, metric))
            while next_sample <= t + 1e-12 * cfg.t_end:
                next_sample += cfg.sample_period
    return trajectory


@dataclass
class MonotonicityReport:
    which: str
    min_successive_diff: float
    passed: bool
    constant: bool
    stationarity_sup: float | None  # sup |Ric - kappa g| at the final state
    stationarity_ok: bool | None


def monotonicity_report(trajectory: list[FlowState], config: FlowConfig,
                        tol_mono: float = 1e-7) -> MonotonicityReport:
    """Check the sampled entropy sequence for monotone increase.

    The entropy is the one the config sampled, which FlowConfig guarantees
    matches the normalization.  A constant sequence (total variation below
    1e-10) is cross-checked against the stationarity criterion: the flow is
    at a fixed point exactly when Ric = kappa g, so sup |Ric - kappa g| at
    the final state must be below 1e-6 for a constant entropy to be
    consistent.
    """
    vals = np.array([s.entropy_value for s in trajectory], dtype=float)
    if np.any(~np.isfinite(vals)):
        raise FlowError("trajectory has missing entropy samples")
    diffs = np.diff(vals)
    min_diff = float(np.min(diffs)) if len(diffs) else 0.0
    scale = max(1.0, float(np.max(np.abs(vals))))
    constant = bool(np.ptp(vals) <= 1e-10 * scale)
    passed = min_diff >= -tol_mono
    stat_sup = None
    stat_ok = None
    if constant:
        stat_sup = trajectory[-1].sup_ric_normalized
        stat_ok = stat_sup < 1e-6
    return MonotonicityReport(which=config.entropy_kind,
                              min_successive_diff=min_diff, passed=passed,
                              constant=constant, stationarity_sup=stat_sup,
                              stationarity_ok=stat_ok)
