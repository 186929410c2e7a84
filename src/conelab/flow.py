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
D3 u / a^2) explicitly.  The degenerate tip region, and a smooth outer cap,
are held on a band of nodes slaved to the nearest evolved node; the slaving
relation is a set of rows of the implicit system, so the band adds no time
error of its own.  The outer truncation stays at its initial values.  The
IMEX step is first order in dt; each sample interval is integrated by step
doubling with local Richardson extrapolation, second order in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy, geometry, link as linkmod, spectral
from .geometry import ConelabError, RadialMetric, warped_ricci
from .spectral import solve_banded


class FlowError(ConelabError):
    pass


_KAPPA = {"steady": 0.0, "shrink": 1.0, "expand": -1.0}
# step-doubling tolerance relative to a sample interval's change; 0.1 let
# a coarse trial trip the drift guard on the shrinking round S^4
TIME_TOL = 0.03
_MAX_STEPS = 2**10  # the most steps k of one interval's coarse run
# the entropy that is monotone under each normalization
_MATCHING_ENTROPY = {"steady": "lambda", "shrink": "mu_minus",
                     "expand": "mu_plus"}


@dataclass
class FlowConfig:
    t_end: float
    normalization: str = "steady"
    reference: RadialMetric | None = None  # None: the initial metric
    samples: int = 1                       # sample at t = t_end * j / samples
    entropy: bool = True                   # sample entropy_name at each t
    cone_drift_bound: float = 1e-3

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.normalization not in _KAPPA:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def entropy_name(self) -> str:
        """The entropy the normalization makes monotone, the one sampled."""
        return _MATCHING_ENTROPY[self.normalization]


@dataclass
class FlowState:
    t: float
    metric: RadialMetric
    sup_ric: float
    sup_ric_normalized: float  # sup |Ric - kappa g| in the orthonormal frame
    cone_factor: float
    entropy_value: float | None = None
    steps: int = 0             # IMEX steps since t = 0, rejected trials included
    time_error: float = 0.0    # error estimate of the interval ending here


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


def flow_rhs(metric: RadialMetric, reference: RadialMetric,
             kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Component rates (da/dt, db/dt) of the de Turck flow normalized by kappa."""
    w = deturck_vector_field(metric, reference)
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
    Each slaved node is a row u[i] - (u0[i] / u0[j]) u[j] = 0 of the
    implicit system, j its neighbour towards the live rows, so one solve
    returns live and slaved values together and no live row couples to a
    stale band value; the two fields' matrices differ in those rows only.

    The trajectory is sampled at t = t_end * (j / samples).  Each sample
    interval takes k and 2k steps from its start and keeps 2 u_2k - u_k when

        max |u_2k - u_k| <= TIME_TOL max |u_2k - u_start| + 2k 64 eps max |u_start|,

    the last term the roundoff of the 2k steps; otherwise k doubles, up to
    _MAX_STEPS, and the 2k-run becomes the next coarse run.  A trial that
    loses positivity, or whose extrapolation does, is rejected the same
    way.  The slaving is linear, so the extrapolated fields keep it.  k
    halves on the next interval when the estimate is within a quarter of
    the tolerance.  The cone-drift guard checks every accepted state.
    """
    ref = config.reference if config.reference is not None else initial
    kappa = _KAPPA[config.normalization]
    grid = initial.grid
    N = grid.N
    if linkmod.check_tangential_stability(initial.link) == linkmod.UNSTABLE:
        raise FlowError("link is tangentially unstable; the stability "
                        "theory does not cover this flow")
    if ref is not initial:
        # the initial metric must be an admissible perturbation of the
        # reference: same cone factor, deviation decaying at a positive rate
        # (one constant on the tip-fit window has exponent +inf, and decays
        # only if that constant is 0)
        ok = ref.b > 0
        v = np.zeros(N)
        v[ok] = initial.b[ok] / ref.b[ok] - 1.0
        vmax = float(np.max(np.abs(v)))
        if vmax > 1e-10:
            c0, e, _ = spectral.fit_asymptotics(v, grid)
            if e < 0.1 or abs(c0) > 0.1 * vmax or (np.isinf(e) and c0 != 0):
                raise FlowError(
                    "initial metric is not an admissible perturbation of "
                    "the reference (tip deviation does not decay)")
    frozen = np.zeros(N, dtype=bool)
    frozen[:4] = frozen[-4:] = True  # at least four frozen nodes per end
    # the de Turck linearization carries a +2n/b^2 reaction near b -> 0
    # (tips and smooth caps); freeze every node where that rate beats the
    # grid-scale diffusion damping, otherwise those nodes blow up
    dx_loc = np.gradient(grid.x)
    margin = 3.0 * math.sqrt(2.0 * initial.link.n) * dx_loc
    frozen |= initial.b < margin
    live_rows = np.flatnonzero(~frozen)
    if live_rows.size < 9:
        raise FlowError("grid too small for the frozen boundary bands")
    first_live, last_live = int(live_rows[0]), int(live_rows[-1])
    if last_live - first_live + 1 != live_rows.size:
        raise FlowError("frozen region is not two boundary bands; "
                        "b vanishes in the interior")
    live = slice(first_live, last_live + 1)  # the complement of frozen
    below = slice(first_live - 1, last_live)  # the live rows' neighbours
    above = slice(first_live + 1, last_live + 2)
    lo, mid, hi = grid._d3[:, live]

    # cone factor: the tip limit of b/s, s = int_0^x a the arclength (the
    # tip cell [0, x_0] taken as a_0 x_0), so the cone angle b'/a rather
    # than b', which moves when the metric is rescaled; extrapolated
    # linearly in x from the first live nodes (the slaved band excluded)
    # by one least-squares row on the fixed nodes
    fit_end = first_live + 8  # last_live >= first_live + 8, checked above
    fit_sl = slice(first_live, fit_end)
    intercept_row = np.linalg.pinv(np.vander(grid.x[fit_sl], 2))[1]
    half_dx = 0.5 * np.diff(grid.x[:fit_end])

    def fitted_cone_factor(a, b):
        s = a[0] * grid.x[0] + np.concatenate(
            ([0.0], np.cumsum(half_dx * (a[:fit_end - 1] + a[1:fit_end]))))
        return float(intercept_row @ (b[fit_sl] / s[fit_sl]))

    cf0 = fitted_cone_factor(initial.a, initial.b)

    # slaving rows: a tip band node keeps its initial ratio to the node
    # above it, u[i] = (u0[i] / u0[i+1]) u[i+1], a cap node its ratio to the
    # node below it; the excised tip keeps its indicial shape (a ~ const,
    # b ~ slope * x for conical data), exact at fixed points and under
    # uniform rescaling.  A truncation band keeps its identity rows
    tip, cap = slice(first_live), slice(last_live + 1, N)
    band_rows = [(-u0[tip] / u0[1:first_live + 1],
                  -u0[cap] / u0[last_live:-1] if initial.has_cap else 0.0)
                 for u0 in (initial.a, initial.b)]
    slaved = frozen if initial.has_cap else np.arange(N) < first_live

    def positive(a, b):
        return bool((a > 0).all() and (b[live] > 0).all())

    steps = 0

    def advance(met, k, dt):
        """k IMEX steps of size dt from met; None on a positivity loss."""
        nonlocal steps
        for _ in range(k):
            da, db = flow_rhs(met, ref, kappa)
            coeff = 1.0 / met.a**2
            ab_mat = _implicit_bands(grid, coeff, dt, frozen)
            new = []
            # the tip band's last row, scaled by the live row's coupling c
            # to it, is eliminated with multiplier 1; as a unit row, |c| > 1
            # forces a row interchange that moves the live values by roundoff
            c = ab_mat[2, first_live - 1]
            ab_mat[1, first_live - 1] = c
            for u, rate, (tip_row, cap_row) in zip((met.a, met.b), (da, db),
                                                   band_rows):
                ab_mat[0, 1:first_live + 1] = tip_row
                ab_mat[0, first_live] *= c
                ab_mat[2, last_live:-1] = cap_row
                d3u = lo * u[below] + mid * u[live] + hi * u[above]
                rhs = np.where(slaved, 0.0, u)
                rhs[live] += dt * (rate[live] - coeff[live] * d3u)
                new.append(solve_banded(ab_mat, rhs))
            steps += 1
            a, b = new
            if not positive(a, b):
                return None
            met = RadialMetric(met.link, grid, a, b)
        return met

    def diagnostics(t, met, time_error):
        cf = fitted_cone_factor(met.a, met.b)
        if abs(cf - cf0) > config.cone_drift_bound * max(abs(cf0), 1e-300):
            raise FlowError(f"cone-condition drift beyond bound at t = {t:.6g}")
        ric = np.stack([r[live] for r in warped_ricci(met)])
        ev = None
        if config.entropy:
            # lambda, or mu at tau = 1/(2 |kappa|) = 1/2, the scale at
            # which a fixed point Ric = kappa g of the flow is a soliton
            name = config.entropy_name
            ev = (entropy.compute_lambda(met) if name == "lambda" else
                  entropy.compute_mu(met, 0.5,
                                     variant=name.removeprefix("mu_"))).value
        # a fresh copy: the trajectory must not keep each sample's memo alive
        return FlowState(t=t, metric=RadialMetric(met.link, grid, met.a, met.b),
                         sup_ric=float(np.max(np.abs(ric))),
                         sup_ric_normalized=float(np.max(np.abs(ric - kappa))),
                         cone_factor=cf,
                         entropy_value=ev, steps=steps, time_error=time_error)

    def sup_diff(p, q):
        return max(float(np.max(np.abs(p.a - q.a))),
                   float(np.max(np.abs(p.b - q.b))))

    metric = initial
    trajectory = [diagnostics(0.0, metric, 0.0)]
    k = 1
    t = 0.0
    for j in range(1, config.samples + 1):
        t_start, t = t, config.t_end * (j / config.samples)
        h = t - t_start
        floor = 64 * np.finfo(float).eps * max(metric.a.max(), metric.b.max())
        coarse = advance(metric, k, h / k)
        while True:
            fine = None if coarse is None else advance(metric, 2 * k, h / (2 * k))
            if fine is not None:
                err, change = sup_diff(fine, coarse), sup_diff(fine, metric)
                if err <= TIME_TOL * change + 2 * k * floor:
                    a = 2.0 * fine.a - coarse.a
                    b = 2.0 * fine.b - coarse.b
                    if positive(a, b):
                        break
            k *= 2
            if k > _MAX_STEPS:
                raise FlowError(
                    f"step-size collapse: {2 * _MAX_STEPS} steps do not "
                    f"resolve the sample interval from t = {t_start:.6g} at "
                    f"flow.t_end = {config.t_end:g}, flow.samples = {config.samples}")
            # the 2k-run is the next trial's coarse run; a failed one stays
            # failed, and a failed coarse run is retried at the new k
            coarse = fine if coarse is not None else advance(metric, k, h / k)
        if err <= 0.25 * TIME_TOL * change and k > 1:
            k //= 2
        metric = RadialMetric(metric.link, grid, a, b)
        trajectory.append(diagnostics(t, metric, err))
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

    The entropy is config.entropy_name, the one the normalization makes
    monotone; a trajectory run with config.entropy off is refused.  A
    constant sequence (total variation below 1e-10) is cross-checked
    against the stationarity criterion: the flow is at a fixed point
    exactly when Ric = kappa g, so sup |Ric - kappa g| at the final state
    must be below 1e-6 for a constant entropy to be consistent.
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
    return MonotonicityReport(which=config.entropy_name,
                              min_successive_diff=min_diff, passed=passed,
                              constant=constant, stationarity_sup=stat_sup,
                              stationarity_ok=stat_ok)
