"""Indicial analysis and the singular Sturm-Liouville ground-state solver.

The tip exponents of the radial problem over a link eigenvalue lam are

    nu(lam)  = sqrt(lam + ((n-1)/2)^2),
    mu(lam)  = -(n-1)/2 +- nu(lam),

and the slowest admissible tip rate of entropy minimizers on a perturbed
cone of order gamma is gamma_bar = min(gamma, mu_plus(lambda_1)).

The mode-lam_F reduction of the Schroedinger operator c*Lap + q*scal is
assembled with P1 finite elements against the measure a b^n vol_F dx, so
the natural boundary condition of the weak form realizes the Friedrichs
extension at the tip.  The mass matrix is the lumped (diagonal) volume form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .geometry import (ConelabError, RadialGrid, RadialMetric, RadialField,
                       volume_form, _as_values)
from . import geometry


class EigensolverError(ConelabError):
    pass


@dataclass(frozen=True)
class IndicialData:
    """Tip-exponent table per link eigenvalue."""

    n: int
    gamma: float
    eigenvalues: np.ndarray
    nu: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    gamma_bar: float | None
    # eigenvalues with nu in [0,1): maximal-domain window, extension not unique
    non_selfadjoint_modes: np.ndarray
    essentially_selfadjoint: bool


def indicial_exponents(link, gamma: float) -> IndicialData:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = link.n
    lam = np.array(link.eigenvalues(include_zero=True), dtype=float)
    nu = np.sqrt(lam + ((n - 1) / 2.0) ** 2)
    mu_plus = -(n - 1) / 2.0 + nu
    mu_minus = -(n - 1) / 2.0 - nu
    # mu_plus at lambda_1, the smallest nonzero link eigenvalue
    gamma_bar = min(gamma, mu_plus[lam > 0][0]) if np.any(lam > 0) else None
    return IndicialData(
        n=n, gamma=gamma, eigenvalues=lam, nu=nu,
        mu_plus=mu_plus, mu_minus=mu_minus, gamma_bar=gamma_bar,
        non_selfadjoint_modes=lam[nu < 1.0],
        essentially_selfadjoint=(n >= 3),
    )


@dataclass(frozen=True)
class RadialOperator:
    """Mode reduction of c*Lap + q*scal to the radial coordinate.

    Acting on the lam_F-mode coefficient u(x):
        (c / (a b^n)) * -d/dx((b^n / a) u') + (c lam_F / b^2 + q scal) u
    with the spectrum-positive Laplacian convention.
    """

    metric: RadialMetric
    q: float = 0.0
    mode: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("link mode eigenvalue must be >= 0")
        if self.q != 0.0 and self.metric.link.n < 3:
            raise ValueError(
                "q != 0 requires link dimension n >= 3 (unique self-adjoint "
                "extension regime); refusing the run"
            )


@dataclass
class AssembledProblem:
    """Symmetric tridiagonal pencil (K, M) with diagonal mass."""

    diag: np.ndarray
    off: np.ndarray  # superdiagonal, length N-1
    mass: np.ndarray
    dirichlet_outer: bool

    @property
    def N(self):
        return len(self.diag)

    def matvec(self, u):
        v = self.diag * u
        v[:-1] += self.off * u[1:]
        v[1:] += self.off * u[:-1]
        return v

    def banded(self, shift_mass: float = 0.0):
        ab = np.zeros((3, self.N))
        ab[0, 1:] = self.off
        ab[1] = self.diag - shift_mass * self.mass
        ab[2, :-1] = self.off
        return ab


def stiffness_tridiag(metric: RadialMetric, c: float) -> tuple[np.ndarray, np.ndarray]:
    """P1 stiffness of c * the Laplacian energy form (no potential)."""
    g = metric.grid
    dens = metric.b ** metric.link.n / metric.a  # b^n / a
    h = np.diff(g.x)
    k_cell = c * metric.link.vol_F * 0.5 * (dens[:-1] + dens[1:]) / h
    diag = np.zeros(g.N)
    diag[:-1] += k_cell
    diag[1:] += k_cell
    return diag, -k_cell


def assemble_operator(op: RadialOperator,
                      dirichlet_outer: bool = False) -> AssembledProblem:
    """Assemble the symmetric banded generalized eigenproblem (K, M)."""
    metric = op.metric
    diag, off = stiffness_tridiag(metric, op.c)
    w = volume_form(metric)
    pot = np.zeros(metric.grid.N)
    if op.mode != 0.0:
        # a machine-zero of b at a cap gets a floor; the huge resulting
        # diagonal correctly pins nonzero modes to vanish at the pole
        safe_b = np.maximum(metric.b, 1e-8 * metric.b.max())
        pot += op.c * op.mode / safe_b**2
    if op.q != 0.0:
        pot += op.q * geometry.warped_scal(metric).values
    diag = diag + pot * w
    if dirichlet_outer:
        diag = diag[:-1].copy()
        off = off[:-1].copy()
        w = w[:-1].copy()
    return AssembledProblem(diag=diag, off=off, mass=w,
                            dirichlet_outer=dirichlet_outer)


def rayleigh_quotient(prob: AssembledProblem, u) -> float:
    u = _as_values(u)
    return float(u @ prob.matvec(u)) / float(u @ (prob.mass * u))


def solve_ground_state(op: RadialOperator, dirichlet_outer: bool = False,
                       ) -> tuple[float, RadialField]:
    """Smallest eigenpair of (K, M) by shifted inverse iteration.

    Returns (sigma, u) with u M-normalized, sign-fixed positive and the
    eigenresidual ||(K - sigma M) u|| / ||M u|| below 1e-8.
    """
    prob = assemble_operator(op, dirichlet_outer=dirichlet_outer)
    return _inverse_iteration(prob)


def _inverse_iteration(prob: AssembledProblem):
    N = prob.N
    w = prob.mass
    # shift strictly below the spectrum: Gershgorin row bound of the pencil
    # (valid for any mode potential), capped by the constant's Rayleigh value
    ones = np.ones(N)
    r0 = rayleigh_quotient(prob, ones)
    absoff = np.zeros(N)
    absoff[:-1] += np.abs(prob.off)
    absoff[1:] += np.abs(prob.off)
    gersh = float(np.min((prob.diag - absoff) / w))
    lower = min(r0, gersh)
    shift = lower - 0.1 * (abs(lower) + 1.0)
    u = ones / np.sqrt(ones @ (w * ones))
    sigma = r0
    best_res = np.inf
    stale = 0
    for it in range(200):
        ab = prob.banded(shift_mass=shift)
        try:
            v = solve_banded((1, 1), ab, w * u)
        except np.linalg.LinAlgError:
            shift -= 1e-8 * (abs(shift) + 1.0)
            continue
        v /= np.sqrt(v @ (w * v))
        sigma_new = rayleigh_quotient(prob, v)
        res = np.linalg.norm(prob.matvec(v) - sigma_new * w * v)
        scale = np.linalg.norm(w * v)
        # the absolute residual bottoms out at roundoff of the stiffness
        # cancellation; accept a stagnated iterate once it is below the
        # floor estimate instead of spinning to the iteration cap
        floor = 64.0 * np.finfo(float).eps * np.linalg.norm(prob.diag * v)
        if res < best_res * 0.9:
            best_res = res
            stale = 0
        else:
            stale += 1
        u = v
        sigma = sigma_new
        if res <= 1e-10 * max(scale, scale * abs(sigma)):
            break
        if stale >= 2 and it >= 3 and res <= max(floor,
                                                 1e-8 * scale * (1 + abs(sigma))):
            break
        # Rayleigh-shift acceleration once the iterate has settled; the
        # first few sweeps keep the safe shift so an interior eigenvalue
        # cannot capture the iteration
        if it >= 3:
            shift = sigma - 1e-6 * (abs(sigma) + 1.0)
    else:
        raise EigensolverError("inverse iteration did not converge")
    if np.sum(u * w) < 0:
        u = -u
    if np.any(u <= 0) and np.any(u >= 0) and (u.min() < -1e-8 * u.max()):
        raise EigensolverError("ground state is sign-indefinite (discretization pathology)")
    u = np.abs(u) if u.min() < 0 else u
    if prob.dirichlet_outer:
        u = np.concatenate([u, [0.0]])
    return float(sigma), RadialField(u)


@dataclass(frozen=True)
class LambdaProblem:
    """The pencil of 4 Lap + scal on one metric and its ground state."""

    prob: AssembledProblem
    value: float
    omega: RadialField


def lambda_problem(metric: RadialMetric) -> LambdaProblem:
    """The lambda problem of the metric, assembled and solved once."""
    return metric.derived(_lambda_problem)


def _lambda_problem(metric: RadialMetric) -> LambdaProblem:
    prob = assemble_operator(RadialOperator(metric, q=1.0, c=4.0))
    value, omega = _inverse_iteration(prob)
    for shared in (prob.diag, prob.off, prob.mass, omega.values):
        shared.setflags(write=False)
    return LambdaProblem(prob, value, omega)


def eigen_residual(op: RadialOperator, sigma: float, u,
                   dirichlet_outer: bool = False) -> float:
    prob = assemble_operator(op, dirichlet_outer=dirichlet_outer)
    vals = _as_values(u)
    if dirichlet_outer:
        vals = vals[:-1]
    r = prob.matvec(vals) - sigma * prob.mass * vals
    return float(np.linalg.norm(r) / np.linalg.norm(prob.mass * vals))


FIT_EXPONENT_SENTINEL = np.inf


def fit_power_model(x: np.ndarray, u: np.ndarray,
                    bracket: tuple[float, float]) -> tuple[float, float, float]:
    """Fit u ~ c0 + c1 x^e by a bounded search over e in bracket on the rms
    residual of the linear least-squares solve; returns (c0, e, rms)."""
    # imported on first use: scipy.optimize costs about 20 MB of memory
    from scipy.optimize import minimize_scalar

    def solve(e):
        A = np.column_stack([np.ones_like(x), x**e])
        coef = np.linalg.lstsq(A, u, rcond=None)[0]
        return float(coef[0]), float(np.sqrt(np.mean((u - A @ coef) ** 2)))

    res = minimize_scalar(lambda e: solve(e)[1], bounds=bracket,
                          method="bounded", options={"xatol": 1e-8})
    e = float(res.x)
    c0, rms = solve(e)
    return c0, e, rms


def fit_asymptotics(u, grid: RadialGrid,
                    window: tuple[float, float] | None = None,
                    ) -> tuple[float, float, float]:
    """Least-squares fit u ~ c0 + c1 x^e, e in [1e-3, 4], over the window.

    Returns (c0, e, rms residual) of `fit_power_model`; a field that is
    constant to machine precision returns the +inf exponent sentinel.
    """
    vals = _as_values(u)
    x = grid.x
    if window is None:
        # on strongly graded grids 4*x_1 can sit far below the level where
        # the field's variation clears solver roundoff; keep the window
        # floor at a fixed fraction of the domain
        window = (max(4.0 * x[0], 1e-3 * grid.L), grid.L / 10.0)
    lo, hi = window
    sel = (x >= lo) & (x <= hi)
    if sel.sum() < 8:
        raise ValueError("fit window must contain at least 8 grid points")
    xs, ys = x[sel], vals[sel]
    scale = np.max(np.abs(ys))
    if scale == 0 or np.ptp(ys) <= 1e-13 * scale:
        return float(np.mean(ys)), FIT_EXPONENT_SENTINEL, 0.0
    return fit_power_model(xs, ys, (1e-3, 4.0))
