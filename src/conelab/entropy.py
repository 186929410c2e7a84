"""Geometric entropies of radial conical metrics.

Three functionals of a metric g with weight written as omega = e^{-f/2}:

    lambda(g)      = inf { int (scal omega^2 + 4 |grad omega|^2) dV :
                           int omega^2 dV = 1 }
    W_-(g,omega,t) = (4 pi t)^{-m/2} int [ t (scal omega^2 + 4|grad omega|^2)
                       - 2 omega^2 log omega - m omega^2 ] dV        (shrinker)
    W_+(g,omega,t) = same with + on the log and m terms              (expander)

with mu_-(g,t) / mu_+(g,t) the constrained infima over omega and
nu_-(g) = inf_t mu_-, nu_+(g) = sup_t mu_+, requiring lambda > 0 resp.
lambda < 0 for the optimum in t to exist.  The two W variants are handled
by one code path with a sign e (e = +1 shrinker, e = -1 expander):

    W_e = s_m [ t <omega, A omega> - e sum w (2 omega^2 log omega
                + m omega^2) ],       s_m = (4 pi t)^{-m/2},
    EL:  -t A omega + w (2 e omega log omega + (e m + mu) omega) = 0,
    constraint:  s_m sum w omega^2 = 1,

where A = K_4 + diag(scal w) is the assembled quadratic form of the
lambda problem.  At any solution of the EL system the multiplier mu equals
W_e(omega) identically (pair the EL equation with omega), so the reported
value is both the multiplier and the entropy.
All quadratic forms reuse the finite element matrices of the eigensolver, so
lambda(g) is exactly the discrete ground-state Rayleigh quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, spectral
from .geometry import ConelabError, RadialMetric
from .spectral import LambdaProblem, solve_banded


class NewtonError(ConelabError):
    """No Newton start of the mu problem converged."""


def _s_m(m: int, tau: float) -> float:
    try:
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
    except OverflowError:
        sm = math.inf
    if not (math.isfinite(sm) and sm > 0.0):
        raise ValueError(f"tau = {tau!r} out of range: (4 pi tau)^(-m/2) at "
                         f"m = {m} is not a finite positive float")
    return sm


def compute_lambda(metric: RadialMetric) -> LambdaProblem:
    """Ground state of 4*Lap + scal with unit L2 constraint, and its
    residuals: the metric's memoized lambda problem."""
    return metric.derived(spectral._lambda_problem)


# -- the W entropies -------------------------------------------------------------

_SIGN = {"minus": +1.0, "plus": -1.0}


def _sign(variant: str) -> float:
    """The sign e of the W variant (+1 shrinker, -1 expander)."""
    if variant not in _SIGN:
        raise ValueError(f"unknown variant {variant!r}; use 'minus' or 'plus'")
    return _SIGN[variant]


def evaluate_w(metric: RadialMetric, omega, tau: float, variant: str = "minus",
               ) -> float:
    """W entropy of a trial weight; the constraint is not enforced here."""
    e = _sign(variant)
    if tau <= 0:
        raise ValueError("tau must be positive")
    prob = compute_lambda(metric).prob
    w = prob.mass
    u = np.asarray(omega, dtype=float)
    if np.any(u <= 0):
        raise ValueError("omega must be strictly positive")
    sm = _s_m(metric.m, tau)
    quad = float(u @ prob.matvec(u))
    log_part = float(np.sum(w * (2.0 * u * u * np.log(u) + metric.m * u * u)))
    return sm * (tau * quad - e * log_part)


@dataclass
class MuReport:
    value: float
    tau: float
    variant: str
    omega: np.ndarray
    el_residual: float
    constraint_residual: float
    normalization_identity: float  # s_m int f e^{-f} dV; m/2 + e*value at optimal tau
    basin_values: tuple[float, ...] = ()
    nonconvex: bool = False


def _el_residual(prob, m, tau, e, u, mu):
    """EL residual g1, constraint residual g2, and |g1| relative to its terms."""
    w = prob.mass
    lin = tau * prob.matvec(u)
    nonlin = w * (2.0 * e * u * np.log(u) + (e * m + mu) * u)
    g1 = -lin + nonlin
    g2 = _s_m(m, tau) * float(u @ (w * u)) - 1.0
    scale = np.linalg.norm(lin) + np.linalg.norm(nonlin)
    return g1, g2, float(np.linalg.norm(g1) / scale)


_NEWTON_TOL = 1e-10
_NEWTON_ACCEPT = 1e-9  # a stalled iterate below this counts as converged


def _newton_el(prob, m, tau, e, u0, mu0):
    """Damped Newton on the EL system with the normalization constraint.

    Unknowns (omega, mu); the Jacobian is tridiagonal plus a rank-one border
    from the constraint row, solved by block elimination with one banded
    solve of two right-hand sides.  Steps are shortened to keep omega
    strictly positive.  The residual of the discrete system bottoms out at a
    roundoff floor set by the curvature quadrature, so a stalled iterate
    below _NEWTON_ACCEPT still counts as converged.  Returns (omega, mu, g2,
    rel) of the last iterate, g2 and rel as _el_residual's, or None.
    """
    w = prob.mass
    sm = _s_m(m, tau)
    u = u0.copy()
    mu = mu0
    g1, g2, rel = _el_residual(prob, m, tau, e, u, mu)
    for _ in range(80):
        res = math.hypot(rel, g2)
        if res < _NEWTON_TOL:
            break
        # tridiagonal block d g1 / d omega
        ab = -tau * prob.banded()
        ab[1] += w * (2.0 * e * np.log(u) + 2.0 * e + e * m + mu)
        bvec = w * u                 # d g1 / d mu
        cvec = 2.0 * sm * w * u      # d g2 / d omega
        try:
            y1, y2 = solve_banded(ab, -np.array([g1, bvec]).T).T
        except np.linalg.LinAlgError:
            break
        denom = float(cvec @ y2)
        if denom == 0.0 or not np.isfinite(denom):
            break
        dmu = (-g2 - float(cvec @ y1)) / denom
        du = y1 + dmu * y2
        step = 1.0
        # positivity guard, then plain residual backtracking
        bad = du < 0
        if bad.any():
            step = min(1.0, 0.9 * float(np.min(-u[bad] / du[bad])))
        for _ in range(40):
            u_try = u + step * du
            mu_try = mu + step * dmu
            g1_try, g2_try, rel_try = _el_residual(prob, m, tau, e, u_try, mu_try)
            rt = math.hypot(rel_try, g2_try)
            if np.isfinite(rt) and rt < res * (1.0 - 1e-4 * step):
                break
            step *= 0.5
        else:
            break
        u, mu, g1, g2, rel = u_try, mu_try, g1_try, g2_try, rel_try
    return (u, mu, g2, rel) if res < _NEWTON_ACCEPT else None


def compute_mu(metric: RadialMetric, tau: float, variant: str = "minus",
               starts=("constant", "ground"), omega0=None) -> MuReport:
    """Constrained critical value mu of the W entropy at fixed tau.

    Newton iteration from several starting weights; the lowest converged
    entropy is reported and disagreement between basins raises the
    nonconvex flag.  The "ground" start is the lambda minimizer.
    """
    e = _sign(variant)
    if tau <= 0:
        raise ValueError("tau must be positive")
    m = metric.m
    lp = compute_lambda(metric)
    w = lp.prob.mass
    sm = _s_m(m, tau)

    def normalized(u):
        return u / math.sqrt(sm * float(u @ (w * u)))

    inits = [] if omega0 is None else [normalized(omega0)]
    for s in starts:
        if s == "constant":
            inits.append(np.full(len(w), 1.0 / math.sqrt(sm * float(np.sum(w)))))
        elif s == "ground":
            og = lp.omega
            inits.append(normalized(np.maximum(og, 1e-12 * og.max())))
        else:
            raise ValueError(f"unknown start {s!r}")

    sols = []
    for u0 in inits:
        mu0 = evaluate_w(metric, u0, tau, variant)
        sol = _newton_el(lp.prob, m, tau, e, u0, mu0)
        if sol is not None:
            sols.append(sol)
    if not sols:
        raise NewtonError(f"mu_{variant} Newton iteration failed at tau={tau}")
    basin = tuple(sorted(mu for _, mu, _, _ in sols))
    nonconvex = (len(basin) > 1 and basin[-1] - basin[0] >
                 1e-8 * max(1.0, abs(basin[0])))
    u, mu, g2, el_res = min(sols, key=lambda s: s[1])

    # f = -2 log omega; s_m int f e^{-f} dV equals m/2 + e * mu exactly when
    # tau is also stationary (the identity encodes dW/dtau = 0), so the gap
    # doubles as a distance-from-optimal-tau diagnostic
    f = -2.0 * np.log(u)
    ident = sm * float(np.sum(w * f * u * u))
    return MuReport(value=float(mu), tau=tau, variant=variant,
                    omega=u, el_residual=el_res, constraint_residual=abs(g2),
                    normalization_identity=ident,
                    basin_values=basin, nonconvex=nonconvex)


@dataclass
class NuReport:
    value: float
    tau_star: float
    variant: str
    lambda_value: float
    mu_report: MuReport
    tau_profile: np.ndarray = field(repr=False)
    mu_profile: np.ndarray = field(repr=False)
    tau_edge: str | None = None  # "tau_min" or "tau_max" if tau* lies on it


# points of the coarse log-tau scan, and the bounded minimizer's stopping
# width in log tau
_N_SCAN = 25
_LOG_TAU_TOL = 1e-9


def compute_nu(metric: RadialMetric, variant: str = "minus",
               tau_range=(1e-3, 1e3)) -> NuReport:
    """Optimal-in-tau entropy: nu_- = inf_tau mu_-, nu_+ = sup_tau mu_+.

    Requires lambda(g) > 0 for the shrinker variant and lambda(g) < 0 for
    the expander variant; otherwise the optimum over tau escapes to the
    boundary and the quantity is not defined.  Coarse scan on a log-tau
    grid, then refinement on the scan's bracket by `spectral.bounded_minimize`
    (Brent's bounded method, the one the tip fits use), warm-starting each
    solve from the previous solve's optimizer.  tau_edge names the bound of
    tau_range that tau* lies on, within the minimizer's final bracket.
    """
    sign = _sign(variant)  # minimize sign * mu
    lam = compute_lambda(metric).value
    if variant == "minus" and lam <= 0:
        raise ValueError("nu_minus requires lambda(g) > 0")
    if variant == "plus" and lam >= 0:
        raise ValueError("nu_plus requires lambda(g) < 0")

    cache: dict[float, MuReport] = {}  # in solve order

    def mu_at(log_tau: float) -> float:
        if log_tau not in cache:
            warm = next(reversed(cache.values()), None)
            cache[log_tau] = compute_mu(
                metric, math.exp(log_tau), variant=variant,
                omega0=None if warm is None else warm.omega)
        return sign * cache[log_tau].value

    lts = np.linspace(math.log(tau_range[0]), math.log(tau_range[1]), _N_SCAN)
    k = int(np.argmin([mu_at(lt) for lt in lts]))
    lo, hi = lts[max(k - 1, 0)], lts[min(k + 1, _N_SCAN - 1)]

    lt = spectral.bounded_minimize(mu_at, lo, hi, _LOG_TAU_TOL)
    best = cache[lt]
    # a tau* within the minimizer's final bracket of a bound is the bound,
    # not an interior minimum
    width = 4.0 * spectral._brent_tol1(lt, _LOG_TAU_TOL)
    edge = next((name for name, bound in zip(("tau_min", "tau_max"), tau_range)
                 if abs(lt - math.log(bound)) <= width), None)
    scanned = sorted(cache)
    return NuReport(value=best.value, tau_star=best.tau, variant=variant,
                    lambda_value=lam, mu_report=best,
                    tau_profile=np.exp(scanned),
                    mu_profile=np.array([cache[s].value for s in scanned]),
                    tau_edge=edge)


# -- first variation of lambda ---------------------------------------------------

def first_variation_lambda(metric: RadialMetric, report: LambdaProblem,
                           h_rad, h_link) -> float:
    """Directional derivative of lambda along h = h_rad dx^2 + h_link b^2 g_F.

    lambda'(h) = - int < h, Ric + Hess f > e^{-f} dV with f = -2 log omega
    at the normalized minimizer; the pairing in the orthonormal frame is
    (h_rad / a^2)(Ric + Hess f)_rad + n h_link (Ric + Hess f)_link.
    """
    u = report.omega
    if np.any(u <= 0):
        raise ValueError("minimizer must be strictly positive")
    f = -2.0 * np.log(u)
    ric_rad, ric_link = geometry.warped_ricci(metric)
    hess_rad, hess_link = geometry.radial_hessian(f, metric)
    w = report.prob.mass
    n = metric.link.n
    integrand = (h_rad / metric.a**2 * (ric_rad + hess_rad)
                 + n * h_link * (ric_link + hess_link))
    return float(-np.sum(w * integrand * u * u))
