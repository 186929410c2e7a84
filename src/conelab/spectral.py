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

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import ConelabError, RadialGrid, RadialMetric, volume_form
from . import geometry


class EigensolverError(ConelabError):
    pass


class ScipyLayoutError(ConelabError):
    pass


@functools.cache
def _scipy_compiled(module: str, name: str):
    """The compiled routine `name` of scipy's extension module `module`,
    such as ("linalg._flapack", "dgtsv"), loaded from its file so that the
    subpackage's __init__ (about 0.2 s and 25 MB for scipy.linalg or
    scipy.special) never runs.  It is the very object that the subpackage
    exports.  scipy's directory comes from its import spec, so scipy's own
    __init__ does not run either.  ScipyLayoutError if scipy, the file or
    the name is missing."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ScipyLayoutError(f"scipy is not installed; {name} comes from "
                               f"scipy.{module}")
    base = os.path.join(scipy_spec.submodule_search_locations[0],
                        *module.split("."))
    paths = [base + s for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is not None:
        spec = importlib.util.spec_from_file_location(f"scipy.{module}", path)
        ext = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ext)
        if hasattr(ext, name):
            return getattr(ext, name)
    import scipy  # for the version in the message only
    raise ScipyLayoutError(f"scipy {scipy.__version__} has no compiled "
                           f"{name} in {path or paths[0]}")


def solve_banded(ab, b):
    """Solve the tridiagonal system in (3, N) banded storage ab by LAPACK's
    dgtsv, bit for bit as scipy.linalg.solve_banded((1, 1), ab, b).
    ValueError on a non-finite entry and np.linalg.LinAlgError on a singular
    matrix, as scipy raises; ab and b stay untouched.  dgtsv is loaded from
    scipy.linalg._flapack on the first solve, without scipy.linalg."""
    dgtsv = _scipy_compiled("linalg._flapack", "dgtsv")
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


@dataclass(frozen=True)
class IndicialData:
    """Tip-exponent table per link eigenvalue."""

    eigenvalues: np.ndarray
    nu: np.ndarray
    mu_plus: np.ndarray
    gamma_bar: float | None
    essentially_selfadjoint: bool


def nu_from_mode(n: int, mode):
    """Indicial order nu(lam) = sqrt(lam + ((n-1)/2)^2) of link modes lam."""
    return np.sqrt(mode + ((n - 1) / 2.0) ** 2)


def indicial_exponents(link, gamma: float) -> IndicialData:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = link.n
    lam = np.array(link.eigenvalues(include_zero=True), dtype=float)
    nu = nu_from_mode(n, lam)
    mu_plus = -(n - 1) / 2.0 + nu
    # mu_plus at lambda_1, the smallest nonzero link eigenvalue
    gamma_bar = min(gamma, mu_plus[lam > 0][0]) if np.any(lam > 0) else None
    return IndicialData(
        eigenvalues=lam, nu=nu, mu_plus=mu_plus, gamma_bar=gamma_bar,
        essentially_selfadjoint=(n >= 3),
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


def assemble_operator(metric: RadialMetric, q: float = 0.0, mode: float = 0.0,
                      c: float = 1.0, dirichlet_outer: bool = False,
                      ) -> AssembledProblem:
    """Assemble the symmetric banded generalized eigenproblem (K, M) of the
    mode reduction of c*Lap + q*scal to the radial coordinate.

    Acting on the lam_F-mode coefficient u(x), with lam_F = mode:
        (c / (a b^n)) * -d/dx((b^n / a) u') + (c lam_F / b^2 + q scal) u
    with the spectrum-positive Laplacian convention.
    """
    if mode < 0:
        raise ValueError("link mode eigenvalue must be >= 0")
    if q != 0.0 and metric.link.n < 3:
        raise ValueError(
            "q != 0 requires link dimension n >= 3 (unique self-adjoint "
            "extension regime); refusing the run"
        )
    # P1 stiffness of c * the Laplacian energy form, then the potential
    dens = metric.b ** metric.link.n / metric.a  # b^n / a
    k_cell = (c * metric.link.vol_F * 0.5 * (dens[:-1] + dens[1:])
              / np.diff(metric.grid.x))
    diag = np.zeros(metric.grid.N)
    diag[:-1] += k_cell
    diag[1:] += k_cell
    off = -k_cell
    w = volume_form(metric)
    pot = np.zeros(metric.grid.N)
    if mode != 0.0:
        # b = 0 only at the pole of a cap, whose lumped mass is 0 too
        pot += c * mode / np.where(metric.b > 0, metric.b, 1.0)**2
    if q != 0.0:
        pot += q * geometry.warped_scal(metric)
    diag = diag + pot * w
    if dirichlet_outer:
        diag = diag[:-1].copy()
        off = off[:-1].copy()
        w = w[:-1].copy()
    return AssembledProblem(diag=diag, off=off, mass=w,
                            dirichlet_outer=dirichlet_outer)


def rayleigh_quotient(prob: AssembledProblem, u) -> float:
    u = np.asarray(u, dtype=float)
    return float(u @ prob.matvec(u)) / float(u @ (prob.mass * u))


def solve_ground_state(prob: AssembledProblem) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of (K, M) by shifted inverse iteration.

    Returns (sigma, u) with u M-normalized, sign-fixed positive and the
    eigenresidual ||(K - sigma M) u|| / ||M u|| below 1e-8; with an outer
    Dirichlet row the removed last node is padded back as 0.
    """
    N = prob.N
    w = prob.mass
    # shift strictly below the spectrum: Gershgorin row bound of the pencil
    # (valid for any mode potential) over the rows with mass, capped by the
    # constant's Rayleigh value
    ones = np.ones(N)
    r0 = rayleigh_quotient(prob, ones)
    absoff = np.zeros(N)
    absoff[:-1] += np.abs(prob.off)
    absoff[1:] += np.abs(prob.off)
    rows = w > 0
    gersh = float(np.min((prob.diag[rows] - absoff[rows]) / w[rows]))
    lower = min(r0, gersh)
    shift = lower - 0.1 * (abs(lower) + 1.0)
    u = ones / np.sqrt(ones @ (w * ones))
    best_res = np.inf
    stale = 0
    for it in range(200):
        ab = prob.banded(shift_mass=shift)
        try:
            v = solve_banded(ab, w * u)
        except np.linalg.LinAlgError:
            shift -= 1e-8 * (abs(shift) + 1.0)
            continue
        v /= np.sqrt(v @ (w * v))
        kv = prob.matvec(v)
        sigma_new = float(v @ kv) / float(v @ (w * v))
        res = np.linalg.norm(kv - sigma_new * w * v)
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
    return float(sigma), u


@dataclass(frozen=True)
class LambdaProblem:
    """The pencil of 4 Lap + scal on one metric, its ground state omega
    with unit L2 norm, and that state's EL and constraint residuals."""

    prob: AssembledProblem
    value: float
    omega: np.ndarray
    el_residual: float
    constraint_residual: float


def _lambda_problem(metric: RadialMetric) -> LambdaProblem:
    n = metric.link.n
    if n >= 3:
        # tip cone b = c x: scal ~ (scal_F - n(n-1) c^2) / (c x)^2, and the
        # sharp Hardy bound 4 int u'^2 x^n >= (n-1)^2 int u^2 x^(n-2) leaves
        # the functional unbounded below once c^2 > scal_F / (n-1)
        c = float(metric.jet[1][0] / metric.a[0])
        bound = metric.link.scal_F / (n - 1)
        if c * c > bound:
            raise ConelabError(
                f"tip cone factor c = {c:.6g} exceeds the Hardy bound "
                f"c^2 <= scal_F/(n-1) = {bound:.6g} at link dimension "
                f"n = {n}: lambda is -infinity")
    prob = assemble_operator(metric, q=1.0, c=4.0)
    value, omega = solve_ground_state(prob)
    for shared in (prob.diag, prob.off, prob.mass, omega):
        shared.setflags(write=False)
    w = prob.mass
    r = prob.matvec(omega) - value * w * omega
    el_res = float(np.linalg.norm(r) / np.linalg.norm(w * omega))
    cons = abs(float(omega @ (w * omega)) - 1.0)
    return LambdaProblem(prob, value, omega, el_res, cons)


def _brent_tol1(x: float, xatol: float) -> float:
    """Brent's least step at x; the final bracket is at most 4 of it wide."""
    return math.sqrt(2.2e-16) * abs(x) + xatol / 3.0


def bounded_minimize(f, lo: float, hi: float, xatol: float) -> float:
    """Brent's bounded minimization of f on [lo, hi], scipy 1.17.1's
    `_minimize_scalar_bounded` op for op (constants, stop rule, 500-evaluation
    cap), so f sees the same abscissae; returns the best of them."""
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bounds [{lo!r}, {hi!r}] must be finite and ordered")
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    while num < 500:
        xm = 0.5 * (a + b)
        tol1 = _brent_tol1(xf, xatol)
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # parabola through the three best points, kept if acceptable
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            parabolic = (abs(p) < abs(0.5 * q * r)
                         and q * (a - xf) < p < q * (b - xf))
        if parabolic:
            rat = (p + 0.0) / q
            x = xf + rat
            if (x - a) < tol2 or (b - x) < tol2:
                rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        else:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
    return xf


def fit_power_model(x: np.ndarray, u: np.ndarray,
                    bracket: tuple[float, float]) -> tuple[float, float, float]:
    """Fit u ~ c0 + c1 x^e by a bounded search over e in bracket on the rms
    residual of the linear least-squares solve; returns (c0, e, rms)."""

    def solve(e):
        A = np.column_stack([np.ones_like(x), x**e])
        coef = np.linalg.lstsq(A, u, rcond=None)[0]
        return float(coef[0]), float(np.sqrt(np.mean((u - A @ coef) ** 2)))

    e = bounded_minimize(lambda e: solve(e)[1], *bracket, 1e-8)
    c0, rms = solve(e)
    return c0, e, rms


def fit_asymptotics(u, grid: RadialGrid) -> tuple[float, float, float]:
    """Least-squares fit u ~ c0 + c1 x^e, e in [1e-3, 4], near the tip.

    The window is [max(4 x_1, 1e-3 L), L/10].  Returns (c0, e, rms
    residual) of `fit_power_model`; a field that is constant to machine
    precision returns the exponent +inf.
    """
    vals = np.asarray(u, dtype=float)
    x = grid.x
    # on strongly graded grids 4*x_1 can sit far below the level where the
    # field's variation clears solver roundoff; keep the window floor at a
    # fixed fraction of the domain
    lo, hi = max(4.0 * x[0], 1e-3 * grid.L), grid.L / 10.0
    sel = (x >= lo) & (x <= hi)
    if sel.sum() < 8:
        raise ValueError(f"fit window [{lo:.6g}, {hi:.6g}] contains "
                         f"{sel.sum()} grid points, need at least 8")
    xs, ys = x[sel], vals[sel]
    scale = np.max(np.abs(ys))
    if scale == 0 or np.ptp(ys) <= 1e-13 * scale:
        return float(np.mean(ys)), np.inf, 0.0
    return fit_power_model(xs, ys, (1e-3, 4.0))
