"""Exact-cone heat kernel, modified Bessel functions, and mapping diagnostics.

The mode-nu radial heat kernel of the exact cone of dimension n+1 is

    h_nu(t, x, y) = (x y)^{-(n-1)/2} (1/2t) I_nu(x y / 2t) exp(-(x^2+y^2)/4t)

with I_nu the modified Bessel function of the first kind.  I_nu is computed
from the ascending power series for small argument and from the Debye-type
uniform asymptotic expansion (DLMF 10.41) for large argument; the scaled
variant e^{-z} I_nu(z) stays finite far beyond the overflow range and lets
the kernel be assembled through the stable combination
exp(z - (x^2+y^2)/4t) = exp(-(x-y)^2/4t).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import RadialGrid, RadialField, smooth_cutoff, _as_values
from .spectral import fit_power_model

_SERIES_MAX_Z = 30.0
_SERIES_TERMS = 90
_DEBYE_ORDER = 10


def _debye_polynomials(kmax: int):
    """Coefficient lists (ascending powers of p) of the polynomials U_k."""
    polys = [[Fraction(1)]]
    for _ in range(kmax):
        u = polys[-1]
        du = [i * c for i, c in enumerate(u)][1:]
        new = [Fraction(0)] * (len(u) + 4)
        # (1/2) p^2 (1 - p^2) u'(p)
        for i, c in enumerate(du):
            new[i + 2] += c / 2
            new[i + 4] -= c / 2
        # (1/8) int_0^p (1 - 5 t^2) u(t) dt
        for i, c in enumerate(u):
            new[i + 1] += c / (8 * (i + 1))
            new[i + 3] -= 5 * c / (8 * (i + 3))
        while new and new[-1] == 0:
            new.pop()
        polys.append(new)
    return [np.array([float(c) for c in poly]) for poly in polys]


_DEBYE_U = _debye_polynomials(_DEBYE_ORDER)


def _polyval_ascending(coeffs: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    for c in coeffs[::-1]:
        out = out * p + c
    return out


def _bessel_i_series_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the ascending series; intended for z <= ~30."""
    out = np.zeros_like(z)
    zero = z == 0.0
    if zero.any():
        out[zero] = 1.0 if nu == 0.0 else 0.0
    pos = ~zero
    if pos.any():
        zp = z[pos]
        logt0 = nu * np.log(zp / 2.0) - math.lgamma(nu + 1.0)
        term = np.exp(logt0 - zp)
        total = term.copy()
        q = zp * zp / 4.0
        for k in range(1, _SERIES_TERMS + 1):
            term = term * q / (k * (k + nu))
            total += term
            if k > 4 and np.max(term) <= 1e-18 * np.max(total):
                break
        out[pos] = total
    return out


def _bessel_i_bigz_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the fixed-order large-z expansion (needs 4 nu^2 <~ z)."""
    total = np.ones_like(z)
    term = np.ones_like(z)
    fournu2 = 4.0 * nu * nu
    prev = np.full_like(z, np.inf)
    for k in range(1, 30):
        factor = -(fournu2 - (2 * k - 1) ** 2) / (8.0 * k * z)
        term = term * factor
        grow = np.abs(term) >= prev
        term = np.where(grow, 0.0, term)
        total += term
        prev = np.where(grow, prev, np.abs(term))
        if np.all(np.abs(term) < 1e-17):
            break
    return total / np.sqrt(2.0 * np.pi * z)


def _bessel_i_debye_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the uniform large-order expansion (DLMF 10.41.3)."""
    w = z / nu
    s = np.sqrt(1.0 + w * w)
    p = 1.0 / s
    # nu*eta - z, written cancellation-free
    expo = nu / (s + w) + nu * np.log(w / (1.0 + s))
    total = np.zeros_like(z)
    for k, coeffs in enumerate(_DEBYE_U):
        total += _polyval_ascending(coeffs, p) / nu**k
    return np.exp(expo) / np.sqrt(2.0 * np.pi * nu * s) * total


def bessel_i(nu: float, z, scaled: bool = False):
    """Modified Bessel function I_nu(z) for nu >= 0, z >= 0 (vectorized in z).

    scaled=True returns e^{-z} I_nu(z), finite for huge arguments; the plain
    variant overflows to inf past z ~ 709 as e^z does.
    """
    if nu < 0:
        raise ValueError("order nu must be >= 0")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr).copy()
    if np.any(z_arr < 0):
        raise ValueError("argument z must be >= 0")
    out = np.empty_like(z_arr)
    small = z_arr <= _SERIES_MAX_Z
    if small.any():
        out[small] = _bessel_i_series_scaled(nu, z_arr[small])
    big = ~small
    if big.any():
        if 4.0 * nu * nu <= _SERIES_MAX_Z:
            out[big] = _bessel_i_bigz_scaled(nu, z_arr[big])
        else:
            zb = z_arr[big]
            res = np.empty_like(zb)
            fx = 4.0 * nu * nu <= zb
            if fx.any():
                res[fx] = _bessel_i_bigz_scaled(nu, zb[fx])
            if (~fx).any():
                res[~fx] = _bessel_i_debye_scaled(nu, zb[~fx])
            out[big] = res
    if not scaled:
        with np.errstate(over="ignore"):
            out = out * np.exp(z_arr)
    return float(out[0]) if scalar else out


def nu_from_mode(n: int, mode: float) -> float:
    """Indicial order nu(lam) = sqrt(lam + ((n-1)/2)^2) of a link mode."""
    return math.sqrt(mode + ((n - 1) / 2.0) ** 2)


def cone_kernel_mode(n: int, nu: float, t, x, x_tilde):
    """Mode-nu radial heat kernel of the exact (n+1)-dimensional cone.

    t, x and x_tilde may be scalars or arrays that broadcast against each
    other; every entry of t must be positive.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("time t must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(x_tilde, dtype=float)
    pref = (x * y) ** (-(n - 1) / 2.0) / (2.0 * t)
    return (pref * bessel_i(nu, x * y / (2.0 * t), scaled=True)
            * np.exp(-((x - y) ** 2) / (4.0 * t)))


def _panel_gauss(edges: np.ndarray, npts: int):
    """Gauss-Legendre nodes and weights on every panel between edges."""
    gn, gw = np.polynomial.legendre.leggauss(npts)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * gn[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=32)
def _gauss_rule_cached(key):
    x_tuple, npts = key
    return _panel_gauss(np.concatenate([[0.0], x_tuple]), npts)


def cell_gauss_rule(grid: RadialGrid, npts: int = 4):
    """Gauss-Legendre nodes/weights per grid cell, including the tip cell."""
    return _gauss_rule_cached((tuple(grid.x), npts))


def heat_apply(link: "LinkData", t: float, u, grid: RadialGrid,
               mode: float = 0.0, quad_pts: int = 4) -> RadialField:
    """Apply the mode heat semigroup: integral of h_nu(t,x,y) u(y) y^n dy.

    u may be grid values (interpolated to the quadrature nodes by a cubic
    spline) or a callable evaluated at the nodes directly; pass a callable
    for sources that vary too fast near the tip for interpolation.
    """
    n = link.n
    nu = nu_from_mode(n, mode)
    xq, wq = cell_gauss_rule(grid, quad_pts)
    if callable(u):
        vals = u(grid.x)
        uq = u(xq)
    else:
        from scipy.interpolate import CubicSpline
        vals = _as_values(u)
        uq = CubicSpline(grid.x, vals, extrapolate=True)(xq)
    # warn if u carries mass the truncated quadrature domain cannot absorb
    edge = np.abs(vals[-1]) * grid.L**n
    if edge > 1e-12 * max(1.0, np.max(np.abs(vals))):
        warnings.warn("field has mass near the outer truncation radius",
                      stacklevel=2)
    # Gaussian locality: entries with (x-y)^2/4t > 41 contribute < 2e-18
    # of the kernel scale and are skipped entirely
    X, Y = grid.x[:, None], xq[None, :]
    act = (X - Y) ** 2 <= 4.0 * t * 41.0
    kern = np.zeros(act.shape)
    xa = np.broadcast_to(X, act.shape)[act]
    ya = np.broadcast_to(Y, act.shape)[act]
    kern[act] = cone_kernel_mode(n, nu, t, xa, ya)
    out = kern @ (uq * xq**n * wq)
    return RadialField(out)


def heat_convolve(link: "LinkData", t: float, f, grid: RadialGrid,
                  mode: float = 0.0, quad_pts: int = 4) -> RadialField:
    """Time convolution integral of the heat semigroup against a fixed source.

    Composite Gauss quadrature on geometrically graded panels in the
    semigroup time, two per decade down to sigma_min = t 10^{-8}; the
    remaining sliver [0, sigma_min] contributes sigma_min * f since
    H(sigma) -> Id.
    """
    fv = f(grid.x) if callable(f) else _as_values(f)
    src = f if callable(f) else fv
    gn, gw = np.polynomial.legendre.leggauss(quad_pts)
    result = np.zeros(grid.N)
    edges = t * 10.0 ** (-np.linspace(0.0, 8.0, 17))
    for hi, lo in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for gnode, gweight in zip(gn, gw):
            sigma = mid + half * gnode
            result += half * gweight * heat_apply(
                link, sigma, src, grid, mode=mode, quad_pts=quad_pts).values
    result += edges[-1] * fv
    return RadialField(result)


def kernel_mass(n: int, t: float, x: float) -> float:
    """Quadrature of the radial-mode kernel mass: integral h_{(n-1)/2} y^n dy."""
    nu = (n - 1) / 2.0
    edges = np.linspace(0.0, x + 14.0 * math.sqrt(t) + 1.0, 201)
    ynodes, yweights = _panel_gauss(edges, 8)
    vals = cone_kernel_mode(n, nu, t, x, ynodes)
    return float(np.sum(vals * ynodes**n * yweights))


# -- flat-space equality diagnostics -------------------------------------------

def s1_plane_kernel_error(t, x, x_tilde, dtheta) -> float:
    """Max relative error of the S^1 cone mode sum against the plane Gaussian.

    The cone over the unit circle is the Euclidean plane; the mode sum
    (1/2pi) h_0 + (1/pi) sum_k h_k cos(k dtheta) must reproduce
    (4 pi t)^{-1} exp(-d^2/4t) with d the planar distance.

    The error is the sup-norm relative error over the sample set,
    max|sum - exact| / max|exact|.  Pointwise relative accuracy in the deep
    Gaussian tail is not meaningful here: the generating-function identity
    sum_k eps_k I_k(z) cos(k dth) = e^{z cos dth} forces cancellation by a
    factor e^{z (1 - cos dth)} among the mode terms, which exhausts double
    precision long before the tail values themselves underflow.  The sum
    stops at the first mode below 1e-14 of the partial sum, or at k = 400.
    """
    t, x, y, dth = np.broadcast_arrays(
        np.asarray(t, float), np.asarray(x, float),
        np.asarray(x_tilde, float), np.asarray(dtheta, float))
    total = np.zeros(t.shape)
    for k in range(401):
        hk = cone_kernel_mode(1, float(k), t, x, y)
        weight = 1.0 / (2.0 * np.pi) if k == 0 else 1.0 / np.pi
        total += weight * hk * np.cos(k * dth)
        if k > 0 and np.max(np.abs(hk)) < 1e-14 * np.max(np.abs(total)):
            break
    d2 = x**2 + y**2 - 2.0 * x * y * np.cos(dth)
    exact = np.exp(-d2 / (4.0 * t)) / (4.0 * np.pi * t)
    return float(np.max(np.abs(total - exact)) / np.max(np.abs(exact)))


# -- mapping-property exponent report -------------------------------------------

def classify_tip_behavior(x: np.ndarray, u: np.ndarray) -> dict:
    """Classify tip behavior as bounded / logarithmic / power with exponent.

    Three two-parameter models compete on raw-value rms residual:
        power:   u = c0 + c1 x^e,  e in [-3.3, -0.25]  (blows up at the tip)
        log:     u = c0 + c1 log x
        bounded: u = c0 + c1 x^e,  e in [0.25, 3.0]
    The exponent search keeps a gap around e = 0 because x^e -> 1 + e log x
    there, so an unrestricted power model would absorb the log model and the
    residual comparison could never separate them.
    """
    _, e_pow, rms_pow = fit_power_model(x, u, (-3.3, -0.25))
    _, e_bnd, rms_bnd = fit_power_model(x, u, (0.25, 3.0))
    log_model = np.column_stack([np.ones_like(x), np.log(x)])
    coef = np.linalg.lstsq(log_model, u, rcond=None)[0]
    rms_log = float(np.sqrt(np.mean((u - log_model @ coef) ** 2)))
    scale = float(np.sqrt(np.mean(u**2)))
    best = min(("power", rms_pow), ("log", rms_log), ("bounded", rms_bnd),
               key=lambda kv: kv[1])[0]
    return {"kind": best,
            "slope": e_pow if best == "power" else (e_bnd if best == "bounded" else 0.0),
            "rms_power_model": rms_pow, "rms_log_model": rms_log,
            "rms_bounded_model": rms_bnd, "rms_scale": scale}


def mapping_exponent_report(link: "LinkData", N_exp: float) -> dict:
    """Fitted tip exponents of the convolved and instantaneous heat operator.

    Applies H (time convolution up to t = 1) and H(t) to x^{-N} times a
    smooth cutoff on the exact cone and compares the exponent fitted on
    x in [0.012, 0.1] against the predicted table (bounded for N < 2, log
    for N = 2, -N+2 for N > 2, within 0.1) and the fitted temporal slope of
    sup|H(t)f| against -N/2 (within 0.15).
    """
    n = link.n
    if not (0 < N_exp <= n):
        raise ValueError("need 0 < N <= n")
    grid = RadialGrid.graded(800, 1.0, p=2.0)
    # short times only: once the diffusion length sqrt(t) reaches the
    # cutoff scale the sup crosses over to the dimensional t^{-m/2} decay
    t_grid = np.geomspace(5e-4, 0.02, 7)
    x = grid.x

    def f(y):
        return y ** (-N_exp) * smooth_cutoff(y, 0.25, 0.5)

    conv = heat_convolve(link, 1.0, f, grid, mode=0.0, quad_pts=2).values
    sel = (x >= 0.012) & (x <= 0.1)
    cls = classify_tip_behavior(x[sel], conv[sel])

    sups = np.array([np.max(np.abs(
        heat_apply(link, t, f, grid, quad_pts=2).values))
        for t in t_grid])
    tslope = float(np.polyfit(np.log(t_grid), np.log(sups), 1)[0])

    predicted = -N_exp + 2.0
    if N_exp > 2.0:
        spatial_pass = (cls["kind"] == "power"
                        and abs(cls["slope"] - predicted) <= 0.1)
    elif N_exp == 2.0:
        spatial_pass = cls["kind"] == "log"
    else:
        spatial_pass = cls["kind"] == "bounded"
    temporal_bound = -N_exp / 2.0 + 0.15
    temporal_pass = tslope <= temporal_bound
    return {
        "N": N_exp,
        "spatial": cls,
        "spatial_predicted_exponent": (None if N_exp <= 2 else predicted),
        "spatial_pass": bool(spatial_pass),
        "temporal_slope": tslope,
        "temporal_bound": temporal_bound,
        "temporal_pass": bool(temporal_pass),
        "pass": bool(spatial_pass and temporal_pass),
    }
