"""Exact-cone heat kernel, modified Bessel functions, and mapping diagnostics.

The mode-nu radial heat kernel of the exact cone of dimension n+1 is

    h_nu(t, x, y) = (x y)^{-(n-1)/2} (1/2t) I_nu(x y / 2t) exp(-(x^2+y^2)/4t)

with I_nu the modified Bessel function of the first kind.  I_nu comes from
the large-z expansion (DLMF 10.40.1) where z > 30 and 4 nu^2 <= z, which
scipy.special.ive does not beat there, and from ive elsewhere; the scaled
variant e^{-z} I_nu(z) stays finite far beyond the overflow range and lets
the kernel be assembled through the stable combination
exp(z - (x^2+y^2)/4t) = exp(-(x-y)^2/4t).  In `bessel_i` and
`cone_kernel_mode` nu broadcasts against the other arguments, as in
scipy.special.ive, and every entry equals the one-order call bit for bit;
`s1_plane_kernel_error` takes its modes a block of orders per call.

`heat_apply` forms no dense kernel matrix: below the branch point z = 30
the series factorizes and is summed by prefix sums, and above it the kernel
is evaluated on each row's Gaussian band only; both agree with the kernel
above to roundoff.  The prefix sums run along one row for a nonnegative
source, and along two for a signed one, whose second row, of |g|, only
decides where the series stops.  Each call puts its source on the y-rule
once, as the weighted source g, and `heat_convolve`'s tail reuses it.

`heat_sup` returns max|heat_apply| at each time, bit for bit, skipping bands.
On z > 30, e^{-z} I_nu(z) sqrt(2 pi z) <= 1.01 for every nu >= 0 (it is 1
for nu >= 1/2 and 1.00425 for nu = 0, at z = 30), and the Gaussian factor
is at most 1, so a row's near sum is at most 1.01 x^{-n/2} / (2 sqrt(pi t))
times the sum of y^{-n/2} |g| over its band, with g the weighted source.
Every row's far field is summed; a row evaluates its near band only if its
|far field| plus that bound reaches the largest |value| among the rows
that have no near band.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .geometry import RadialGrid, smooth_cutoff
from .spectral import _scipy_compiled, fit_power_model, nu_from_mode

_SERIES_MAX_Z = 30.0
_SERIES_TERMS = 90
# bounds e^{-z} I_nu(z) sqrt(2 pi z) on z > 30 for every nu >= 0, with room
# for roundoff: I_nu falls as nu grows, and the sup is 1.00425, at nu = 0
_BIGZ_SUP = 1.01
# orders per cone_kernel_mode call in s1_plane_kernel_error
_PLANE_BLOCK = 32
# most Gauss-Jacobi nodes in heat_convolve's tail: an 8 MB eigh matrix
_MAX_TAIL_NODES = 1024


def _bessel_i_bigz_scaled(nu, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the fixed-order large-z expansion (needs 4 nu^2 <~ z).

    nu broadcasts against z.
    """
    total = np.ones_like(z)
    term = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)  # last term was still >= 1e-17
    fournu2 = 4.0 * nu * nu
    for k in range(1, 30):
        term = np.where(
            live, term * (-(fournu2 - (2 * k - 1) ** 2) / (8.0 * k * z)), 0.0)
        total += term
        live &= np.abs(term) >= 1e-17
        if not live.any():
            break
    return total / np.sqrt(2.0 * np.pi * z)


def bessel_i(nu, z, scaled: bool = False):
    """Modified Bessel function I_nu(z) for nu >= 0, z >= 0.

    nu broadcasts against z, as in scipy.special.ive, and every entry takes
    its branch on its own (nu, z), so it equals the one-order call bit for
    bit; shapes that do not broadcast raise numpy's ValueError.

    Entries with z > 30 and 4 nu^2 <= z come from the large-z expansion
    (DLMF 10.40.1), which scipy.special.ive does not beat there and which
    stays finite where ive returns NaN, above z ~ 1.08e9; every other entry
    comes from ive, so every order below about 16,000 is covered at every z.
    ive is loaded from scipy.special._special_ufuncs on the first call,
    without scipy.special.

    scaled=True returns e^{-z} I_nu(z), finite for huge arguments; the plain
    variant overflows to inf past z ~ 709 as e^z does.
    """
    nu, z = np.broadcast_arrays(np.asarray(nu, dtype=float),
                                np.asarray(z, dtype=float))
    if np.any(nu < 0):
        raise ValueError("order nu must be >= 0")
    if np.any(z < 0):
        raise ValueError("argument z must be >= 0")
    ive = _scipy_compiled("special._special_ufuncs", "ive")
    bigz = (z > _SERIES_MAX_Z) & (4.0 * nu * nu <= z)
    out = np.empty(z.shape)
    out[~bigz] = ive(nu[~bigz], z[~bigz])
    out[bigz] = _bessel_i_bigz_scaled(nu[bigz], z[bigz])
    if not scaled:
        with np.errstate(over="ignore"):
            out = out * np.exp(z)
    return float(out) if out.ndim == 0 else out


def cone_kernel_mode(n: int, nu, t, x, x_tilde):
    """Mode-nu radial heat kernel of the exact (n+1)-dimensional cone.

    nu, t, x and x_tilde may be scalars or arrays that broadcast against
    each other, as in `bessel_i`; every entry of t must be finite and
    positive.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("time t must be finite and positive")
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


def _weighted_source(link: "LinkData", u, grid: RadialGrid, quad_pts: int):
    """The y-rule's nodes xq and u(y) y^n times its weights, g, on them.

    The y-rule has quad_pts Gauss nodes on every panel between 0 and the
    grid nodes.  Warns if u carries mass at the outer radius L.
    """
    x = grid.x
    xq, wq = _panel_gauss(np.concatenate([[0.0], x]), quad_pts)
    if callable(u):
        vals = u(x)
        uq = u(xq)
    else:
        from scipy.interpolate import CubicSpline
        vals = np.asarray(u, dtype=float)
        uq = CubicSpline(x, vals, extrapolate=True)(xq)
    # warn if u carries mass the truncated quadrature domain cannot absorb
    edge = np.abs(vals[-1]) * grid.L**link.n
    if edge > 1e-12 * max(1.0, np.max(np.abs(vals))):
        warnings.warn("field has mass near the outer truncation radius",
                      stacklevel=3)
    return xq, uq * xq**link.n * wq


def _split_pairs(t: float, x, xq):
    """Where the pairs of the grid nodes x and the y-rule's nodes xq split.

    Returns each row's far-field length split (nodes j < split_i have
    z <= 30), and the start lo and length count of its near band.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("time t must be finite and positive")
    # split_i is the first node y with z = x_i y / 2t past the series range
    split = np.searchsorted(xq, 2.0 * t * _SERIES_MAX_Z / x, side="right")
    reach = math.sqrt(4.0 * t * 41.0)
    lo = np.maximum(split, np.searchsorted(xq, x - reach, side="left"))
    count = np.maximum(np.searchsorted(xq, x + reach, side="right") - lo, 0)
    return split, lo, count


def _far_field(n: int, nu: float, t: float, x, xq, g, split) -> np.ndarray:
    """Each row's sum over its pairs with z <= 30, by the separable series.

    Row i sums A_k(x_i) times the prefix sum of A_k(y) y^{-(n-1)/2} g(y)
    over the nodes j < split_i.  The stop rule reads the same sums of |g|;
    a nonnegative source is its own |g|, so it carries one prefix-sum row,
    and a signed one a second row for |g|.
    """
    r = np.count_nonzero(split)  # split falls as x grows
    far = np.zeros(x.size)
    if r:
        m, cut = split[0], split[:r] - 1
        s = np.concatenate([x[:r], xq[:m]])
        ss = s * s
        a = np.exp(nu * np.log(s / (2.0 * math.sqrt(t))) - ss / (4.0 * t)
                   - 0.5 * math.lgamma(nu + 1.0))
        gf = g[:m] * xq[:m] ** (-(n - 1) / 2.0)
        gf = gf[None] if (gf >= 0).all() else np.stack([gf, np.abs(gf)])
        total = np.zeros((len(gf), r))
        rows = np.empty(gf.shape)  # this term's prefix sums, row by row
        for k in range(_SERIES_TERMS + 1):
            if k:
                a *= ss / (4.0 * t * math.sqrt(k * (k + nu)))
            np.cumsum(np.multiply(a[r:], gf, out=rows), axis=1, out=rows)
            term = a[:r] * rows.take(cut, axis=1)
            total += term
            if k > 4 and term[-1].max() <= 1e-18 * total[-1].max():
                break
        far[:r] = total[0] * x[:r] ** (-(n - 1) / 2.0) / (2.0 * t)
    return far


def _near_field(n: int, nu: float, t: float, x, xq, g, lo, count) -> np.ndarray:
    """Each row's sum of the kernel times g over its near band
    xq[lo_i : lo_i + count_i]; a row with count_i = 0 sums nothing."""
    if not count.any():
        return np.zeros(x.size)
    i = np.repeat(np.arange(x.size), count)
    j = np.arange(i.size) + (lo - np.cumsum(count) + count)[i]
    near = cone_kernel_mode(n, nu, t, x[i], xq[j]) * g[j]
    return np.bincount(i, weights=near, minlength=x.size)


def heat_apply(link: "LinkData", t: float, u, grid: RadialGrid,
               mode: float = 0.0, quad_pts: int = 4) -> np.ndarray:
    """Apply the mode heat semigroup: integral of h_nu(t,x,y) u(y) y^n dy.

    u may be grid values (interpolated to the quadrature nodes by a cubic
    spline) or a callable evaluated at the nodes directly; pass a callable
    for sources that vary too fast near the tip for interpolation.

    The pairs of grid points x and Gauss nodes y split at the Bessel branch
    point z = x y / 2t = 30.  In the far field, z <= 30, the ascending
    series factorizes,

        e^{-(x^2+y^2)/4t} I_nu(x y / 2t) = sum_k A_k(x) A_k(y),
        A_k(s) = (s / 2 sqrt t)^{2k+nu} e^{-s^2/4t} / sqrt(k! Gamma(k+nu+1)),

    so a row's far-field sum is sum_k A_k(x) times a prefix sum over the
    sorted nodes: O(K (N+Q)) work.  Every A_k is at most about 1 and every
    term is positive, so nothing cancels or overflows, and the series stops
    once k > 4 and its largest new term is at most 1e-18 of its largest
    partial sum: the far field is the series kernel to roundoff.
    In the near field, z > 30, `cone_kernel_mode` runs only on the pairs of
    the Gaussian band (x-y)^2/4t <= 41; the pairs outside it contribute
    below 2e-18 of the kernel scale.
    """
    return _apply_on_rule(link.n, nu_from_mode(link.n, mode), t, grid.x,
                          *_weighted_source(link, u, grid, quad_pts))


def _apply_on_rule(n: int, nu: float, t: float, x, xq, g) -> np.ndarray:
    """`heat_apply` in order nu of the weighted source g on the rule xq."""
    split, lo, count = _split_pairs(t, x, xq)
    return (_far_field(n, nu, t, x, xq, g, split)
            + _near_field(n, nu, t, x, xq, g, lo, count))


def heat_sup(link: "LinkData", times, u, grid: RadialGrid,
             quad_pts: int) -> np.ndarray:
    """max |heat_apply(link, t, u, grid, quad_pts=quad_pts)| at each t of
    times, bit for bit, from one evaluation of u on the y-rule.

    The bound on a row's near band (module docstring) is one difference of
    the prefix sum pre; a row whose |far| plus that bound is below the
    largest |value| of the rows with no near band skips its band.
    """
    n, x = link.n, grid.x
    nu = nu_from_mode(n, 0.0)
    xq, g = _weighted_source(link, u, grid, quad_pts)
    pre = np.concatenate([[0.0], np.cumsum(xq ** (-n / 2.0) * np.abs(g))])
    # a cumulative sum of Q positive terms is within Q eps of its value
    slack = 2.0 * xq.size * np.finfo(float).eps
    scale = _BIGZ_SUP * x ** (-n / 2.0)
    sups = []
    for t in times:
        split, lo, count = _split_pairs(t, x, xq)
        far = _far_field(n, nu, t, x, xq, g, split)
        best = np.max(np.abs(far[count == 0]), initial=-np.inf)
        hi = lo + count
        band = pre[hi] - pre[lo] + slack * pre[hi]
        bound = scale / (2.0 * math.sqrt(math.pi * t)) * band
        pruned = np.abs(far) + bound < best
        near = _near_field(n, nu, t, x, xq, g, lo, np.where(pruned, 0, count))
        sups.append(np.max(np.abs(far + near)))
    return np.array(sups)


def _gauss_jacobi(npts: int, beta: float):
    """Gauss nodes and weights on [0, 1] for the weight s^beta, beta > -1.

    Golub-Welsch on the three-term recurrence of the Jacobi polynomials
    P^(0, beta)(2s - 1), solved by numpy's eigh.  scipy.special.roots_jacobi
    gives the same rule, but its banded eigensolver starts scipy's own BLAS,
    which added 0.8 MB to the peak memory of a `mapping` run.
    """
    k = np.arange(1, npts)
    c = 2.0 * k + beta
    diag = 0.5 + 0.5 * np.concatenate([[beta / (beta + 2.0)],
                                       beta**2 / (c * (c + 2.0))])
    off = k * (k + beta) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    s, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return s, vecs[0] ** 2 / (beta + 1.0)


def heat_convolve(link: "LinkData", t: float, f, grid: RadialGrid,
                  quad_pts: int = 4) -> np.ndarray:
    """Time convolution integral_0^t H(sigma) f dsigma, mode nu = (n-1)/2.

    Computed as G f minus the tail integral_t^inf H(sigma) f dsigma.  G, the
    Green operator integral_0^inf H(sigma) dsigma, has the kernel
    (x y)^{-(n-1)/2} (x_< / x_>)^nu / (2 nu), the s -> 0 limit of
    I_nu(s x_<) K_nu(s x_>) (DLMF 10.30); it is applied on `heat_apply`'s
    y-rule, the only thing quad_pts sets, by two cumulative sums, and the
    kink at y = x lies on a panel edge.  In s = t/sigma in (0, 1] the tail's
    integrand is s^{nu-1} times an analytic function: a Gauss-Jacobi rule
    with n = max(8, ceil(2 L / sqrt t)) nodes takes it, one H(t/s) per
    node on the weighted source that G runs on, so f goes onto the y-rule
    once.  For nu = 0 (the S^1 link), where G is infinite,
    1/(2 sigma) is subtracted on sigma > t: G_0(x, y) = -log max(x, y) +
    log 2 - gamma_E/2 + (1/2) log t, and the tail integrand h_0 - 1/(2 sigma)
    is analytic at s = 0, so the rule is Gauss-Legendre.

    G f and the tail are both O(integral f) while their difference is O(t):
    about log10(L^2/t) digits cancel, and n grows like L/sqrt t, so for
    t << L^2 (below about L^2/200 at L = 5) this is slower than the
    composite rule in sigma it replaced.  `mapping_exponent_report` calls it
    at t = L^2.  A t that needs over 1,024 tail nodes raises ValueError.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("time t must be finite and positive")
    nodes = max(8, math.ceil(2.0 * grid.L / math.sqrt(t)))
    if nodes > _MAX_TAIL_NODES:
        raise ValueError(f"time t = {t:g} needs {nodes} tail nodes, over "
                         f"{_MAX_TAIL_NODES}; the least admissible t here is "
                         f"{(2.0 * grid.L / _MAX_TAIL_NODES) ** 2:g}")
    n = link.n
    nu = nu_from_mode(n, 0.0)
    x = grid.x
    xq, g = _weighted_source(link, f, grid, quad_pts)
    below = np.searchsorted(xq, x)  # the nodes y < x_i are xq[:below[i]]

    def lower(v):  # sum of v over the nodes y < x_i
        return np.concatenate([[0.0], np.cumsum(v)])[below]

    def upper(v):  # sum of v over the nodes y > x_i
        return np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])[below]

    if nu > 0.0:
        gh = g * xq ** (-(n - 1) / 2.0)
        green = (x ** (-(n - 1) / 2.0) / (2.0 * nu)
                 * (x**-nu * lower(xq**nu * gh) + x**nu * upper(xq**-nu * gh)))
        mass, beta = 0.0, nu - 1.0
    else:
        mass, beta = g.sum(), 0.0
        green = ((math.log(2.0) - 0.5 * np.euler_gamma + 0.5 * math.log(t))
                 * mass - np.log(x) * lower(g) - upper(np.log(xq) * g))
    # the tail in s = t/sigma, integral_0^1 (t/s^2) [H(t/s) f - s mass/2t] ds,
    # by a rule exact on s^beta times polynomials of degree < 2 nodes
    s, w = _gauss_jacobi(nodes, beta)
    w = w * s**-beta
    tail = sum(wi * t / si**2
               * (_apply_on_rule(n, nu, t / si, x, xq, g)
                  - si / (2.0 * t) * mass)
               for si, wi in zip(s, w))
    return green - tail


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
    precision long before the tail values themselves underflow.  The modes
    come from `cone_kernel_mode` in blocks of _PLANE_BLOCK orders and are
    added one order at a time; the sum stops at the first mode below 1e-14
    of the partial sum, or at k = 400.
    """
    t, x, y, dth = np.broadcast_arrays(
        np.asarray(t, float), np.asarray(x, float),
        np.asarray(x_tilde, float), np.asarray(dtheta, float))

    def modes():  # (k, h_k) for k = 0..400, one block of orders at a time
        for start in range(0, 401, _PLANE_BLOCK):
            ks = range(start, min(start + _PLANE_BLOCK, 401))
            orders = np.array(ks, float).reshape((-1,) + (1,) * t.ndim)
            yield from zip(ks, cone_kernel_mode(1, orders, t, x, y))

    total = np.zeros(t.shape)
    for k, hk in modes():
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

    Applies H (time convolution up to t = 1, `heat_convolve`'s Green
    operator minus its long-time tail) and H(t) to x^{-N} times a smooth
    cutoff on the exact cone, both with 2 Gauss points per panel in the
    spatial integral (quad_pts = 2 sets nothing else), and compares the
    exponent fitted on x in [0.012, 0.1] against the predicted table
    (bounded for N < 2, log for N = 2, -N+2 for N > 2, within 0.1) and the
    fitted temporal slope of sup|H(t)f| against -N/2 (within 0.15).
    The sups come from `heat_sup`, bit-identical to max|H(t)f|.
    """
    if not (0 < N_exp <= link.n):
        raise ValueError(f"mapping.exponent N = {N_exp:g} must satisfy "
                         f"0 < N <= n = {link.n}, the link dimension")
    grid = RadialGrid.graded(800, 1.0, p=2.0)
    # short times only: once the diffusion length sqrt(t) reaches the
    # cutoff scale the sup crosses over to the dimensional t^{-m/2} decay
    t_grid = np.geomspace(5e-4, 0.02, 7)
    x = grid.x

    def f(y):
        return y ** (-N_exp) * smooth_cutoff(y, 0.25, 0.5)

    conv = heat_convolve(link, 1.0, f, grid, quad_pts=2)
    sel = (x >= 0.012) & (x <= 0.1)
    cls = classify_tip_behavior(x[sel], conv[sel])

    sups = heat_sup(link, t_grid, f, grid, 2)
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
