"""Radial warped-product conical metrics and their curvature.

A metric g = a(x)^2 dx^2 + b(x)^2 g_F over a radial interval (0, L], with an
Einstein link (F, g_F) of dimension n, reduces every curvature quantity to
one dimension.  Writing D = (1/a) d/dx for the arclength derivative, the
orthonormal-frame curvature components are

    Ric_rad  = -n D^2 b / b
    Ric_link = -D^2 b / b + (kappa - (Db)^2) (n-1) / b^2
    scal     = Ric_rad + n Ric_link

where Ric(g_F) = (n-1) kappa g_F, i.e. kappa = scal_F / (n(n-1)) (kappa = 1
for the unit-sphere normalization).  Derivatives are taken by finite
differences on a graded grid; stencil weights come from local polynomial
interpolation so the grid need not be uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

TWO_CONES = "two_cones"
CONE_AND_CAP = "cone_and_cap"

# width of the interpolation stencil; 7 points keep the curvature error far
# below the flow fixed-point drift tolerance at moderate N
STENCIL = 7


class ConelabError(Exception):
    """Base of the solver and configuration errors conelab raises."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def fornberg_weights(xs: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes xs."""
    npts = len(xs)
    c = np.zeros((npts, m + 1))
    c1 = 1.0
    c4 = xs[0] - x0
    c[0, 0] = 1.0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes x_1 < ... < x_N in (0, L]; x is read-only."""

    x: np.ndarray
    L: float
    p: float = 2.0

    def __post_init__(self):
        x = _read_only(np.array(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        if x[0] <= 0 or np.any(np.diff(x) <= 0):
            raise ValueError("grid nodes must be strictly increasing and positive")

    @classmethod
    def graded(cls, N: int, L: float, p: float = 2.0) -> "RadialGrid":
        """x_i = L (i/N)^p: clustered at the tip for p > 1."""
        i = np.arange(1, N + 1, dtype=float)
        return cls(x=L * (i / N) ** p, L=L, p=p)

    @property
    def N(self) -> int:
        return len(self.x)

    @cached_property
    def _stencils(self):
        # per-node window start and (d1, d2) weights
        N, w = self.N, min(STENCIL, self.N)
        starts = np.clip(np.arange(N) - w // 2, 0, N - w)
        w1 = np.empty((N, w))
        w2 = np.empty((N, w))
        for i, j in enumerate(starts):
            xs = self.x[j : j + w]
            w1[i] = fornberg_weights(xs, self.x[i], 1)
            w2[i] = fornberg_weights(xs, self.x[i], 2)
        return starts, w1, w2

    def _apply(self, u, weights):
        starts, w1, w2 = self._stencils
        w = w1.shape[1]
        idx = starts[:, None] + np.arange(w)[None, :]
        return np.einsum("ij,ij->i", weights, np.asarray(u, dtype=float)[idx])

    def d1(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, self._stencils[1])

    def d2(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, self._stencils[2])

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """Trapezoidal nodal cell lengths on [x_1, L] (tip cell handled separately)."""
        x = self.x
        c = np.zeros(self.N)
        dx = np.diff(x)
        c[:-1] += 0.5 * dx
        c[1:] += 0.5 * dx
        return c


@dataclass
class RadialField:
    """Scalar field sampled on a radial grid."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def __len__(self):
        return len(self.values)


def _as_values(u) -> np.ndarray:
    return u.values if isinstance(u, RadialField) else np.asarray(u, dtype=float)


@dataclass(frozen=True)
class RadialMetric:
    """g = a(x)^2 dx^2 + b(x)^2 g_F on a radial grid over an Einstein link.

    a and b are read-only copies, so data derived from the metric (the
    jet, the curvature, the lambda problem) is computed once per object.
    """

    link: "LinkData"
    grid: RadialGrid
    a: np.ndarray
    b: np.ndarray
    gamma: float = 1.0
    topology_tag: str = TWO_CONES
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        a = _read_only(np.array(self.a, dtype=float))
        b = _read_only(np.array(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != self.grid.N or len(b) != self.grid.N:
            raise ValueError("coefficient fields must match the grid")
        if np.any(a <= 0):
            raise ValueError("a must be positive")
        if np.any(b < 0) or np.any(b[:-1] <= 0):
            raise ValueError("b must be positive (b = 0 allowed only at the cap)")
        if self.gamma <= 0:
            raise ValueError("perturbation order gamma must be positive")

    @property
    def m(self) -> int:
        """Total dimension of the conical manifold."""
        return self.link.n + 1

    @property
    def cone_factor(self) -> float:
        """Fitted limit of b(x)/x at the tip."""
        return float(self.b[0] / self.grid.x[0])

    def derived(self, build):
        """build(self), computed on the first request and memoized."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    @cached_property
    def jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Grid derivatives (a', b', a'', b'') of the coefficients."""
        g = self.grid
        return tuple(_read_only(d(u)) for d in (g.d1, g.d2)
                     for u in (self.a, self.b))

    def scaled(self, c2: float) -> "RadialMetric":
        """The metric c2 * g, realized as (a, b) -> (c a, c b) with c = sqrt(c2)."""
        c = np.sqrt(c2)
        return replace(self, a=c * self.a, b=c * self.b)


# -- curvature ----------------------------------------------------------------

def _pole_mask(metric: RadialMetric, rel_tol: float = 5e-2) -> np.ndarray:
    """Points too close to a smooth zero of b for stable curvature evaluation.

    The conical tip (b ~ cone_factor * x) is NOT masked: its 0/0 limits are
    numerically benign.  Only caps, where b vanishes away from x = 0, are.
    """
    b, x = metric.b, metric.grid.x
    return (b < rel_tol * b.max()) & (b < 0.5 * metric.cone_factor * x)


def _extrapolate_into(x, vals, bad):
    """Replace vals[bad] by polynomial extrapolation from the good side."""
    vals = vals.copy()
    good = ~bad
    idx_bad = np.where(bad)[0]
    for i in idx_bad:
        # nearest block of good points
        order = np.argsort(np.abs(x[good] - x[i]))[:8]
        xs = x[good][order]
        ys = vals[good][order]
        # degree-5 local fit in a shifted/scaled coordinate for conditioning
        s = (xs - x[i]) / (np.abs(xs - x[i]).max() + 1e-300)
        coef = np.polyfit(s, ys, min(5, len(xs) - 1))
        vals[i] = np.polyval(coef, 0.0)
    return vals


def warped_ricci(metric: RadialMetric) -> tuple[RadialField, RadialField]:
    """Orthonormal-frame Ricci components (radial-radial, link-diagonal)."""
    return metric.derived(_ricci_pair)


def _ricci_pair(metric: RadialMetric) -> tuple[RadialField, RadialField]:
    n = metric.link.n
    a, b = metric.a, metric.b
    da, db, _, d2b = metric.jet
    kappa = metric.link.scal_F / (n * (n - 1)) if n > 1 else 0.0
    Db = db / a
    D2b = (d2b - db * da / a) / a**2
    bad = _pole_mask(metric)
    safe_b = np.where(bad, 1.0, b)
    ric_rad = -n * D2b / safe_b
    if n > 1:
        ric_link = -D2b / safe_b + (n - 1) * (kappa - Db**2) / safe_b**2
    else:
        ric_link = -D2b / safe_b
    if bad.any():
        x = metric.grid.x
        ric_rad = _extrapolate_into(x, ric_rad, bad)
        ric_link = _extrapolate_into(x, ric_link, bad)
    return (RadialField(_read_only(ric_rad)),
            RadialField(_read_only(ric_link)))


def warped_scal(metric: RadialMetric) -> RadialField:
    """Scalar curvature scal = Ric_rad + n * Ric_link (exact trace identity)."""
    ric_rad, ric_link = warped_ricci(metric)
    return RadialField(ric_rad.values + metric.link.n * ric_link.values)


# -- measures and norms --------------------------------------------------------

def volume_form(metric: RadialMetric) -> np.ndarray:
    """Quadrature weights w_i with sum(w * u) ~ integral of u dV_g.

    Trapezoidal rule in x with density a b^n vol_F; the cell touching x = 0
    is integrated assuming the density grows like x^n there.
    """
    n = metric.link.n
    g = metric.grid
    dens = metric.a * metric.b**n * metric.link.vol_F
    w = dens * g.cell_sizes
    # tip cell [0, x_1]: integral of c x^n with c matched at x_1
    w[0] += dens[0] * g.x[0] / (n + 1)
    return w


def total_volume(metric: RadialMetric) -> float:
    return float(volume_form(metric).sum())


def weighted_sup_norm(u, grid: RadialGrid, gamma: float) -> float:
    """sup over the grid of x^{-gamma} |u|."""
    vals = _as_values(u)
    return float(np.max(np.abs(vals) * grid.x ** (-gamma)))


def radial_hessian(f, metric: RadialMetric) -> tuple[RadialField, RadialField]:
    """Orthonormal Hessian components of a radial function.

    hess_rad = D(Df), hess_link = (Db/b) Df; the trace is the (geometer's
    negative) Laplacian of f.
    """
    vals = _as_values(f)
    a, b, g = metric.a, metric.b, metric.grid
    da, db, _, _ = metric.jet
    df = g.d1(vals)
    Df = df / a
    hess_rad = (g.d2(vals) - df * da / a) / a**2
    bad = _pole_mask(metric)
    safe_b = np.where(bad, 1.0, b)
    Db = db / a
    hess_link = (Db / safe_b) * Df
    if bad.any():
        hess_link = _extrapolate_into(g.x, hess_link, bad)
    return RadialField(hess_rad), RadialField(hess_link)


def laplacian(f, metric: RadialMetric) -> RadialField:
    """div grad f for radial f (negative-spectrum sign convention)."""
    hr, hl = radial_hessian(f, metric)
    return RadialField(hr.values + metric.link.n * hl.values)


def weighted_sobolev_norm(u, metric: RadialMetric, s: int, delta: float) -> float:
    """Discrete weighted Sobolev norm: sum_{k<=s} ||x^{k-delta} grad^k u||_L2."""
    if s not in (0, 1, 2):
        raise ValueError("only s in {0, 1, 2} supported")
    vals = _as_values(u)
    w = volume_form(metric)
    x = metric.grid.x
    total = np.sqrt(np.sum(w * (x ** (-delta) * vals) ** 2))
    if s >= 1:
        Du = metric.grid.d1(vals) / metric.a
        total += np.sqrt(np.sum(w * (x ** (1 - delta) * Du) ** 2))
    if s >= 2:
        hr, hl = radial_hessian(vals, metric)
        h2 = hr.values**2 + metric.link.n * hl.values**2
        total += np.sqrt(np.sum(w * x ** (2 * (2 - delta)) * h2))
    return float(total)


# -- presets -------------------------------------------------------------------

def flat_cone(link, grid: RadialGrid, cone_factor: float = 1.0,
              gamma: float = 1.0) -> RadialMetric:
    """Exact cone b = c x, a = 1 over the link."""
    return RadialMetric(
        link=link, grid=grid,
        a=np.ones(grid.N), b=cone_factor * grid.x,
        gamma=gamma, topology_tag=TWO_CONES,
    )


def sphere_suspension(link, N: int, radius: float = 1.0, p: float = 1.0) -> RadialMetric:
    """Round sphere of the given radius as a suspension over a unit-sphere link.

    a = 1, b = r sin(x/r) on [0, pi r]; both poles are smooth for a unit
    round link.
    """
    grid = RadialGrid.graded(N, np.pi * radius, p=p)
    return RadialMetric(
        link=link, grid=grid,
        a=np.ones(grid.N), b=radius * np.sin(grid.x / radius),
        gamma=2.0, topology_tag=CONE_AND_CAP,
    )


def perturbed_cone(link, grid: RadialGrid, amplitude: float,
                   exponent: float, cutoff: float | None = None) -> RadialMetric:
    """b = x (1 + amp * x^gamma * chi(x)), a = 1: perturbation order gamma.

    The optional smooth cutoff chi confines the perturbation to x < cutoff.
    """
    x = grid.x
    pert = amplitude * x**exponent
    if cutoff is not None:
        pert = pert * smooth_cutoff(x, 0.5 * cutoff, cutoff)
    return RadialMetric(
        link=link, grid=grid,
        a=np.ones(grid.N), b=x * (1.0 + pert),
        gamma=exponent, topology_tag=TWO_CONES,
    )


def smooth_cutoff(x: np.ndarray, x_on: float, x_off: float) -> np.ndarray:
    """C^1 taper: 1 for x <= x_on, 0 for x >= x_off, cos^2 ramp between."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - x_on) / (x_off - x_on), 0.0, 1.0)
    return np.cos(0.5 * np.pi * t) ** 2


def metric_from_csv(link, path: str, gamma: float = 1.0,
                    topology_tag: str = TWO_CONES) -> RadialMetric:
    """Sampled metric from a CSV file with header columns x, a, b."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    grid = RadialGrid(x=np.asarray(data["x"], dtype=float),
                      L=float(data["x"][-1]), p=1.0)
    return RadialMetric(link=link, grid=grid,
                        a=np.asarray(data["a"], dtype=float),
                        b=np.asarray(data["b"], dtype=float),
                        gamma=gamma, topology_tag=topology_tag)


def perturb_metric(metric: RadialMetric, h_rad, h_link, eps: float) -> RadialMetric:
    """g + eps h for a radial 2-tensor h = h_rad dx^2 + h_link b^2 g_F."""
    h_rad = _as_values(h_rad)
    h_link = _as_values(h_link)
    a_new = np.sqrt(metric.a**2 + eps * h_rad)
    b_new = metric.b * np.sqrt(1.0 + eps * h_link)
    return replace(metric, a=a_new, b=b_new)


def lie_derivative_tensor(metric: RadialMetric, xi) -> tuple[np.ndarray, np.ndarray]:
    """(h_rad, h_link) of the Lie derivative of g along X = xi(x) d/dx."""
    xi = _as_values(xi)
    a, b = metric.a, metric.b
    h_rad = 2.0 * a * metric.grid.d1(a * xi)
    h_link = 2.0 * (metric.jet[1] / np.where(b > 0, b, 1.0)) * xi
    return h_rad, h_link
