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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# width of the interpolation stencil; 7 points keep the curvature error far
# below the flow fixed-point drift tolerance at moderate N
STENCIL = 7
# fewest nodes a radial grid from the command line or a metric file may have
MIN_NODES = 16


class ConelabError(Exception):
    """Base of the solver and configuration errors conelab raises."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def fornberg_weights(xs: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights of the m-th derivative, m <= 2, at x0 on xs.

    Fornberg's recursion (Math. Comp. 51, 1988), run column by column on
    Python floats: w0, w1 and w2 hold the order-0, 1 and 2 weights of every
    node, and each weight takes the same IEEE operations in the same order
    as on numpy scalars, at a fraction of the per-operation cost.
    """
    if m not in (0, 1, 2):
        raise ValueError("derivative order m must be nonnegative, at most 2")
    xs = np.asarray(xs, dtype=float).tolist()
    x0 = float(x0)
    npts = len(xs)
    w0, w1, w2 = w = [[0.0] * npts, [0.0] * npts, [0.0] * npts]
    w0[0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    try:
        for i in range(1, npts):
            c2 = 1.0
            c5 = c4
            xi = xs[i]
            c4 = xi - x0
            for j in range(i - 1):
                c3 = xi - xs[j]
                c2 *= c3
                a, b = w0[j], w1[j]
                w2[j] = (c4 * w2[j] - 2.0 * b) / c3
                w1[j] = (c4 * b - a) / c3
                w0[j] = c4 * a / c3
            # the step j = i - 1 also starts row i from node j's weights
            j = i - 1
            c3 = xi - xs[j]
            c2 *= c3
            a, b = w0[j], w1[j]
            if i >= 2:
                c = w2[j]
                w2[i] = c1 * (2.0 * b - c5 * c) / c2
                w2[j] = (c4 * c - 2.0 * b) / c3
            w1[i] = c1 * (a - c5 * b) / c2
            w1[j] = (c4 * b - a) / c3
            w0[i] = -c1 * c5 * a / c2
            w0[j] = c4 * a / c3
            c1 = c2
    except ZeroDivisionError:
        # the product of node gaps underflowed to zero
        raise ValueError("stencil nodes too close together for "
                         "finite-difference weights") from None
    return np.array(w[m])


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Positive nodes x_1 < ... < x_N = L, strictly increasing; read-only."""

    x: np.ndarray

    def __post_init__(self):
        x = _read_only(np.array(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("grid nodes must be a non-empty 1-D array")
        if not (np.all(np.isfinite(x)) and x[0] > 0 and np.all(np.diff(x) > 0)):
            raise ValueError("grid nodes must be finite, strictly increasing "
                             "and positive")

    @classmethod
    def graded(cls, N: int, L: float, p: float = 2.0) -> "RadialGrid":
        """x_i = L (i/N)^p: clustered at the tip for p > 1."""
        i = np.arange(1, N + 1, dtype=float)
        return cls(x=L * (i / N) ** p)

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def L(self) -> float:
        return float(self.x[-1])

    @cached_property
    def _stencils(self):
        # (N, w) node indices of each node's stencil window, and the (d1, d2)
        # weights on it
        N, w = self.N, min(STENCIL, self.N)
        starts = np.clip(np.arange(N) - w // 2, 0, N - w)
        w1 = np.empty((N, w))
        w2 = np.empty((N, w))
        for i, j in enumerate(starts):
            xs = self.x[j : j + w]
            w1[i] = fornberg_weights(xs, self.x[i], 1)
            w2[i] = fornberg_weights(xs, self.x[i], 2)
        return starts[:, None] + np.arange(w)[None, :], w1, w2

    @cached_property
    def _d3(self) -> np.ndarray:
        """(3, N) weights of the 3-point second difference: column i weighs
        u[i-1], u[i], u[i+1]; the end columns, with no centred stencil, are 0."""
        hm, hp = np.diff(self.x)[:-1], np.diff(self.x)[1:]
        w = np.zeros((3, self.N))
        w[:, 1:-1] = 2.0 / np.array([hm * (hm + hp), -hm * hp, hp * (hm + hp)])
        return _read_only(w)

    def _apply(self, u, weights):
        return np.einsum("ij,ij->i", weights,
                         np.asarray(u, dtype=float)[self._stencils[0]])

    def d1(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, self._stencils[1])

    def d2(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, self._stencils[2])


@dataclass(frozen=True, eq=False)
class RadialMetric:
    """g = a(x)^2 dx^2 + b(x)^2 g_F on a radial grid over an Einstein link.

    a and b are read-only copies, so data derived from the metric (the
    jet, the curvature, the lambda problem) is computed once per object.
    """

    link: "LinkData"
    grid: RadialGrid
    a: np.ndarray
    b: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a = _read_only(np.array(self.a, dtype=float))
        b = _read_only(np.array(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != self.grid.N or len(b) != self.grid.N:
            raise ValueError("coefficient fields must match the grid")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("a and b must be finite")
        if (a <= 0).any():
            raise ValueError("a must be positive")
        if (b < 0).any() or (b[:-1] <= 0).any():
            raise ValueError("b must be positive (b = 0 allowed only at the cap)")

    def _with_fields(self, a: np.ndarray, b: np.ndarray) -> "RadialMetric":
        """This metric's grid and link with new fields a and b, unchecked.

        For a caller that has checked a and b itself and hands them over:
        they are made read-only in place rather than copied.
        """
        new = object.__new__(RadialMetric)
        for name, val in (("link", self.link), ("grid", self.grid),
                          ("a", _read_only(a)), ("b", _read_only(b)),
                          ("_memo", {})):
            object.__setattr__(new, name, val)
        return new

    @property
    def m(self) -> int:
        """Total dimension of the conical manifold."""
        return self.link.n + 1

    @cached_property
    def has_cap(self) -> bool:
        """Whether b closes off at the last node, the pole of a smooth cap."""
        return bool(self.b[-1] < 1e-2 * self.b.max())

    def derived(self, build):
        """build(self), computed on the first request and memoized."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    @cached_property
    def jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid derivatives (a', b', b'') of the coefficients."""
        g = self.grid
        return tuple(_read_only(d(u)) for d, u in
                     ((g.d1, self.a), (g.d1, self.b), (g.d2, self.b)))


# -- curvature ----------------------------------------------------------------

def _pole_takes_neighbour(metric: RadialMetric, *fields) -> None:
    """Give the pole node of a capped metric its neighbour's value.

    b may vanish only there, so quotients by b at that node are 0/0 at
    roundoff; every other quotient by b is taken as it is.
    """
    if metric.has_cap:
        for u in fields:
            u[-1] = u[-2]


def warped_ricci(metric: RadialMetric) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal-frame Ricci components (radial-radial, link-diagonal)."""
    return metric.derived(_ricci_pair)


def _ricci_pair(metric: RadialMetric) -> tuple[np.ndarray, np.ndarray]:
    n = metric.link.n
    a, b = metric.a, metric.b
    da, db, d2b = metric.jet
    kappa = metric.link.scal_F / (n * (n - 1)) if n > 1 else 0.0
    Db = db / a
    D2b = (d2b - db * da / a) / a**2
    safe_b = np.where(b > 0, b, 1.0)
    ric_rad = -n * D2b / safe_b
    if n > 1:
        ric_link = -D2b / safe_b + (n - 1) * (kappa - Db**2) / safe_b**2
    else:
        ric_link = -D2b / safe_b
    _pole_takes_neighbour(metric, ric_rad, ric_link)
    return _read_only(ric_rad), _read_only(ric_link)


def warped_scal(metric: RadialMetric) -> np.ndarray:
    """Scalar curvature scal = Ric_rad + n * Ric_link (exact trace identity)."""
    ric_rad, ric_link = warped_ricci(metric)
    return ric_rad + metric.link.n * ric_link


# -- measures ------------------------------------------------------------------

def volume_form(metric: RadialMetric) -> np.ndarray:
    """Quadrature weights w_i with sum(w * u) ~ integral of u dV_g.

    Trapezoidal rule in x with density a b^n vol_F; the cell touching x = 0
    is integrated assuming the density grows like x^n there.
    """
    n = metric.link.n
    g = metric.grid
    dens = metric.a * metric.b**n * metric.link.vol_F
    cells = np.zeros(g.N)
    dx = np.diff(g.x)
    cells[:-1] += 0.5 * dx
    cells[1:] += 0.5 * dx
    w = dens * cells
    # tip cell [0, x_1]: integral of c x^n with c matched at x_1
    w[0] += dens[0] * g.x[0] / (n + 1)
    return w


def radial_hessian(f, metric: RadialMetric) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Hessian components of a radial function.

    hess_rad = D(Df), hess_link = (Db/b) Df; the trace is the (geometer's
    negative) Laplacian of f.
    """
    a, b, g = metric.a, metric.b, metric.grid
    da, db, _ = metric.jet
    df = g.d1(f)
    Df = df / a
    hess_rad = (g.d2(f) - df * da / a) / a**2
    Db = db / a
    hess_link = (Db / np.where(b > 0, b, 1.0)) * Df
    _pole_takes_neighbour(metric, hess_link)
    return hess_rad, hess_link


# -- presets -------------------------------------------------------------------

def flat_cone(link, grid: RadialGrid, cone_factor: float = 1.0) -> RadialMetric:
    """Exact cone b = c x, a = 1 over the link."""
    return RadialMetric(
        link=link, grid=grid,
        a=np.ones(grid.N), b=cone_factor * grid.x,
    )


def sphere_suspension(link, N: int, radius: float = 1.0, p: float = 1.0) -> RadialMetric:
    """Round sphere of the given radius as a suspension over a unit-sphere link.

    a = 1, b = r sin(x/r) on [0, pi r]; both poles are smooth for a unit
    round link.  At the pole x = pi r the sine may round to a tiny negative
    number, which is clipped to 0.
    """
    grid = RadialGrid.graded(N, np.pi * radius, p=p)
    b = radius * np.sin(grid.x / radius)
    b[-1] = max(b[-1], 0.0)
    return RadialMetric(link=link, grid=grid, a=np.ones(grid.N), b=b)


def perturbed_cone(link, grid: RadialGrid, amplitude: float,
                   exponent: float, cutoff: float | None = None,
                   cone_factor: float = 1.0) -> RadialMetric:
    """b = c x (1 + amp * x^gamma * chi(x)), a = 1: perturbation order gamma.

    The optional smooth cutoff chi confines the perturbation to x < cutoff.
    """
    x = grid.x
    pert = amplitude * x**exponent
    if cutoff is not None:
        pert = pert * smooth_cutoff(x, 0.5 * cutoff, cutoff)
    return RadialMetric(
        link=link, grid=grid,
        a=np.ones(grid.N), b=cone_factor * x * (1.0 + pert),
    )


def smooth_cutoff(x: np.ndarray, x_on: float, x_off: float) -> np.ndarray:
    """C^1 taper: 1 for x <= x_on, 0 for x >= x_off, cos^2 ramp between."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - x_on) / (x_off - x_on), 0.0, 1.0)
    return np.cos(0.5 * np.pi * t) ** 2


def metric_from_csv(link, path: str) -> RadialMetric:
    """Sampled metric from a CSV file with header columns x, a, b."""
    try:
        data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        x = np.asarray(data["x"], dtype=float)
        if x.size < MIN_NODES:
            raise ValueError(f"{x.size} rows, need at least {MIN_NODES}")
        return RadialMetric(link=link, grid=RadialGrid(x=x),
                            a=np.asarray(data["a"], dtype=float),
                            b=np.asarray(data["b"], dtype=float))
    except ValueError as exc:
        raise ValueError(f"metric file {path}: {exc}") from None
