"""Warped-product curvature and volume measures."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from conelab import entropy, flow, geometry, link as linkmod
from conelab.geometry import (
    RadialGrid,
    RadialMetric,
    flat_cone,
    metric_from_csv,
    perturbed_cone,
    radial_hessian,
    smooth_cutoff,
    sphere_suspension,
    volume_form,
    warped_ricci,
    warped_scal,
)

from conftest import (lie_derivative_tensor, perturb_metric, scaled,
                      total_volume)


def test_graded_grid_construction():
    g = RadialGrid.graded(100, 2.0, p=2.0)
    assert g.N == 100
    assert g.x[0] > 0
    assert abs(g.x[-1] - 2.0) < 1e-14
    assert np.all(np.diff(g.x) > 0)
    with pytest.raises(ValueError):
        RadialGrid(x=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(x=np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="finite"):
        RadialGrid(x=np.array([0.5, np.nan, 0.7]))
    for x in (np.array([]), np.array(0.5), np.ones((2, 2))):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            RadialGrid(x=x)


def _fornberg_on_numpy_scalars(xs, x0, m):
    # the recursion as written on numpy scalars: the bitwise reference
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


@pytest.mark.parametrize("where", ["tip", "interior", "outer"])
def test_fornberg_weights_are_exact_on_polynomials(where):
    # 7-node windows of a p = 2 graded grid: one-sided at the tip, centered
    # in the interior, one-sided at the outer end
    x = RadialGrid.graded(40, 1.0, p=2.0).x
    xs, x0 = {"tip": (x[:7], x[0]), "interior": (x[17:24], x[20]),
              "outer": (x[-7:], x[-1])}[where]
    for m in range(3):
        w = geometry.fornberg_weights(xs, x0, m)
        assert isinstance(w, np.ndarray) and w.dtype == float
        assert w.shape == (len(xs),)
        assert np.array_equal(w, _fornberg_on_numpy_scalars(xs, x0, m))
        for k in range(7):
            exact = math.perm(k, m) * x0 ** (k - m) if k >= m else 0.0
            terms = w * xs**k
            # scaled by the size of the sum, which does not vanish at an
            # exact zero derivative
            assert abs(terms.sum() - exact) <= 1e-8 * np.abs(terms).sum()


@pytest.mark.parametrize("p", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("N", [16, 250])
def test_fornberg_weights_match_numpy_scalars_on_whole_grids(N, p):
    # every node's window of a graded grid, as RadialGrid._stencils takes
    # it, and every order up to 2: equal bit for bit, sign of zero included
    x = RadialGrid.graded(N, 1.0, p=p).x
    starts = np.clip(np.arange(N) - geometry.STENCIL // 2, 0,
                     N - geometry.STENCIL)
    for i, j in enumerate(starts):
        xs = x[j : j + geometry.STENCIL]
        for m in range(3):
            w = geometry.fornberg_weights(xs, x[i], m)
            ref = _fornberg_on_numpy_scalars(xs, x[i], m)
            assert w.tobytes() == ref.tobytes()


def test_fornberg_weights_match_numpy_scalars_on_random_nodes():
    # 1 to 9 sorted nodes at scales 1e-8 to 1e8, x0 on a node or between
    # them, every order up to 2
    rng = np.random.default_rng(28)
    for _ in range(200):
        npts = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        xs = scale * np.sort(rng.uniform(-1.0, 1.0, npts))
        for x0 in (xs[rng.integers(npts)], scale * rng.uniform(-1.0, 1.0)):
            for m in range(3):
                w = geometry.fornberg_weights(xs, x0, m)
                ref = _fornberg_on_numpy_scalars(xs, x0, m)
                assert w.tobytes() == ref.tobytes()


def test_fornberg_weights_reject_a_negative_order():
    # and an order above 2, which no stencil asks for
    for m in (-1, 3):
        with pytest.raises(ValueError, match="nonnegative"):
            geometry.fornberg_weights(np.arange(1.0, 8.0), 4.0, m)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_fornberg_weights_reject_underflowing_node_gaps(m):
    # the product of six gaps of 1e-60 underflows to zero
    xs = 1e-60 * np.arange(1.0, 8.0)
    with pytest.raises(ValueError, match="too close together"):
        geometry.fornberg_weights(xs, xs[0], m)


def test_metric_validation(s3):
    g = RadialGrid.graded(50, 1.0)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.zeros(50), b=g.x)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.ones(50), b=-g.x)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.ones(49), b=g.x[:-1])
    with pytest.raises(ValueError, match="finite"):
        RadialMetric(link=s3, grid=g, a=np.where(g.x > 0.5, np.nan, 1.0),
                     b=g.x)
    with pytest.raises(ValueError, match="finite"):
        RadialMetric(link=s3, grid=g, a=np.ones(50),
                     b=np.where(g.x > 0.5, np.inf, g.x))


def test_metric_from_csv_rejects_nan_at_construction(tmp_path, s3):
    path = tmp_path / "metric.csv"
    rows = ["x,a,b"] + [f"{x:.17g},{'nan' if i == 10 else 1.0},{x:.17g}"
                        for i, x in enumerate(np.linspace(0.02, 1.0, 50))]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="a and b must be finite"):
        metric_from_csv(s3, str(path))


def test_curvature_and_hessian_are_plain_arrays(s3):
    met = sphere_suspension(s3, 100)
    fields = [*warped_ricci(met), warped_scal(met),
              *radial_hessian(met.grid.x**2, met)]
    assert all(type(f) is np.ndarray and f.shape == (100,) for f in fields)


def test_metric_and_grid_are_read_only(s3):
    x = np.linspace(0.02, 1.0, 50)
    a = np.ones(50)
    g = RadialGrid(x=x)
    met = RadialMetric(link=s3, grid=g, a=a, b=x)
    with pytest.raises(ValueError):
        met.a[0] = 2.0
    with pytest.raises(ValueError):
        met.b[0] = 2.0
    with pytest.raises(ValueError):
        g.x[0] = 0.01
    with pytest.raises(ValueError):
        warped_ricci(met)[0][0] = 0.0
    # the metric keeps copies: the caller's arrays stay writable and
    # writing to them leaves the metric and its derived data unchanged
    ric = warped_ricci(met)[1].copy()
    a[0] = 2.0
    x[0] = 0.01
    assert met.a[0] == 1.0 and g.x[0] == 0.02
    assert np.array_equal(warped_ricci(met)[1], ric)


class TestCurvature:
    def test_round_s4_is_einstein(self, s3):
        met = sphere_suspension(s3, 800, radius=1.0, p=1.0)
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        inner = slice(10, -10)
        assert np.max(np.abs(rr[inner] - 3.0)) < 1e-6
        assert np.max(np.abs(rl[inner] - 3.0)) < 1e-6
        assert np.max(np.abs(sc[inner] - 12.0)) < 1e-5
        # next to the cap the quotients by b are taken as they are, and the
        # pole node takes its neighbour's value
        assert np.max(np.abs(rr[-10:] - 3.0)) < 1e-8
        assert np.max(np.abs(rl[-10:] - 3.0)) < 1e-8
        assert met.has_cap

    def test_flat_cone_curvature_vanishes_to_roundoff(self, s3):
        # 1/h^2 roundoff amplification sets the floor; at this resolution
        # the interior residual sits below 1e-10
        g = RadialGrid.graded(64, 1.0, p=1.0)
        met = flat_cone(s3, g)
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        inner = slice(4, -4)
        assert np.max(np.abs(rr[inner])) < 1e-10
        assert np.max(np.abs(rl[inner])) < 1e-10
        assert np.max(np.abs(sc[inner])) < 1e-10

    @pytest.mark.parametrize("r", [0.7, 1.3])
    def test_s1_suspension_is_the_round_s2(self, r):
        # over the circle, where kappa is undefined and (n - 1) = 0, the one
        # formula gives Ric = 1/r^2 in both components, as on the round S^2
        met = sphere_suspension(linkmod.sphere_link(1, 4), 800, radius=r,
                                p=1.0)
        for ric in warped_ricci(met):
            assert np.max(np.abs(ric * r**2 - 1.0)) < 1e-6

    def test_flat_cone_any_einstein_link(self):
        s2 = linkmod.sphere_link(2, 4)
        g = RadialGrid.graded(64, 1.0, p=1.0)
        sc = warped_scal(flat_cone(s2, g))
        assert np.max(np.abs(sc[4:-4])) < 1e-9

    def test_symbolic_oracle_general_coefficients(self, s3):
        """Independent sympy evaluation of the warped curvature formulas."""
        n = 3
        xs = sp.symbols("x", positive=True)
        a_s = 1 + xs**2 / 4
        b_s = xs * (1 + xs**2)
        Db = sp.diff(b_s, xs) / a_s
        D2b = sp.diff(Db, xs) / a_s
        ric_rad_s = -n * D2b / b_s
        ric_link_s = -D2b / b_s + (n - 1) * (1 - Db**2) / b_s**2
        fr = sp.lambdify(xs, sp.simplify(ric_rad_s), "numpy")
        fl = sp.lambdify(xs, sp.simplify(ric_link_s), "numpy")
        fs = sp.lambdify(xs, sp.simplify(ric_rad_s + n * ric_link_s), "numpy")

        grid = RadialGrid.graded(1000, 1.0, p=2.0)
        met = RadialMetric(link=s3, grid=grid, a=1 + grid.x**2 / 4,
                           b=grid.x * (1 + grid.x**2))
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        sel = slice(20, -20)
        for mine, oracle in ((rr, fr(grid.x)), (rl, fl(grid.x)),
                             (sc, fs(grid.x))):
            rel = np.abs(mine[sel] - oracle[sel]) / np.maximum(
                np.abs(oracle[sel]), 1.0)
            assert np.max(rel) < 1e-6

    def test_trace_identity_random_smooth(self, s3):
        grid = RadialGrid.graded(500, 1.0, p=2.0)
        met = RadialMetric(link=s3, grid=grid,
                           a=1.0 + 0.3 * np.sin(2 * grid.x) + 0.1 * grid.x,
                           b=grid.x * (1.0 + 0.2 * np.cos(3 * grid.x) ** 2))
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        scale = np.max(np.abs(sc))
        assert np.max(np.abs(sc - (rr + 3 * rl))) \
            <= 1e-8 * scale

    def test_scaling_covariance(self, s3):
        met = sphere_suspension(s3, 400, radius=1.0, p=2.0)
        sc = warped_scal(met)
        sc4 = warped_scal(scaled(met, 4.0))
        assert np.max(np.abs(4.0 * sc4 - sc)) < 1e-10
        rr, rl = warped_ricci(met)
        rr4, rl4 = warped_ricci(scaled(met, 4.0))
        assert np.max(np.abs(4.0 * rr4 - rr)) < 1e-10
        assert np.max(np.abs(4.0 * rl4 - rl)) < 1e-10


class TestVolume:
    def test_round_s4_volume(self, s3, sphere_volume_exact):
        met = sphere_suspension(s3, 2000, radius=1.0, p=2.0)
        assert abs(total_volume(met) - sphere_volume_exact) \
            < 1e-4 * sphere_volume_exact

    def test_flat_cone_volume(self, s3):
        g = RadialGrid.graded(1000, 1.0, p=2.0)
        exact = linkmod.sphere_volume(3) / 4.0
        assert abs(total_volume(flat_cone(s3, g)) - exact) < 1e-4 * exact

    def test_doubling_reduces_error(self, s3, sphere_volume_exact):
        errs = [abs(total_volume(sphere_suspension(s3, N, radius=1.0, p=2.0))
                    - sphere_volume_exact) for N in (500, 1000)]
        assert errs[0] / errs[1] >= 3.5

    def test_volume_scaling(self, s3):
        met = sphere_suspension(s3, 300, radius=1.0, p=2.0)
        assert abs(total_volume(scaled(met, 4.0)) - 2**4 * total_volume(met)) \
            < 1e-10 * total_volume(met)

    def test_weights_positive(self, s3):
        g = RadialGrid.graded(200, 1.0, p=2.0)
        assert np.all(volume_form(flat_cone(s3, g)) > 0)


class TestHessian:
    def test_constant_function(self, s3):
        g = RadialGrid.graded(200, 1.0, p=1.0)
        hr, hl = radial_hessian(np.ones(200), flat_cone(s3, g))
        assert np.max(np.abs(hr)) < 1e-9
        assert np.max(np.abs(hl)) < 1e-9

    def test_euclidean_identity_hessian(self, s3):
        g = RadialGrid.graded(500, 1.0, p=2.0)
        hr, hl = radial_hessian(g.x**2 / 2.0, flat_cone(s3, g))
        assert np.max(np.abs(hr - 1.0)) < 1e-8
        assert np.max(np.abs(hl - 1.0)) < 1e-8


def test_exact_zero_of_b_at_the_cap(s3):
    # a cap whose pole value of b is exactly 0, as a metric file may give
    # it, runs every layer without a numpy warning
    base = sphere_suspension(s3, 400, radius=math.sqrt(3.0), p=1.0)
    b = base.b.copy()
    b[-1] = 0.0
    met = replace(base, b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rr, rl = warped_ricci(met)
        hr, hl = radial_hessian(np.cos(met.grid.x), met)
        for u in (rr, rl, hr, hl):
            assert np.all(np.isfinite(u))
        # the quotients by b at the pole node are its neighbour's
        for u in (rr, rl, hl):
            assert u[-1] == u[-2]
        w = flow.deturck_vector_field(scaled(met, 2.0), met)
        assert np.all(np.isfinite(w)) and w[-1] == w[-2]
        lam = entropy.compute_lambda(met).value
        assert abs(lam / entropy.compute_lambda(base).value - 1.0) < 1e-12
        cfg = flow.FlowConfig(t_end=0.002, normalization="shrink",
                              entropy_kind="mu_minus", samples=2)
        traj = flow.run_flow(met, cfg)
    assert len(traj) == 3
    assert all(np.isfinite(s.entropy_value) for s in traj)
    assert met.has_cap and not flat_cone(s3, base.grid).has_cap


def test_smooth_cutoff_shape():
    x = np.linspace(0.0, 1.0, 200)
    chi = smooth_cutoff(x, 0.3, 0.6)
    assert np.all(chi[x <= 0.3] == 1.0)
    assert np.all(chi[x >= 0.6] < 1e-30)
    assert np.all(np.diff(chi) <= 1e-12)


def test_sphere_suspension_builds_at_every_radius(s3):
    # r sin(x/r) rounds to a small negative number at the pole x = pi r
    # for some radii; the pole is clipped, every other node is as computed
    radii = np.concatenate([np.linspace(0.1, 10.0, 2000),
                            np.geomspace(1e-6, 1e6, 2000), [1e20]])
    for r in radii:
        met = sphere_suspension(s3, 16, radius=r)
        assert met.b[-1] >= 0.0 and met.has_cap
        assert np.array_equal(met.b[:-1], r * np.sin(met.grid.x[:-1] / r))


def test_perturbed_cone_profile(s3):
    g = RadialGrid.graded(300, 1.0, p=2.0)
    met = perturbed_cone(s3, g, amplitude=0.1, exponent=2.0, cutoff=0.5)
    # perturbation confined below the cutoff and of the right order at tip
    assert np.max(np.abs(met.b[g.x >= 0.5] - g.x[g.x >= 0.5])) < 1e-14
    dev = met.b / g.x - 1.0
    sel = g.x < 0.2
    assert np.max(np.abs(dev[sel] - 0.1 * g.x[sel] ** 2)) < 1e-14


def test_unperturbed_cone_is_the_flat_cone(s3):
    g = RadialGrid.graded(100, 2.0, p=1.0)
    met = perturbed_cone(s3, g, amplitude=0.0, exponent=2.0, cone_factor=0.9)
    cone = flat_cone(s3, g, cone_factor=0.9)
    assert np.array_equal(met.a, cone.a) and np.array_equal(met.b, cone.b)


def test_metric_from_csv_round_trip(tmp_path, s3):
    g = RadialGrid.graded(50, 1.0, p=1.0)
    met = perturbed_cone(s3, g, amplitude=0.05, exponent=2.0)
    path = tmp_path / "metric.csv"
    rows = ["x,a,b"] + [f"{x:.17g},{a:.17g},{b:.17g}"
                        for x, a, b in zip(g.x, met.a, met.b)]
    path.write_text("\n".join(rows) + "\n")
    loaded = metric_from_csv(s3, str(path))
    assert np.allclose(loaded.b, met.b, rtol=0, atol=0)
    assert loaded.grid.N == 50


def test_perturb_metric_consistency(s3):
    g = RadialGrid.graded(200, 1.0, p=2.0)
    met = flat_cone(s3, g)
    h_rad = 0.3 * np.sin(g.x)
    h_link = 0.2 * np.cos(g.x)
    out = perturb_metric(met, h_rad, h_link, 1e-6)
    # g + eps h in coefficient form: a^2 gains eps h_rad, b^2 a factor
    assert np.allclose(out.a**2, met.a**2 + 1e-6 * h_rad, rtol=1e-12)
    assert np.allclose(out.b**2, met.b**2 * (1 + 1e-6 * h_link), rtol=1e-12)


def test_lie_derivative_matches_flow_of_coefficients(s3):
    """(L_X g) against a finite-difference pullback along X = xi d/dx."""
    g = RadialGrid.graded(800, 1.0, p=1.0)
    met = perturbed_cone(s3, g, amplitude=0.1, exponent=2.0)
    xi = 0.1 * np.sin(math.pi * g.x) * g.x
    h_rad, h_link = lie_derivative_tensor(met, xi)
    # pullback of the coefficients under x -> x + eps xi(x)
    eps = 1e-6
    from scipy.interpolate import CubicSpline
    a_s = CubicSpline(g.x, met.a)
    b_s = CubicSpline(g.x, met.b)
    xs = g.x + eps * xi
    dxi = g.d1(xi)
    a_pull = a_s(xs) * (1.0 + eps * dxi)
    b_pull = b_s(xs)
    h_rad_fd = (a_pull**2 - met.a**2) / eps
    h_link_fd = (b_pull**2 - met.b**2) / (eps * met.b**2)
    inner = slice(5, -5)
    assert np.max(np.abs(h_rad[inner] - h_rad_fd[inner])) < 1e-4
    assert np.max(np.abs(h_link[inner] - h_link_fd[inner])) < 1e-4


@pytest.mark.parametrize("capped", [True, False])
def test_jet_equals_the_stencil_applications(s3, capped):
    if capped:
        met = sphere_suspension(s3, 300, p=2.0)
    else:
        met = perturbed_cone(s3, RadialGrid.graded(400, 2.0, p=1.0),
                             amplitude=0.01, exponent=2.0, cutoff=0.7)
    assert len(met.jet) == 3
    assert met.has_cap is capped
    assert replace(met).has_cap is capped


def test_grids_and_metrics_compare_by_identity(s3):
    g, h = RadialGrid.graded(20, 1.0), RadialGrid.graded(20, 1.0)
    assert (g == h) is False and g != h
    assert g == g
    met = flat_cone(s3, g)
    assert flat_cone(s3, g) != met
    assert len({g, h, met, met}) == 3
    assert hash(met) == hash(met)
