"""Warped-product curvature, volume measures, and weighted norms."""

import math

import numpy as np
import pytest
import sympy as sp

from conelab import geometry, link as linkmod
from conelab.geometry import (
    RadialGrid,
    RadialMetric,
    flat_cone,
    laplacian,
    lie_derivative_tensor,
    metric_from_csv,
    perturb_metric,
    perturbed_cone,
    radial_hessian,
    smooth_cutoff,
    sphere_suspension,
    total_volume,
    volume_form,
    warped_ricci,
    warped_scal,
    weighted_sobolev_norm,
    weighted_sup_norm,
)


def test_graded_grid_construction():
    g = RadialGrid.graded(100, 2.0, p=2.0)
    assert g.N == 100
    assert g.x[0] > 0
    assert abs(g.x[-1] - 2.0) < 1e-14
    assert np.all(np.diff(g.x) > 0)
    with pytest.raises(ValueError):
        RadialGrid(x=np.array([0.0, 1.0]), L=1.0)
    with pytest.raises(ValueError):
        RadialGrid(x=np.array([0.5, 0.4]), L=1.0)


def test_metric_validation(s3):
    g = RadialGrid.graded(50, 1.0)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.zeros(50), b=g.x)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.ones(50), b=-g.x)
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.ones(49), b=g.x[:-1])
    with pytest.raises(ValueError):
        RadialMetric(link=s3, grid=g, a=np.ones(50), b=g.x, gamma=0.0)


def test_metric_and_grid_are_read_only(s3):
    x = np.linspace(0.02, 1.0, 50)
    a = np.ones(50)
    g = RadialGrid(x=x, L=1.0)
    met = RadialMetric(link=s3, grid=g, a=a, b=x)
    with pytest.raises(ValueError):
        met.a[0] = 2.0
    with pytest.raises(ValueError):
        met.b[0] = 2.0
    with pytest.raises(ValueError):
        g.x[0] = 0.01
    with pytest.raises(ValueError):
        warped_ricci(met)[0].values[0] = 0.0
    # the metric keeps copies: the caller's arrays stay writable and
    # writing to them leaves the metric and its derived data unchanged
    ric = warped_ricci(met)[1].values.copy()
    a[0] = 2.0
    x[0] = 0.01
    assert met.a[0] == 1.0 and g.x[0] == 0.02
    assert np.array_equal(warped_ricci(met)[1].values, ric)


class TestCurvature:
    def test_round_s4_is_einstein(self, s3):
        met = sphere_suspension(s3, 800, radius=1.0, p=1.0)
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        inner = slice(10, -10)
        assert np.max(np.abs(rr.values[inner] - 3.0)) < 1e-6
        assert np.max(np.abs(rl.values[inner] - 3.0)) < 1e-6
        assert np.max(np.abs(sc.values[inner] - 12.0)) < 1e-5

    def test_flat_cone_curvature_vanishes_to_roundoff(self, s3):
        # 1/h^2 roundoff amplification sets the floor; at this resolution
        # the interior residual sits below 1e-10
        g = RadialGrid.graded(64, 1.0, p=1.0)
        met = flat_cone(s3, g)
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        inner = slice(4, -4)
        assert np.max(np.abs(rr.values[inner])) < 1e-10
        assert np.max(np.abs(rl.values[inner])) < 1e-10
        assert np.max(np.abs(sc.values[inner])) < 1e-10

    def test_flat_cone_any_einstein_link(self):
        s2 = linkmod.sphere_link(2, 4)
        g = RadialGrid.graded(64, 1.0, p=1.0)
        sc = warped_scal(flat_cone(s2, g))
        assert np.max(np.abs(sc.values[4:-4])) < 1e-9

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
                           b=grid.x * (1 + grid.x**2), gamma=2.0)
        rr, rl = warped_ricci(met)
        sc = warped_scal(met)
        sel = slice(20, -20)
        for mine, oracle in ((rr.values, fr(grid.x)), (rl.values, fl(grid.x)),
                             (sc.values, fs(grid.x))):
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
        scale = np.max(np.abs(sc.values))
        assert np.max(np.abs(sc.values - (rr.values + 3 * rl.values))) \
            <= 1e-8 * scale

    def test_scaling_covariance(self, s3):
        met = sphere_suspension(s3, 400, radius=1.0, p=2.0)
        sc = warped_scal(met).values
        sc4 = warped_scal(met.scaled(4.0)).values
        assert np.max(np.abs(4.0 * sc4 - sc)) < 1e-10
        rr, rl = warped_ricci(met)
        rr4, rl4 = warped_ricci(met.scaled(4.0))
        assert np.max(np.abs(4.0 * rr4.values - rr.values)) < 1e-10
        assert np.max(np.abs(4.0 * rl4.values - rl.values)) < 1e-10


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
        assert abs(total_volume(met.scaled(4.0)) - 2**4 * total_volume(met)) \
            < 1e-10 * total_volume(met)

    def test_weights_positive(self, s3):
        g = RadialGrid.graded(200, 1.0, p=2.0)
        assert np.all(volume_form(flat_cone(s3, g)) > 0)


class TestWeightedNorms:
    def test_sup_norm_exact_powers(self):
        g = RadialGrid(x=np.concatenate([[1e-3], np.linspace(0.01, 1.0, 99)]),
                       L=1.0, p=1.0)
        assert abs(weighted_sup_norm(g.x**2, g, 2.0) - 1.0) < 1e-12
        assert abs(weighted_sup_norm(g.x**2, g, 3.0) - 1e3) < 1e-9

    def test_sup_norm_taylor_limit(self):
        # x sin(x) against weight x^2 approaches 1 on shrinking domains
        prev = 0.0
        for L in (0.5, 0.1, 0.02):
            g = RadialGrid.graded(200, L, p=1.0)
            val = weighted_sup_norm(np.sin(g.x) * g.x, g, 2.0)
            assert val > prev
            prev = val
        assert abs(prev - 1.0) < 1e-4

    def test_sobolev_constant(self, s3):
        met = sphere_suspension(s3, 500, radius=1.0, p=2.0)
        norm = weighted_sobolev_norm(np.ones(500), met, 0, 0.0)
        assert abs(norm - math.sqrt(total_volume(met))) < 1e-12

    def test_sobolev_cone_closed_form(self, s3):
        # u = x on the exact cone, s = 1, delta = 1: both terms reduce to
        # the L2 norm of the constant 1
        g = RadialGrid.graded(500, 1.0, p=2.0)
        met = flat_cone(s3, g)
        norm = weighted_sobolev_norm(g.x, met, 1, 1.0)
        assert abs(norm - 2.0 * math.sqrt(total_volume(met))) < 1e-10

    def test_norm_equivalence_under_order_one_perturbation(self, s3):
        g = RadialGrid.graded(500, 1.0, p=2.0)
        met = flat_cone(s3, g)
        pert = perturbed_cone(s3, g, amplitude=0.5, exponent=1.0)
        u = np.sin(3 * g.x) * g.x**2
        ratio = (weighted_sobolev_norm(u, pert, 2, 2.0)
                 / weighted_sobolev_norm(u, met, 2, 2.0))
        assert 0.5 <= ratio <= 2.0

    def test_sobolev_rejects_high_order(self, s3):
        g = RadialGrid.graded(50, 1.0)
        with pytest.raises(ValueError):
            weighted_sobolev_norm(g.x, flat_cone(s3, g), 3, 0.0)


class TestHessian:
    def test_constant_function(self, s3):
        g = RadialGrid.graded(200, 1.0, p=1.0)
        hr, hl = radial_hessian(np.ones(200), flat_cone(s3, g))
        assert np.max(np.abs(hr.values)) < 1e-9
        assert np.max(np.abs(hl.values)) < 1e-9

    def test_euclidean_identity_hessian(self, s3):
        g = RadialGrid.graded(500, 1.0, p=2.0)
        hr, hl = radial_hessian(g.x**2 / 2.0, flat_cone(s3, g))
        assert np.max(np.abs(hr.values - 1.0)) < 1e-8
        assert np.max(np.abs(hl.values - 1.0)) < 1e-8

    def test_trace_is_laplacian(self, s3):
        g = RadialGrid.graded(300, 1.0, p=2.0)
        met = flat_cone(s3, g)
        f = np.cos(2 * g.x) + g.x
        hr, hl = radial_hessian(f, met)
        lap = laplacian(f, met)
        assert np.max(np.abs(lap.values - (hr.values + 3 * hl.values))) \
            < 1e-12 * max(1.0, np.max(np.abs(lap.values)))


def test_smooth_cutoff_shape():
    x = np.linspace(0.0, 1.0, 200)
    chi = smooth_cutoff(x, 0.3, 0.6)
    assert np.all(chi[x <= 0.3] == 1.0)
    assert np.all(chi[x >= 0.6] < 1e-30)
    assert np.all(np.diff(chi) <= 1e-12)


def test_perturbed_cone_profile(s3):
    g = RadialGrid.graded(300, 1.0, p=2.0)
    met = perturbed_cone(s3, g, amplitude=0.1, exponent=2.0, cutoff=0.5)
    assert met.gamma == 2.0
    # perturbation confined below the cutoff and of the right order at tip
    assert np.max(np.abs(met.b[g.x >= 0.5] - g.x[g.x >= 0.5])) < 1e-14
    dev = met.b / g.x - 1.0
    sel = g.x < 0.2
    assert np.max(np.abs(dev[sel] - 0.1 * g.x[sel] ** 2)) < 1e-14


def test_metric_from_csv_round_trip(tmp_path, s3):
    g = RadialGrid.graded(50, 1.0, p=1.0)
    met = perturbed_cone(s3, g, amplitude=0.05, exponent=2.0)
    path = tmp_path / "metric.csv"
    rows = ["x,a,b"] + [f"{x:.17g},{a:.17g},{b:.17g}"
                        for x, a, b in zip(g.x, met.a, met.b)]
    path.write_text("\n".join(rows) + "\n")
    loaded = metric_from_csv(s3, str(path), gamma=2.0)
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
