"""Modified Bessel functions, the exact-cone heat kernel, and its mapping
diagnostics."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ive, jv

from conelab import geometry, link as linkmod
from conelab.geometry import RadialGrid
from conelab.heat import (
    bessel_i,
    classify_tip_behavior,
    cone_kernel_mode,
    heat_apply,
    heat_convolve,
    kernel_mass,
    mapping_exponent_report,
    nu_from_mode,
    s1_plane_kernel_error,
)


class TestBesselI:
    def test_half_integer_closed_form(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
        exact = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert abs(bessel_i(0.5, 1.0) - exact) < 1e-14

    def test_spot_value(self):
        assert abs(bessel_i(1.0, 2.0) - float(mpmath.besseli(1, 2))) < 1e-14

    def test_against_scipy_across_branches(self):
        rng = np.random.default_rng(0)
        for nu in (0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 15.5, 40.0):
            z = np.concatenate([rng.uniform(0.0, 30.0, 40),
                                rng.uniform(30.0, 200.0, 40),
                                rng.uniform(200.0, 5000.0, 20)])
            rel = np.abs(bessel_i(nu, z, scaled=True) - ive(nu, z)) / ive(nu, z)
            assert np.max(rel) < 1e-12

    def test_against_mpmath_high_order(self):
        for nu in (12.0, 25.5):
            for z in (40.0, 120.0, 800.0):
                exact = float(mpmath.besseli(nu, z) * mpmath.exp(-z))
                assert abs(bessel_i(nu, z, scaled=True) - exact) < 1e-12 * exact

    def test_branch_boundary_continuity(self):
        for nu in (0.0, 1.0, 3.5, 12.0):
            lo = bessel_i(nu, 30.0 - 1e-9, scaled=True)
            hi = bessel_i(nu, 30.0 + 1e-9, scaled=True)
            assert abs(hi - lo) < 1e-9 * lo

    def test_zero_argument(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(2.0, 0.0) == 0.0

    def test_scaled_variant_survives_overflow_range(self):
        val = bessel_i(1.0, 50000.0, scaled=True)
        assert np.isfinite(val) and val > 0
        assert np.isinf(bessel_i(1.0, 50000.0, scaled=False))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_i(1.0, -1.0)


class TestConeKernel:
    def test_plane_equality_over_s1(self):
        """Mode sum over the unit-circle link reproduces the planar Gaussian
        (the cone over S^1 is the Euclidean plane)."""
        rng = np.random.default_rng(42)
        ns = 100
        t = np.exp(rng.uniform(math.log(0.01), 0.0, ns))
        x = rng.uniform(0.1, 2.0, ns)
        y = rng.uniform(0.1, 2.0, ns)
        dth = rng.uniform(-math.pi, math.pi, ns)
        start = time.time()
        err = s1_plane_kernel_error(t, x, y, dth)
        elapsed = time.time() - start
        assert err < 1e-8
        assert elapsed < 2.0

    def test_mode0_matches_sphere_average_of_r4_gaussian(self):
        """Independent quadrature oracle: the radial mode-0 kernel is the
        S^3 average of the 4-dimensional Euclidean Gaussian."""
        rng = np.random.default_rng(7)
        t = np.exp(rng.uniform(math.log(0.01), 0.0, 50))
        x = rng.uniform(0.1, 2.0, 50)
        y = rng.uniform(0.1, 2.0, 50)
        for ti, xi, yi in zip(t, x, y):
            integrand = lambda th: (math.exp(-(xi * xi + yi * yi
                                               - 2 * xi * yi * math.cos(th))
                                             / (4 * ti))
                                    * 4 * math.pi * math.sin(th) ** 2)
            val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12)
            oracle = val / (4 * math.pi * ti) ** 2
            mine = cone_kernel_mode(3, 1.0, ti, xi, yi)
            assert abs(mine - oracle) < 1e-6 * abs(oracle)

    def test_mass_conservation(self):
        assert abs(kernel_mass(3, 0.01, 1.0) - 1.0) < 1e-8
        assert abs(kernel_mass(3, 0.05, 0.3) - 1.0) < 1e-8

    def test_symmetry(self):
        a = cone_kernel_mode(3, 1.0, 0.05, 0.7, 1.3)
        b = cone_kernel_mode(3, 1.0, 0.05, 1.3, 0.7)
        assert a == b

    def test_overflow_scaling_flag(self):
        # z = x y / 2t = 5e5 is far past the unscaled range; the kernel is
        # always assembled from the scaled Bessel function
        val = cone_kernel_mode(3, 1.0, 1e-6, 1.0, 1.0)
        assert np.isfinite(val)

    def test_time_validation(self):
        with pytest.raises(ValueError):
            cone_kernel_mode(3, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cone_kernel_mode(3, 1.0, np.array([0.05, 0.0]), 1.0, 1.0)
        # an array of times broadcasts against x and x_tilde entry by entry
        t = np.array([0.01, 0.05, 0.3])
        x = np.array([0.4, 1.1, 1.9])
        batch = cone_kernel_mode(3, 1.0, t, x, 0.8)
        single = [cone_kernel_mode(3, 1.0, ti, xi, 0.8) for ti, xi in zip(t, x)]
        assert np.allclose(batch, single, rtol=1e-14, atol=0.0)

    def test_indicial_order_from_mode(self, s3):
        assert nu_from_mode(3, 0.0) == 1.0
        assert nu_from_mode(3, 3.0) == 2.0


class TestHeatApply:
    def test_semigroup_property(self, s3):
        grid = RadialGrid.graded(400, 3.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.8) / 0.15) ** 2)
        a1 = heat_apply(s3, 0.004, u0, grid)
        a12 = heat_apply(s3, 0.006, a1.values, grid).values
        direct = heat_apply(s3, 0.010, u0, grid).values
        assert np.max(np.abs(a12 - direct)) < 1e-6 * np.max(np.abs(direct))

    def test_short_time_approximate_identity(self, s3):
        grid = RadialGrid.graded(400, 3.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.8) / 0.15) ** 2)
        out = heat_apply(s3, 1e-5, u0, grid).values
        assert np.max(np.abs(out - u0(grid.x))) < 2e-3 * np.max(u0(grid.x))

    def test_spectral_decay_rate(self, s3):
        """On a Dirichlet-truncated cone the separated eigenfunction
        x^{-1} J_1(sqrt(sigma) x) decays like e^{-sigma t} under the kernel,
        up to outer-boundary leakage (kept below the 2 percent check)."""
        L = 5.0
        j11 = brentq(lambda z: jv(1.0, z), 3.0, 4.5)
        sigma1 = (j11 / L) ** 2
        grid = RadialGrid.graded(500, L, p=1.0)
        phi = lambda y: jv(1.0, math.sqrt(sigma1) * y) / np.maximum(y, 1e-300)
        ph0 = phi(grid.x)
        sel = (grid.x > 0.3) & (grid.x < 2.5)
        for t in (0.1, 0.5, 1.0):
            ht = heat_apply(s3, t, phi, grid).values
            ratio = np.mean(ht[sel] / ph0[sel])
            assert abs(ratio / math.exp(-sigma1 * t) - 1.0) < 0.02

    def test_positivity(self, s3):
        grid = RadialGrid.graded(300, 2.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.5) / 0.1) ** 2)
        assert np.all(heat_apply(s3, 0.01, u0, grid).values > 0)

    def test_outer_mass_warning(self, s3):
        grid = RadialGrid.graded(200, 1.0, p=1.0)
        with pytest.warns(UserWarning, match="truncation"):
            heat_apply(s3, 0.01, np.ones(200), grid)


class TestTipClassification:
    def test_three_models_separate(self):
        x = np.geomspace(0.01, 0.1, 60)
        assert classify_tip_behavior(x, 3.0 + 0.5 * x**-1.0)["kind"] == "power"
        assert classify_tip_behavior(x, 1.0 - 2.0 * np.log(x))["kind"] == "log"
        assert classify_tip_behavior(x, 2.0 + x**1.5)["kind"] == "bounded"

    def test_power_exponent_recovered(self):
        x = np.geomspace(0.01, 0.1, 60)
        out = classify_tip_behavior(x, 3.0 + 0.5 * x**-0.5)
        assert out["kind"] == "power"
        assert abs(out["slope"] + 0.5) < 1e-3


class TestMappingReport:
    # the full table lives in the acceptance suite; here one interior row
    # plus the input contract
    def test_interior_row(self, s3):
        rep = mapping_exponent_report(s3, 2.5)
        assert rep["spatial"]["kind"] == "power"
        assert abs(rep["spatial"]["slope"] - (-0.5)) <= 0.1
        assert rep["temporal_slope"] <= -1.25 + 0.15
        assert rep["pass"]

    def test_exponent_range_enforced(self, s3):
        with pytest.raises(ValueError):
            mapping_exponent_report(s3, 4.0)
        with pytest.raises(ValueError):
            mapping_exponent_report(s3, 0.0)


def test_heat_convolve_resolvent_identity(s3):
    """Convolving e^{-sigma t}-decaying data sums the semigroup: against the
    mode-0 Dirichlet eigenfunction the time integral has the closed form
    (1 - e^{-sigma T})/sigma."""
    L = 5.0
    j11 = brentq(lambda z: jv(1.0, z), 3.0, 4.5)
    sigma1 = (j11 / L) ** 2
    grid = RadialGrid.graded(400, L, p=1.0)
    phi = lambda y: jv(1.0, math.sqrt(sigma1) * y) / np.maximum(y, 1e-300)
    T = 0.5
    conv = heat_convolve(s3, T, phi, grid).values
    expect = (1.0 - math.exp(-sigma1 * T)) / sigma1
    sel = (grid.x > 0.3) & (grid.x < 2.0)
    ratio = np.mean(conv[sel] / phi(grid.x)[sel])
    assert abs(ratio - expect) < 0.02 * expect

