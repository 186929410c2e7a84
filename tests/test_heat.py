"""Modified Bessel functions, the exact-cone heat kernel, and its mapping
diagnostics."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import ive, jv, roots_jacobi

from conelab import geometry, heat, link as linkmod
from conelab.geometry import RadialGrid
from conelab.heat import (
    bessel_i,
    classify_tip_behavior,
    cone_kernel_mode,
    heat_apply,
    heat_convolve,
    heat_sup,
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
        # only the large-z entries (z > 30, 4 nu^2 <= z) are not ive itself
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

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.5, 12.0, 40.0, 400.0])
    def test_against_mpmath_where_ive_answers(self, nu):
        """z <= 30, and the range 30 < z < 4 nu^2 where the large-z
        expansion does not hold; an entry that underflows to 0 must be 0."""
        z = [1e-8, 0.5, 5.0, 29.9]
        if 4.0 * nu * nu > 30.0:
            z += [np.nextafter(30.0, np.inf), np.nextafter(4.0 * nu * nu, 0.0),
                  *np.geomspace(30.0, 4.0 * nu * nu, 6)[1:-1]]
        vals = bessel_i(nu, np.array(z), scaled=True)
        for zi, val in zip(z, vals):
            with mpmath.workdps(30):
                exact = float(mpmath.besseli(nu, zi) * mpmath.exp(-zi))
            assert abs(val - exact) <= 1e-12 * exact, (zi, val, exact)

    def test_huge_arguments_take_the_expansion(self):
        """ive returns NaN above z ~ 1.08e9; the large-z expansion does not."""
        z = np.array([1e9, 1e12])
        vals = bessel_i(np.arange(401.0)[:, None], z, scaled=True)
        assert np.all(np.isfinite(vals))
        for nu in (0, 1, 400):
            for zi, val in zip(z, vals[nu]):
                with mpmath.workdps(30):
                    exact = float(mpmath.besseli(nu, zi) * mpmath.exp(-zi))
                assert abs(val - exact) <= 1e-14 * exact, (nu, zi)

    def test_array_matches_scalar_calls_exactly(self):
        # the large-z expansion stops each entry on its own last term, so
        # an entry's value does not depend on the rest of the array
        z = np.array([30.5, 100.0, 1e4])
        for nu in (0.0, 1.0, 3.5, 12.0):
            single = [bessel_i(nu, zi, scaled=True) for zi in z]
            assert bessel_i(nu, z, scaled=True).tolist() == single

    @pytest.mark.parametrize("scaled", [True, False])
    def test_orders_axis_rows_match_scalar_calls(self, scaled):
        """Row k of a column of orders is bessel_i(nu[k], z), bit for bit,
        over z = 0 and over entries that take ive or the large-z expansion
        (z > 30 and 4 nu^2 <= z), each by its own (nu, z)."""
        rng = np.random.default_rng(5)
        z = np.concatenate([[0.0, 1e-300, 30.0, np.nextafter(30.0, np.inf)],
                            rng.uniform(0.0, 30.0, 30),
                            rng.uniform(30.0, 200.0, 30),
                            rng.uniform(200.0, 4e4, 20)])
        # sorted and unsorted orders: each row switches to the large-z
        # expansion at its own z
        for orders in (np.arange(120.0),
                       np.array([40.0, 0.0, 100.0, 3.5, 0.5, 15.5, 1.0, 7.0,
                                 2.0])):
            rows = bessel_i(orders[:, None], z, scaled=scaled)
            assert rows.shape == (orders.size, z.size)
            for nu, row in zip(orders, rows):
                assert row.tolist() == bessel_i(float(nu), z,
                                                scaled=scaled).tolist()
        # a scalar z gives one value per order; a grid of z keeps its shape
        orders = np.array([0.0, 3.5, 40.0])
        assert bessel_i(orders, 45.0).tolist() == [
            bessel_i(nu, 45.0) for nu in orders.tolist()]
        grid = z[:60].reshape(6, 10)
        assert bessel_i(orders[:, None, None], grid).shape == (3, 6, 10)

    def test_orders_axis_validation(self):
        with pytest.raises(ValueError):
            bessel_i(np.array([1.0, -1.0]), 1.0)
        # orders broadcast against z as numpy arrays do, or not at all
        with pytest.raises(ValueError):
            bessel_i(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("scaled", [True, False])
    def test_orders_broadcast_against_z_entry_by_entry(self, scaled):
        """A 2-D grid of orders against a 2-D grid of z is the one-order call
        at every entry, bit for bit, on both sides of the large-z switch."""
        rng = np.random.default_rng(11)
        orders = rng.choice([0.0, 0.5, 1.0, 3.5, 15.5, 40.0, 100.0], (8, 12))
        z = np.concatenate([[0.0, 30.0, np.nextafter(30.0, np.inf)],
                            rng.uniform(0.0, 30.0, 31),
                            rng.uniform(30.0, 4e4, 62)]).reshape(8, 12)
        with np.errstate(over="ignore"):
            grid = bessel_i(orders, z, scaled=scaled)
            single = [bessel_i(nu, zi, scaled=scaled)
                      for nu, zi in zip(orders.ravel().tolist(),
                                        z.ravel().tolist())]
        assert grid.shape == (8, 12)
        assert grid.ravel().tolist() == single

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

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 20.0, 100.0])
    def test_bigz_sup_bounds_scaled_bessel(self, nu):
        """heat_sup prunes with e^{-z} I_nu(z) sqrt(2 pi z) <= 1.01 on z > 30;
        the largest value is 1.00425, at nu = 0 and z -> 30."""
        z = np.concatenate([[np.nextafter(30.0, np.inf)],
                            np.geomspace(30.0, 1e7, 4000)[1:]])
        scaled = bessel_i(nu, z, scaled=True) * np.sqrt(2.0 * np.pi * z)
        assert heat._BIGZ_SUP == 1.01 and np.max(scaled) <= 1.01

    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
    def test_bigz_expansion_matches_gather_loop(self, nu):
        """The masked large-z loop equals the loop that gathered the live
        entries each term, bit for bit."""
        z = np.concatenate([np.geomspace(30.0, 1e4, 3000)[1:],
                            np.random.default_rng(1).uniform(30.0, 1e4, 3000)])
        total = np.ones_like(z)
        term = np.ones_like(z)
        live = np.arange(z.size)
        for k in range(1, 30):
            term = term * (-(4.0 * nu * nu - (2 * k - 1) ** 2)
                           / (8.0 * k * z[live]))
            total[live] += term
            keep = np.abs(term) >= 1e-17
            live, term = live[keep], term[keep]
            if not live.size:
                break
        ref = total / np.sqrt(2.0 * np.pi * z)
        assert heat._bessel_i_bigz_scaled(nu, z).tolist() == ref.tolist()


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

    @staticmethod
    def _per_order_mode_sum(t, x, y, dth):
        """The per-order loop the blocked mode sum replaced, as an oracle:
        one cone_kernel_mode call per order.  Returns the error and the
        last order summed."""
        total = np.zeros(t.shape)
        for k in range(401):
            hk = cone_kernel_mode(1, float(k), t, x, y)
            weight = 1.0 / (2.0 * np.pi) if k == 0 else 1.0 / np.pi
            total += weight * hk * np.cos(k * dth)
            if k > 0 and np.max(np.abs(hk)) < 1e-14 * np.max(np.abs(total)):
                break
        d2 = x**2 + y**2 - 2.0 * x * y * np.cos(dth)
        exact = np.exp(-d2 / (4.0 * t)) / (4.0 * np.pi * t)
        return float(np.max(np.abs(total - exact)) / np.max(np.abs(exact))), k

    @staticmethod
    def _heat_check_samples(seed, t_min):
        """heat-check's sampling (cli.cmd_heat_check) at t_max = 1."""
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(math.log(t_min), 0.0, 100))
        x = rng.uniform(0.1, 2.0, 100)
        y = rng.uniform(0.1, 2.0, 100)
        dth = rng.uniform(-math.pi, math.pi, 100)
        return t, x, y, dth

    def test_blocked_mode_sum_equals_per_order_loop(self):
        for seed in range(1, 31):
            sample = self._heat_check_samples(seed, 0.01)
            err, _ = self._per_order_mode_sum(*sample)
            assert s1_plane_kernel_error(*sample) == err

    def test_blocked_mode_sum_equals_per_order_loop_to_the_cap(self):
        """Down to t = 1e-4 the sum crosses many blocks of orders: seeds 1
        and 3 stop inside the last block (k = 375, 389), seed 2 at the
        k = 400 cap."""
        lasts = []
        for seed in (1, 2, 3):
            sample = self._heat_check_samples(seed, 1e-4)
            err, last = self._per_order_mode_sum(*sample)
            lasts.append(last)
            assert s1_plane_kernel_error(*sample) == err
        assert lasts == [375, 400, 389]

    def test_plane_error_takes_samples_of_any_shape(self):
        """A block's orders take an axis in front of the samples: a 10 x 10
        sample gives the error of its 100 entries as a row, and one sample
        may be a 0-d array."""
        sample = self._heat_check_samples(4, 0.01)
        assert (s1_plane_kernel_error(*(v.reshape(10, 10) for v in sample))
                == s1_plane_kernel_error(*sample))
        assert (s1_plane_kernel_error(*(v[0] for v in sample))
                == s1_plane_kernel_error(*(v[:1] for v in sample)))

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
        for bad in (math.nan, math.inf, np.array([0.05, math.nan])):
            with pytest.raises(ValueError):
                cone_kernel_mode(3, 1.0, bad, 0.5, 0.5)
        # an array of times broadcasts against x and x_tilde entry by entry
        t = np.array([0.01, 0.05, 0.3])
        x = np.array([0.4, 1.1, 1.9])
        batch = cone_kernel_mode(3, 1.0, t, x, 0.8)
        single = [cone_kernel_mode(3, 1.0, ti, xi, 0.8) for ti, xi in zip(t, x)]
        assert np.allclose(batch, single, rtol=1e-14, atol=0.0)

    def test_orders_axis_rows_match_scalar_calls(self):
        rng = np.random.default_rng(9)
        t = np.exp(rng.uniform(math.log(1e-4), 0.0, 60))
        x = rng.uniform(1e-6, 2.0, 60)
        y = rng.uniform(0.1, 2.0, 60)
        for n in (1, 3):
            orders = np.concatenate([np.arange(120.0),
                                     [0.5, 3.5, 15.5, 40.0, 100.0]])
            rows = cone_kernel_mode(n, orders[:, None], t, x, y)
            assert rows.shape == (orders.size, t.size)
            for nu, row in zip(orders, rows):
                assert row.tolist() == cone_kernel_mode(
                    n, float(nu), t, x, y).tolist()

    def test_indicial_order_from_mode(self, s3):
        assert nu_from_mode(3, 0.0) == 1.0
        assert nu_from_mode(3, 3.0) == 2.0


class TestHeatApply:
    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_time_validation(self, s3, t):
        # the far-field series never calls the kernel, so heat_apply checks
        # t itself instead of relying on cone_kernel_mode's check
        grid = RadialGrid.graded(100, 3.0, p=2.0)
        u0 = np.exp(-((grid.x - 0.8) / 0.15) ** 2)
        with pytest.raises(ValueError):
            heat_apply(s3, t, u0, grid)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("mode", [0.0, 8.0])
    def test_matches_dense_banded_kernel(self, name, mode):
        """The far-field series and the near-field band reproduce the dense
        sum of cone_kernel_mode over every pair with (x-y)^2/4t <= 41."""
        lk = linkmod.get_link(name)
        nu = nu_from_mode(lk.n, mode)
        f = lambda y: np.exp(-((y - 0.8) / 0.3) ** 2) * np.cos(3 * y) + 0.2
        for N, L, p in ((200, 3.0, 2.0), (150, 5.0, 1.0)):
            grid = RadialGrid.graded(N, L, p=p)
            nodes, weights = heat._panel_gauss(
                np.concatenate([[0.0], grid.x]), 4)
            X, Y = grid.x[:, None], nodes[None, :]
            for t in (1e-7, 1e-4, 3e-3, 0.05, 1.0, 20.0):
                kern = np.where((X - Y) ** 2 <= 4.0 * t * 41.0,
                                cone_kernel_mode(lk.n, nu, t, X, Y), 0.0)
                for u in (f, f(grid.x)):
                    uq = f(nodes) if callable(u) else CubicSpline(grid.x, u)(nodes)
                    ref = kern @ (uq * nodes**lk.n * weights)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        out = heat_apply(lk, t, u, grid, mode=mode)
                    err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
                    assert err <= 1e-13, (N, t, callable(u), err)

    def test_returns_plain_array(self, s3):
        grid = RadialGrid.graded(100, 3.0, p=2.0)
        u0 = np.exp(-((grid.x - 0.8) / 0.15) ** 2)
        assert type(heat_apply(s3, 0.01, u0, grid)) is np.ndarray

    def test_semigroup_property(self, s3):
        grid = RadialGrid.graded(400, 3.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.8) / 0.15) ** 2)
        a1 = heat_apply(s3, 0.004, u0, grid)
        a12 = heat_apply(s3, 0.006, a1, grid)
        direct = heat_apply(s3, 0.010, u0, grid)
        assert np.max(np.abs(a12 - direct)) < 1e-6 * np.max(np.abs(direct))

    def test_short_time_approximate_identity(self, s3):
        grid = RadialGrid.graded(400, 3.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.8) / 0.15) ** 2)
        out = heat_apply(s3, 1e-5, u0, grid)
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
            ht = heat_apply(s3, t, phi, grid)
            ratio = np.mean(ht[sel] / ph0[sel])
            assert abs(ratio / math.exp(-sigma1 * t) - 1.0) < 0.02

    def test_positivity(self, s3):
        grid = RadialGrid.graded(300, 2.0, p=2.0)
        u0 = lambda y: np.exp(-((y - 0.5) / 0.1) ** 2)
        assert np.all(heat_apply(s3, 0.01, u0, grid) > 0)

    def test_outer_mass_warning(self, s3):
        grid = RadialGrid.graded(200, 1.0, p=1.0)
        with pytest.warns(UserWarning, match="truncation"):
            heat_apply(s3, 0.01, np.ones(200), grid)


def _far_field_two_columns(n, nu, t, x, xq, g, split):
    # the far-field loop with a column of |g| for every source, and every
    # invariant recomputed per term: the bitwise reference
    r = np.count_nonzero(split)
    far = np.zeros(x.size)
    if r:
        m, cut = split[0], split[:r]
        s = np.concatenate([x[:r], xq[:m]])
        a = np.exp(nu * np.log(s / (2.0 * math.sqrt(t))) - s * s / (4.0 * t)
                   - 0.5 * math.lgamma(nu + 1.0))
        gf = g[:m] * xq[:m] ** (-(n - 1) / 2.0)
        gf = np.column_stack([gf, np.abs(gf)])
        total = np.zeros((r, 2))
        for k in range(heat._SERIES_TERMS + 1):
            if k:
                a *= s * s / (4.0 * t * math.sqrt(k * (k + nu)))
            term = a[:r, None] * np.cumsum(a[r:, None] * gf, axis=0)[cut - 1]
            total += term
            if k > 4 and np.max(term[:, 1]) <= 1e-18 * np.max(total[:, 1]):
                break
        far[:r] = total[:, 0] * x[:r] ** (-(n - 1) / 2.0) / (2.0 * t)
    return far


@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
@pytest.mark.parametrize("mode", [0.0, 8.0])
def test_far_field_matches_two_column_loop(name, mode):
    lk = linkmod.get_link(name)
    nu = nu_from_mode(lk.n, mode)
    bump = lambda y: np.exp(-((y - 0.8) / 0.3) ** 2)
    sources = {"nonnegative": lambda y: bump(y) + 0.2,
               "sign-changing": lambda y: bump(y) * np.cos(3 * y) + 0.2,
               "zero": lambda y: np.zeros_like(y)}
    for N, L, p in ((200, 3.0, 2.0), (150, 5.0, 1.0)):
        grid = RadialGrid.graded(N, L, p=p)
        for kind, f in sources.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                xq, g = heat._weighted_source(lk, f, grid, 4)
            assert (g < 0).any() == (kind == "sign-changing")
            for t in (1e-7, 5e-4, 3e-3, 0.05, 1.0, 20.0):
                split, _, _ = heat._split_pairs(t, grid.x, xq)
                args = (lk.n, nu, t, grid.x, xq, g, split)
                assert np.array_equal(heat._far_field(*args),
                                      _far_field_two_columns(*args)), (kind, p, t)


class TestHeatSup:
    T_MAPPING = np.geomspace(5e-4, 0.02, 7)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_equals_max_of_heat_apply_on_mapping_inputs(self, name):
        lk = linkmod.get_link(name)
        grid = RadialGrid.graded(800, 1.0, p=2.0)
        for N in (0.5, 1.0, 2.0, 2.5, 3.0):
            if N > lk.n:
                continue
            f = lambda y: y ** (-N) * geometry.smooth_cutoff(y, 0.25, 0.5)
            full = [np.max(np.abs(heat_apply(lk, t, f, grid, quad_pts=2)))
                    for t in self.T_MAPPING]
            assert np.array_equal(heat_sup(lk, self.T_MAPPING, f, grid, 2),
                                  full), N

    @pytest.mark.parametrize("tip", [0.0, 1.0])
    def test_equals_max_of_heat_apply_for_sign_changing_source(self, s3, tip):
        """With tip = 0 the source sits away from the tip and the sup at a
        row with a near band, which only the bound keeps from being pruned;
        with tip = 1 an x^{-1/2} spike competes with it."""
        grid = RadialGrid.graded(400, 2.0, p=2.0)
        f = lambda y: ((np.sin(9.0 * y) * np.exp(-((y - 0.8) / 0.2) ** 2)
                        + tip * np.cos(9.0 * y) / np.sqrt(y))
                       * geometry.smooth_cutoff(y, 1.2, 1.6))
        times = (1e-4, 3e-3, 0.05)
        for u in (f, f(grid.x)):
            full = [np.max(np.abs(heat_apply(s3, t, u, grid, quad_pts=2)))
                    for t in times]
            assert np.array_equal(heat_sup(s3, times, u, grid, 2), full)

    def test_outer_mass_warning(self, s3):
        grid = RadialGrid.graded(200, 1.0, p=1.0)
        with pytest.warns(UserWarning, match="truncation"):
            heat_sup(s3, [0.01], np.ones(200), grid, 2)

    def test_every_row_with_a_near_band_is_evaluated(self, s3):
        # nodes from x = 0.5 at t = 5e-4: every row has near pairs, so no row
        # is exact before its band is summed
        grid = RadialGrid(x=np.linspace(0.5, 1.5, 300))
        f = lambda y: np.sin(7.0 * y) * geometry.smooth_cutoff(y, 1.1, 1.4)
        t = 5e-4
        xq, _ = heat._weighted_source(s3, f, grid, 2)
        _, _, count = heat._split_pairs(t, grid.x, xq)
        assert np.all(count > 0)
        full = heat_apply(s3, t, f, grid, quad_pts=2)
        assert np.array_equal(heat_sup(s3, [t], f, grid, 2),
                              [np.max(np.abs(full))])

    def test_no_near_field_for_the_mapping_sup_on_s3(self, s3, monkeypatch):
        """For x^{-3} on S^3 the sup sits at the first node, a row with no
        near band, at every one of mapping's times, and with no band left
        the kernel is not called at all."""
        points = []
        kernel = heat.cone_kernel_mode
        monkeypatch.setattr(heat, "cone_kernel_mode", lambda n, nu, t, x, y: (
            points.append(np.size(x)), kernel(n, nu, t, x, y))[1])
        grid = RadialGrid.graded(800, 1.0, p=2.0)
        f = lambda y: y ** -3.0 * geometry.smooth_cutoff(y, 0.25, 0.5)
        heat_sup(s3, self.T_MAPPING, f, grid, 2)
        assert points == []


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
    conv = heat_convolve(s3, T, phi, grid)
    expect = (1.0 - math.exp(-sigma1 * T)) / sigma1
    sel = (grid.x > 0.3) & (grid.x < 2.0)
    ratio = np.mean(conv[sel] / phi(grid.x)[sel])
    assert abs(ratio - expect) < 0.02 * expect


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_heat_convolve_time_validation(s3, t):
    # checked before the tail's node count, which divides by sqrt(t)
    grid = RadialGrid.graded(200, 1.0, p=1.0)
    with pytest.raises(ValueError, match="time t must be finite and positive"):
        heat_convolve(s3, t, np.ones(200), grid)


def test_heat_convolve_warns_once_at_the_caller(s3):
    """A source with mass at L warns once, attributed to the caller's file,
    not once per tail node from inside heat.py."""
    grid = RadialGrid.graded(200, 1.0, p=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        heat_convolve(s3, 1.0, np.ones(200), grid)
    assert [str(w.message) for w in caught] == [
        "field has mass near the outer truncation radius"]
    assert caught[0].filename == __file__


def test_heat_convolve_evaluates_its_source_once(s3):
    """A callable source is called twice, on the grid and on the y-rule,
    however many tail nodes the Gauss-Jacobi rule takes."""
    grid = RadialGrid.graded(200, 1.0, p=1.0)
    calls = []

    def f(y):
        calls.append(y.size)
        return np.exp(-((y - 0.4) / 0.1) ** 2)

    heat_convolve(s3, grid.L**2, f, grid, quad_pts=2)
    assert calls == [grid.N, 2 * grid.N]


def test_heat_convolve_caps_its_tail_nodes(s3):
    """At L = 3 and t = 1e-7 the tail would take 18,974 Gauss-Jacobi nodes,
    a 2.7 GiB Jacobi matrix: the call raises before it evaluates the
    source, naming t and the smallest admissible t, (2 L / 1024)^2."""
    grid = RadialGrid.graded(200, 3.0, p=1.0)
    calls = []

    def f(y):
        calls.append(y.size)
        return np.ones_like(y)

    with pytest.raises(ValueError, match=r"t = 1e-07 .* 3\.43323e-05$"):
        heat_convolve(s3, 1e-7, f, grid)
    assert calls == []


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 2.3])
def test_gauss_jacobi_rule_matches_scipy(beta):
    """The Golub-Welsch rule for the weight s^beta on [0, 1] is scipy's
    Gauss-Jacobi rule for (1-x)^0 (1+x)^beta mapped from [-1, 1]."""
    for npts in (8, 15, 45):
        s, w = heat._gauss_jacobi(npts, beta)
        x, wx = roots_jacobi(npts, 0.0, beta)
        assert np.max(np.abs(s - 0.5 * (1.0 + x))) <= 1e-14
        assert np.max(np.abs(w / (wx * 0.5 ** (beta + 1.0)) - 1.0)) <= 1e-10


def _composite_sigma_convolution(lk, t, sources, grid, rows):
    """The composite rule in sigma that heat_convolve used before its Green
    operator form, with 8 points per panel: Gauss-Legendre panels two per
    decade over [1e-8 t, t], plus 1e-8 t f for the sliver below, where
    H(sigma) -> Id.  The spatial sum is the kernel on heat_apply's 8-point
    y-rule over the Gaussian band (x-y)^2/4sigma <= 41, which heat_apply
    reproduces to 1e-13 (test_matches_dense_banded_kernel); it runs on the
    grid rows `rows` only, and every source of one link shares the kernel."""
    n = lk.n
    nu = nu_from_mode(n, 0.0)
    sigmas, weights = heat._panel_gauss(
        t * 10.0 ** -np.linspace(8.0, 0.0, 17), 8)
    y, wy = heat._panel_gauss(np.concatenate([[0.0], grid.x]), 8)
    g = np.column_stack([f(y) * y**n * wy for f in sources])
    keep = np.any(g != 0.0, axis=1)
    X, Y = np.broadcast_arrays(grid.x[rows][:, None], y[keep][None, :])
    out = 1e-8 * t * np.column_stack([f(grid.x[rows]) for f in sources])
    for sigma, weight in zip(sigmas, weights):
        band = (X - Y) ** 2 <= 4.0 * sigma * 41.0
        kern = np.zeros(X.shape)
        kern[band] = cone_kernel_mode(n, nu, sigma, X[band], Y[band])
        out += weight * (kern @ g[keep])
    return out


@pytest.mark.parametrize("name, exponents", [
    ("S1", (0.5, 1.0)), ("S2", (1.0, 1.5, 2.0)), ("S3", (1.0, 2.0, 2.5, 3.0))],
    ids=["S1", "S2", "S3"])
def test_heat_convolve_matches_composite_sigma_rule(name, exponents):
    """The Green operator minus the long-time tail reproduces the composite
    rule in sigma at 8 points per panel on mapping_exponent_report's inputs,
    x^{-N} times a cutoff on the 800-point p = 2 grid at t = 1, with
    mapping's 2-point y-rule, to 1e-6 over the fit window; the S1 link
    checks the nu = 0 form."""
    lk = linkmod.get_link(name)
    grid = RadialGrid.graded(800, 1.0, p=2.0)
    window = np.flatnonzero((grid.x >= 0.012) & (grid.x <= 0.1))
    rows = window[np.linspace(0, window.size - 1, 8).astype(int)]
    sources = [lambda y, N=N: y ** (-N) * geometry.smooth_cutoff(y, 0.25, 0.5)
               for N in exponents]
    ref = _composite_sigma_convolution(lk, 1.0, sources, grid, rows)
    for f, expect in zip(sources, ref.T):
        conv = heat_convolve(lk, 1.0, f, grid, quad_pts=2)[rows]
        assert np.max(np.abs(conv - expect) / np.abs(expect)) <= 1e-6


@pytest.mark.parametrize("ratio", [50, 500])
@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
def test_heat_convolve_tail_nodes_follow_L2_over_t(name, ratio):
    """For t << L^2 the tail needs more nodes (8 are off by 1e-3 at
    L^2/t = 50): a smooth source on [0, 1] against the composite rule in
    sigma, at t = L^2/50 and L^2/500."""
    lk = linkmod.get_link(name)
    grid = RadialGrid.graded(200, 1.0, p=1.0)
    f = lambda y: (1.0 + np.cos(7.0 * y)) * geometry.smooth_cutoff(y, 0.7, 0.9)
    rows = np.arange(0, grid.N, 10)
    t = 1.0 / ratio
    ref = _composite_sigma_convolution(lk, t, [f], grid, rows)[:, 0]
    conv = heat_convolve(lk, t, f, grid)[rows]
    assert np.max(np.abs(conv - ref)) <= 1e-6 * np.max(np.abs(ref))
