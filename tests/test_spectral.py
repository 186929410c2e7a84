"""Indicial exponents, the singular ground-state solver, asymptotics fits."""

import math

import numpy as np
import pytest
from scipy import linalg
from scipy.optimize import brentq, minimize_scalar
from scipy.special import jv

from conelab import entropy, flow, geometry, link as linkmod, spectral
from conelab.heat import classify_tip_behavior
from conelab.geometry import RadialGrid, flat_cone, perturbed_cone, sphere_suspension
from conelab.spectral import (
    EigensolverError,
    assemble_operator,
    bounded_minimize,
    fit_asymptotics,
    fit_power_model,
    indicial_exponents,
    rayleigh_quotient,
    solve_banded,
    solve_ground_state,
)

from conftest import scaled


class TestIndicialExponents:
    def test_zero_mode_exponent(self, s3):
        ind = indicial_exponents(s3, gamma=2.0)
        assert ind.nu[0] == (s3.n - 1) / 2.0
        assert ind.mu_plus[0] == 0.0

    def test_s3_first_mode_and_gamma_bar(self, s3):
        ind = indicial_exponents(s3, gamma=2.0)
        # lambda_1 = 3: nu = sqrt(3 + 1) = 2, mu_plus = 1
        assert ind.nu[1] == 2.0
        assert ind.mu_plus[1] == 1.0
        assert ind.gamma_bar == 1.0

    def test_low_dimension_window_flagged(self):
        s2 = linkmod.sphere_link(2, 4)
        ind = indicial_exponents(s2, gamma=1.0)
        assert ind.nu[0] == 0.5
        # nu in [0, 1): maximal-domain window, extension not unique
        assert 0.0 in ind.eigenvalues[ind.nu < 1.0]
        assert not ind.essentially_selfadjoint
        assert indicial_exponents(linkmod.sphere_link(3, 4),
                                  1.0).essentially_selfadjoint

    def test_nu_strictly_increasing(self, s3):
        ind = indicial_exponents(s3, gamma=1.0)
        assert np.all(np.diff(ind.nu) > 0)

    def test_gamma_must_be_positive(self, s3):
        with pytest.raises(ValueError):
            indicial_exponents(s3, gamma=0.0)


class TestAssembly:
    def test_constant_in_kernel_of_pure_laplacian(self, s3):
        g = RadialGrid.graded(400, 1.0, p=2.0)
        prob = assemble_operator(flat_cone(s3, g), c=1.0)
        ones = np.ones(g.N)
        resid = np.linalg.norm(prob.matvec(ones))
        assert resid < 1e-12 * np.linalg.norm(prob.diag)

    def test_rayleigh_bounded_below_by_potential(self, s3):
        met = sphere_suspension(s3, 300, radius=1.0, p=1.0)
        prob = assemble_operator(met, q=1.0, c=4.0)
        rng = np.random.default_rng(1)
        scal_min = np.min(geometry.warped_scal(met))
        for _ in range(5):
            u = rng.standard_normal(300) ** 2 + 0.1
            assert rayleigh_quotient(prob, u) >= scal_min - 1e-8

    def test_mode_potential_at_the_tip(self, s3):
        # x_1 = 1.25e-10: the potential lam_F / b^2 is exact down to the
        # first node; no floor on b may clip the conical tip
        g = RadialGrid.graded(2000, 1.0, p=3.0)
        met = flat_cone(s3, g)
        diag = [assemble_operator(met, mode=mode, c=1.0).diag
                for mode in (3.0, 0.0)]
        pot = (diag[0] - diag[1]) / geometry.volume_form(met)
        assert np.max(np.abs(pot * met.b**2 / 3.0 - 1.0)) < 1e-8

    def test_low_dimension_refuses_potential(self):
        s2 = linkmod.sphere_link(2, 4)
        g = RadialGrid.graded(100, 1.0)
        with pytest.raises(ValueError):
            assemble_operator(flat_cone(s2, g), q=1.0)

    def test_mode_must_be_nonnegative(self, s3):
        g = RadialGrid.graded(100, 1.0)
        with pytest.raises(ValueError):
            assemble_operator(flat_cone(s3, g), mode=-1.0)


class TestGroundState:
    def test_dirichlet_mode_matches_bessel_zero(self, s3):
        """Separated solution x^{-1} J_nu(sqrt(sigma) x): first Dirichlet
        eigenvalue on the unit cone is the squared first zero of J_nu."""
        g = RadialGrid.graded(1500, 1.0, p=2.0)
        prob = assemble_operator(flat_cone(s3, g), mode=3.0, c=1.0,
                                 dirichlet_outer=True)
        sigma, u = solve_ground_state(prob)
        j21 = brentq(lambda z: jv(2.0, z), 4.0, 6.0)
        assert abs(sigma - j21**2) < 1e-3 * j21**2
        v = u[:-1]  # the outer Dirichlet node is not an unknown
        r = prob.matvec(v) - sigma * prob.mass * v
        assert np.linalg.norm(r) / np.linalg.norm(prob.mass * v) < 1e-8

    def test_state_is_plain_array(self, s3):
        met = sphere_suspension(s3, 100, radius=1.0, p=2.0)
        u = solve_ground_state(assemble_operator(met, q=1.0, c=4.0))[1]
        assert type(u) is np.ndarray and u.shape == (100,)

    def test_round_s4_constant_ground_state(self, s3):
        met = sphere_suspension(s3, 800, radius=1.0, p=2.0)
        sigma, u = solve_ground_state(assemble_operator(met, q=1.0, c=4.0))
        assert abs(sigma - 12.0) < 1e-6
        assert np.ptp(u) < 1e-6 * np.max(u)

    def test_scaling_identity(self, s3):
        met = sphere_suspension(s3, 400, radius=1.0, p=2.0)
        s1, _ = solve_ground_state(assemble_operator(met, q=1.0, c=4.0))
        s2, _ = solve_ground_state(assemble_operator(scaled(met, 4.0), q=1.0,
                                                     c=4.0))
        assert abs(4.0 * s2 - s1) < 1e-6 * abs(s1)

    def test_mode_monotonicity(self, s3):
        # the lam_F/b^2 potential is positive, so the ground eigenvalue
        # rises with the mode; the global minimizer is radial
        g = RadialGrid.graded(500, 1.0, p=2.0)
        met = flat_cone(s3, g)
        sigmas = [solve_ground_state(assemble_operator(
                      met, mode=lam, c=1.0, dirichlet_outer=True))[0]
                  for lam in (0.0, 3.0, 8.0)]
        assert sigmas[0] < sigmas[1] < sigmas[2]

    def test_refinement_convergence_order(self, s3):
        sigmas = []
        for N in (200, 400, 800):
            g = RadialGrid.graded(N, 1.0, p=2.0)
            prob = assemble_operator(flat_cone(s3, g), mode=3.0, c=1.0,
                                     dirichlet_outer=True)
            sigmas.append(solve_ground_state(prob)[0])
        d1 = abs(sigmas[1] - sigmas[0])
        d2 = abs(sigmas[2] - sigmas[1])
        assert math.log2(d1 / d2) > 1.5

    def test_friedrichs_tip_behavior(self, s3):
        # ground state stays bounded with bounded x u' at the tip
        g = RadialGrid.graded(800, 1.0, p=2.0)
        prob = assemble_operator(flat_cone(s3, g), c=1.0, dirichlet_outer=True)
        _, u = solve_ground_state(prob)
        xu = g.x * g.d1(u)
        assert np.max(np.abs(u[:5])) < 2.0 * np.max(np.abs(u))
        assert np.max(np.abs(xu[:5])) < 0.1 * np.max(np.abs(u))

    def test_normalization(self, s3):
        met = sphere_suspension(s3, 300, radius=1.0, p=1.0)
        _, u = solve_ground_state(assemble_operator(met, q=1.0, c=4.0))
        w = geometry.volume_form(met)
        assert abs(u @ (w * u) - 1.0) < 1e-12
        assert np.all(u > 0)

    def test_sign_indefinite_ground_state_rejected(self):
        # K = tridiag(1, 2, 1), M = I: the lowest mode alternates in sign,
        # which no discretized Schroedinger ground state does
        N = 50
        prob = spectral.AssembledProblem(
            diag=np.full(N, 2.0), off=np.ones(N - 1), mass=np.ones(N),
            dirichlet_outer=False)
        with pytest.raises(EigensolverError, match="sign-indefinite"):
            solve_ground_state(prob)


class TestFitAsymptotics:
    def test_exact_power_model(self):
        g = RadialGrid.graded(400, 1.0, p=2.0)
        c0, e, res = fit_asymptotics(2.0 + g.x**1.0, g)
        assert abs(c0 - 2.0) < 1e-4
        assert abs(e - 1.0) < 1e-4

    def test_constant_field_sentinel(self):
        g = RadialGrid.graded(400, 1.0, p=2.0)
        _, e, _ = fit_asymptotics(np.full(400, 5.0), g)
        assert e == np.inf

    def test_minimizer_exponent_on_perturbed_cone(self, perturbed_metric):
        """Entropy minimizer decays at least at the slowest admissible tip
        rate gamma_bar = 1 on a gamma = 2 perturbed cone."""
        rep = entropy.compute_lambda(perturbed_metric)
        c0, e, res = fit_asymptotics(rep.omega, perturbed_metric.grid)
        gamma_bar = indicial_exponents(perturbed_metric.link, 2.0).gamma_bar
        assert e >= gamma_bar - 0.1
        assert res < 1e-6 * abs(c0)

    def test_window_needs_enough_points(self):
        g = RadialGrid.graded(50, 1.0, p=1.0)
        with pytest.raises(ValueError):
            fit_asymptotics(g.x, g)


class TestBoundedMinimize:
    """`bounded_minimize` evaluates f at the abscissae of scipy's bounded
    `minimize_scalar`, in the same order and bit for bit, and returns its x."""

    @staticmethod
    def _assert_same_path(f, lo, hi, xatol):
        ours, theirs = [], []

        def recorded(seen):
            return lambda x: seen.append(float(x).hex()) or f(x)

        x = bounded_minimize(recorded(ours), lo, hi, xatol)
        res = minimize_scalar(recorded(theirs), bounds=(lo, hi),
                              method="bounded", options={"xatol": xatol})
        assert len(ours) > 1
        assert ours == theirs
        assert type(x) is float and x.hex() == float(res.x).hex()
        assert x.hex() in ours
        return len(ours)

    @staticmethod
    def _objectives(monkeypatch, run):
        """(f, lo, hi, xatol) of every bounded_minimize call made by run()."""
        calls = []
        real = spectral.bounded_minimize

        def grab(f, lo, hi, xatol):
            calls.append((f, lo, hi, xatol))
            return real(f, lo, hi, xatol)

        monkeypatch.setattr(spectral, "bounded_minimize", grab)
        run()
        monkeypatch.undo()
        return calls

    def test_power_fit_objective(self, monkeypatch):
        x = np.geomspace(1e-3, 0.1, 60)
        calls = self._objectives(
            monkeypatch, lambda: fit_power_model(x, 2.0 + x**1.3, (1e-3, 4)))
        assert [c[1:] for c in calls] == [(1e-3, 4, 1e-8)]
        self._assert_same_path(*calls[0])

    def test_both_tip_classification_brackets(self, monkeypatch):
        x = np.geomspace(0.012, 0.1, 80)
        calls = self._objectives(
            monkeypatch, lambda: classify_tip_behavior(x, 3.0 + 0.5 / x))
        assert [c[1:3] for c in calls] == [(-3.3, -0.25), (0.25, 3.0)]
        for call in calls:
            self._assert_same_path(*call)

    def test_constant_function(self):
        self._assert_same_path(lambda x: 7.0, 0.0, 1.0, 1e-8)

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_minimum_at_either_end(self, slope):
        self._assert_same_path(lambda x: slope * x, -1.0, 2.0, 1e-8)

    def test_several_minima(self):
        self._assert_same_path(lambda x: math.sin(40.0 * x) + 0.1 * x,
                               0.0, 3.0, 1e-12)

    def test_evaluation_cap(self):
        # at xatol = 0 the stop width shrinks with |x| towards the minimum
        # at 0, so the search ends at the cap
        assert self._assert_same_path(abs, -1.0, 2.0, 0.0) == 500

    def test_parabola_in_log_tau_at_the_nu_tolerance(self):
        lts = np.linspace(math.log(1e-3), math.log(1e3), entropy._N_SCAN)
        target = math.log(1.0 / 6.0)
        k = int(np.argmin(np.abs(lts - target)))
        self._assert_same_path(lambda lt: (lt - target) ** 2, lts[k - 1],
                               lts[k + 1], entropy._LOG_TAU_TOL)

    def test_bounds_must_be_finite_and_ordered(self):
        for lo, hi in ((1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="bounds"):
                bounded_minimize(lambda x: x, lo, hi, 1e-8)


class TestSolveBanded:
    """The direct LAPACK solve equals scipy.linalg.solve_banded bit for bit."""

    @staticmethod
    def _tridiagonal(rng, N):
        ab = rng.standard_normal((3, N))
        ab[1] += 4.0
        return ab

    @staticmethod
    def _flow_bands(rng):
        # the flow's own tridiagonal system: I - dt diag(coeff) D3 at N = 800
        grid = RadialGrid.graded(800, 2.0, p=1.0)
        frozen = np.zeros(grid.N, dtype=bool)
        frozen[:4] = frozen[-4:] = True
        return flow._implicit_bands(grid, 1.0 + 0.1 * rng.random(grid.N),
                                    2.5e-6, frozen)

    @pytest.mark.parametrize("shape", ["tridiagonal", "two columns", "flow"])
    def test_equals_scipy_bit_for_bit(self, shape):
        rng = np.random.default_rng(5)
        ab = (self._flow_bands(rng) if shape == "flow"
              else self._tridiagonal(rng, 2000))
        N = ab.shape[1]
        # Newton's right-hand side is the transpose of a (2, N) stack
        b = (rng.standard_normal((2, N)).T if shape == "two columns"
             else rng.standard_normal(N))
        ab0, b0 = ab.copy(), b.copy()
        x = solve_banded(ab, b)
        assert np.array_equal(x, linalg.solve_banded((1, 1), ab, b))
        assert x.shape == b.shape
        assert np.array_equal(ab, ab0) and np.array_equal(b, b0)

    def test_singular_matrix(self):
        ab = np.zeros((3, 20))
        ab[1, 1:] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded(ab, np.ones(20))

    @pytest.mark.parametrize("where", ["ab", "b"])
    def test_non_finite_input(self, where):
        rng = np.random.default_rng(6)
        ab, b = self._tridiagonal(rng, 50), np.ones(50)
        if where == "ab":
            ab[1, 7] = np.nan
        else:
            b[7] = np.nan
        with pytest.raises(ValueError):
            solve_banded(ab, b)
