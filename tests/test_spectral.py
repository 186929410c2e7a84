"""Indicial exponents, the singular ground-state solver, asymptotics fits."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from conelab import entropy, geometry, link as linkmod
from conelab.geometry import RadialGrid, flat_cone, perturbed_cone, sphere_suspension
from conelab.spectral import (
    EigensolverError,
    RadialOperator,
    assemble_operator,
    eigen_residual,
    fit_asymptotics,
    indicial_exponents,
    rayleigh_quotient,
    solve_ground_state,
)


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
        assert 0.0 in ind.non_selfadjoint_modes
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
        prob = assemble_operator(RadialOperator(flat_cone(s3, g), c=1.0))
        ones = np.ones(g.N)
        resid = np.linalg.norm(prob.matvec(ones))
        assert resid < 1e-12 * np.linalg.norm(prob.diag)

    def test_rayleigh_bounded_below_by_potential(self, s3):
        met = sphere_suspension(s3, 300, radius=1.0, p=1.0)
        prob = assemble_operator(RadialOperator(met, q=1.0, c=4.0))
        rng = np.random.default_rng(1)
        scal_min = np.min(geometry.warped_scal(met).values)
        for _ in range(5):
            u = rng.standard_normal(300) ** 2 + 0.1
            assert rayleigh_quotient(prob, u) >= scal_min - 1e-8

    def test_low_dimension_refuses_potential(self):
        s2 = linkmod.sphere_link(2, 4)
        g = RadialGrid.graded(100, 1.0)
        with pytest.raises(ValueError):
            RadialOperator(flat_cone(s2, g), q=1.0)

    def test_mode_must_be_nonnegative(self, s3):
        g = RadialGrid.graded(100, 1.0)
        with pytest.raises(ValueError):
            RadialOperator(flat_cone(s3, g), mode=-1.0)


class TestGroundState:
    def test_dirichlet_mode_matches_bessel_zero(self, s3):
        """Separated solution x^{-1} J_nu(sqrt(sigma) x): first Dirichlet
        eigenvalue on the unit cone is the squared first zero of J_nu."""
        g = RadialGrid.graded(1500, 1.0, p=2.0)
        op = RadialOperator(flat_cone(s3, g), mode=3.0, c=1.0)
        sigma, u = solve_ground_state(op, dirichlet_outer=True)
        j21 = brentq(lambda z: jv(2.0, z), 4.0, 6.0)
        assert abs(sigma - j21**2) < 1e-3 * j21**2
        assert eigen_residual(op, sigma, u, dirichlet_outer=True) < 1e-8

    def test_round_s4_constant_ground_state(self, s3):
        met = sphere_suspension(s3, 800, radius=1.0, p=2.0)
        sigma, u = solve_ground_state(RadialOperator(met, q=1.0, c=4.0))
        assert abs(sigma - 12.0) < 1e-6
        assert np.ptp(u.values) < 1e-6 * np.max(u.values)

    def test_scaling_identity(self, s3):
        met = sphere_suspension(s3, 400, radius=1.0, p=2.0)
        s1, _ = solve_ground_state(RadialOperator(met, q=1.0, c=4.0))
        s2, _ = solve_ground_state(RadialOperator(met.scaled(4.0), q=1.0, c=4.0))
        assert abs(4.0 * s2 - s1) < 1e-6 * abs(s1)

    def test_mode_monotonicity(self, s3):
        # the lam_F/b^2 potential is positive, so the ground eigenvalue
        # rises with the mode; the global minimizer is radial
        g = RadialGrid.graded(500, 1.0, p=2.0)
        met = flat_cone(s3, g)
        sigmas = [solve_ground_state(RadialOperator(met, mode=lam, c=1.0),
                                     dirichlet_outer=True)[0]
                  for lam in (0.0, 3.0, 8.0)]
        assert sigmas[0] < sigmas[1] < sigmas[2]

    def test_refinement_convergence_order(self, s3):
        sigmas = []
        for N in (200, 400, 800):
            g = RadialGrid.graded(N, 1.0, p=2.0)
            op = RadialOperator(flat_cone(s3, g), mode=3.0, c=1.0)
            sigmas.append(solve_ground_state(op, dirichlet_outer=True)[0])
        d1 = abs(sigmas[1] - sigmas[0])
        d2 = abs(sigmas[2] - sigmas[1])
        assert math.log2(d1 / d2) > 1.5

    def test_friedrichs_tip_behavior(self, s3):
        # ground state stays bounded with bounded x u' at the tip
        g = RadialGrid.graded(800, 1.0, p=2.0)
        op = RadialOperator(flat_cone(s3, g), c=1.0)
        _, u = solve_ground_state(op, dirichlet_outer=True)
        xu = g.x * g.d1(u.values)
        assert np.max(np.abs(u.values[:5])) < 2.0 * np.max(np.abs(u.values))
        assert np.max(np.abs(xu[:5])) < 0.1 * np.max(np.abs(u.values))

    def test_normalization(self, s3):
        met = sphere_suspension(s3, 300, radius=1.0, p=1.0)
        _, u = solve_ground_state(RadialOperator(met, q=1.0, c=4.0))
        w = geometry.volume_form(met)
        assert abs(u.values @ (w * u.values) - 1.0) < 1e-12
        assert np.all(u.values > 0)


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
            fit_asymptotics(g.x, g, window=(0.9, 0.95))
