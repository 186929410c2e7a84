"""Entropy functionals: lambda, the W entropies, mu, nu, first variation."""

import dataclasses
import math

import numpy as np
import pytest

from conelab import entropy, geometry, link as linkmod, spectral
from conelab.entropy import (
    compute_lambda,
    compute_mu,
    compute_nu,
    evaluate_w,
    first_variation_lambda,
)
from conelab.geometry import (
    RadialGrid,
    perturbed_cone,
    smooth_cutoff,
    sphere_suspension,
    volume_form,
)

from conftest import (lie_derivative_tensor, perturb_metric, scaled,
                      total_volume)


@pytest.fixture(scope="module")
def nu_minus_s4(s4_fine):
    return compute_nu(s4_fine, "minus")


@pytest.fixture(scope="module")
def nu_plus_hyp(hyperbolic_metric):
    return compute_nu(hyperbolic_metric, "plus")


class TestLambda:
    def test_round_sphere_value(self, s4_lambda):
        # scal = 12 is constant, so lambda(S^4) = 12 with a constant minimizer
        assert abs(s4_lambda.value - 12.0) < 1e-6

    def test_resolution_floor(self, s3):
        # constant fields are exactly representable, so the error sits at the
        # quadrature roundoff floor at every resolution
        for N in (500, 1000, 2000):
            met = sphere_suspension(s3, N, radius=1.0, p=2.0)
            assert abs(compute_lambda(met).value - 12.0) < 1e-9

    def test_residuals(self, s4_lambda):
        assert s4_lambda.el_residual < 1e-8
        assert s4_lambda.constraint_residual < 1e-12

    def test_scaling(self, s4_fine, s4_lambda):
        lam4 = compute_lambda(scaled(s4_fine, 4.0)).value
        assert abs(4.0 * lam4 - s4_lambda.value) < 1e-10 * abs(s4_lambda.value)

    def test_expander_side_value(self, hyperbolic_metric):
        rep = compute_lambda(hyperbolic_metric)
        assert abs(rep.value + 12.0) < 1e-8
        assert rep.el_residual < 1e-8
        assert rep.constraint_residual < 1e-12

    def test_bracketed_by_scalar_curvature(self, perturbed_metric):
        lam = compute_lambda(perturbed_metric).value
        scal = geometry.warped_scal(perturbed_metric)
        w = volume_form(perturbed_metric)
        avg = float(np.sum(w * scal) / np.sum(w))
        assert np.min(scal) - 1e-10 <= lam <= avg + 1e-10

    @pytest.mark.parametrize("c, bessel, error", [
        (0.5, 30.7762230868, 2.21e-5), (0.7, 11.4872865949, 7.24e-6),
        (0.9, 2.7433168214, 1.72e-6), (1.3, -5.2658953421, 8.17e-6)])
    def test_flat_cone_matches_bessel_root(self, s3, c, bessel, error):
        """The flat cone dx^2 + c^2 x^2 g_S3 truncated at L = 1 has
        scal = s/x^2, s = 6(1 - c^2)/c^2, and its ground state is
        x^-1 J_nu(kx) with lambda = 4k^2 for c < 1, x^-1 I_nu(kx) with
        lambda = -4k^2 for c > 1, nu = sqrt(1 + s/4), where k is the first
        root of k Z_nu'(k) = Z_nu(k), the natural condition at L.  Each case
        is bounded at twice the error measured at N = 2000, p = 2; resolving
        the tip in the ground-state representation is to tighten the bound
        to 1e-6 relative (ROADMAP item 23)."""
        from scipy.optimize import brentq
        from scipy.special import iv, ivp, jv, jvp

        s = 6.0 * (1.0 - c * c) / (c * c)
        nu = float(spectral.nu_from_mode(3, s / 4.0))
        z, dz = (jv, jvp) if c < 1 else (iv, ivp)
        f = lambda k: k * dz(nu, k) - z(nu, k)
        ks = np.arange(0.01, 10.0, 0.01)
        k0 = next(k for k in ks if f(k) * f(k + 0.01) < 0)
        k = brentq(f, k0, k0 + 0.01, xtol=1e-15)
        root = math.copysign(4.0 * k * k, 1.0 - c)
        assert abs(root - bessel) < 1e-9
        met = geometry.flat_cone(s3, RadialGrid.graded(2000, 1.0, p=2.0),
                                 cone_factor=c)
        assert abs(compute_lambda(met).value - root) < 2.0 * error

    def test_weights_are_plain_arrays(self, s3):
        # compute_lambda hands out the memoized lambda problem itself
        met = geometry.sphere_suspension(s3, 200, radius=1.0, p=2.0)
        lam = compute_lambda(met)
        assert lam is compute_lambda(met)
        assert type(lam.omega) is np.ndarray
        assert type(compute_mu(met, 0.5).omega) is np.ndarray

    def test_functional_matches_report(self, s4_fine, s4_lambda):
        prob = compute_lambda(s4_fine).prob
        val = spectral.rayleigh_quotient(prob, s4_lambda.omega)
        assert abs(val - s4_lambda.value) < 1e-12 * abs(s4_lambda.value)


class TestWEntropy:
    def test_constant_weight_closed_form(self, s4_fine, sphere_volume_exact):
        """At tau = 1/6 on the unit round sphere the constrained constant
        weight gives W_- = tau scal + log(V s_m) - m."""
        tau = 1.0 / 6.0
        m = s4_fine.m
        V = total_volume(s4_fine)
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
        omega_c = math.sqrt(1.0 / (sm * V))
        w_val = evaluate_w(s4_fine, np.full(s4_fine.grid.N, omega_c), tau,
                           "minus")
        closed = tau * 12.0 + math.log(V / (4.0 * math.pi * tau) ** 2) - 4.0
        assert abs(V - sphere_volume_exact) < 1e-4 * sphere_volume_exact
        assert abs(w_val - closed) < 1e-10

    def test_variant_difference_identity(self, s4_fine):
        # W_+ - W_- = s_m int (4 omega^2 log omega + 2 m omega^2) dV
        tau = 0.3
        m = s4_fine.m
        u = 0.5 + s4_fine.grid.x ** 2 / (1.0 + s4_fine.grid.x)
        wp = evaluate_w(s4_fine, u, tau, "plus")
        wm = evaluate_w(s4_fine, u, tau, "minus")
        w = volume_form(s4_fine)
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
        ident = sm * float(np.sum(w * (4 * u * u * np.log(u) + 2 * m * u * u)))
        assert abs((wp - wm) - ident) < 1e-12 * max(1.0, abs(ident))

    def test_parabolic_rescaling_invariance(self, s4_fine):
        # W(g, omega, tau) = W(c g, omega, c tau): the weight is a scalar
        # density against the normalized measure and does not rescale
        tau, c = 0.3, 2.7
        m = s4_fine.m
        u = 0.5 + s4_fine.grid.x ** 2 / (1.0 + s4_fine.grid.x)
        w = volume_form(s4_fine)
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
        u = u / math.sqrt(sm * float(u @ (w * u)))
        w1 = evaluate_w(s4_fine, u, tau, "minus")
        w2 = evaluate_w(scaled(s4_fine, c), u, c * tau, "minus")
        for met, t in ((s4_fine, tau), (scaled(s4_fine, c), c * tau)):
            sm_t = (4.0 * math.pi * t) ** (-m / 2.0)
            assert abs(sm_t * float(u @ (volume_form(met) * u)) - 1.0) < 1e-12
        assert abs(w1 - w2) < 1e-8

    def test_input_validation(self, s4_fine):
        u = np.ones(s4_fine.grid.N)
        with pytest.raises(ValueError):
            evaluate_w(s4_fine, u, 0.0)
        with pytest.raises(ValueError):
            evaluate_w(s4_fine, u - 1.0, 0.3)
        with pytest.raises(ValueError, match="unknown variant 'zero'"):
            evaluate_w(s4_fine, u, 0.3, variant="zero")


class TestMu:
    def test_constant_scal_closed_form(self, s4_fine):
        """With constant scalar curvature the EL system is solved by the
        constrained constant weight, so mu = tau scal - 2 log omega_c - m."""
        tau = 1.0 / 6.0
        m = s4_fine.m
        V = total_volume(s4_fine)
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
        omega_c = math.sqrt(1.0 / (sm * V))
        rep = compute_mu(s4_fine, tau)
        closed = tau * 12.0 - 2.0 * math.log(omega_c) - m
        assert abs(rep.value - closed) < 1e-8
        assert rep.el_residual < 1e-8
        assert rep.constraint_residual < 1e-12

    @pytest.mark.parametrize("tau, variant",
                             [(0.3, "minus"), (0.5, "minus"), (1.0, "plus")])
    def test_value_is_w_at_the_el_solution(self, s3, tau, variant):
        """Pairing the EL equation with omega gives mu = W(omega): the
        reported value is the entropy of the reported weight, here on a
        perturbed S^4 whose minimizer is not constant."""
        grid = RadialGrid.graded(500, math.pi, p=1.0)
        s = np.sin(grid.x)
        met = geometry.RadialMetric(link=s3, grid=grid, a=np.ones(grid.N),
                                    b=s * (1.0 + 0.05 * s**2))
        rep = compute_mu(met, tau, variant=variant)
        assert np.ptp(rep.omega) > 0.05 * np.max(rep.omega)
        w = evaluate_w(met, rep.omega, tau, variant)
        assert abs(w - rep.value) < 1e-10 * abs(rep.value)

    def test_normalization_identity_at_optimal_tau(self, s4_fine):
        # s_m int f e^{-f} dV = m/2 + mu holds when tau is also stationary;
        # tau = 1/6 is the optimum on the unit round sphere
        rep = compute_mu(s4_fine, 1.0 / 6.0)
        gap = rep.normalization_identity - (s4_fine.m / 2.0 + rep.value)
        assert abs(gap) < 1e-6

    def test_upper_bounded_by_constant_trial(self, s4_fine):
        tau = 1.0 / 6.0
        m = s4_fine.m
        V = total_volume(s4_fine)
        sm = (4.0 * math.pi * tau) ** (-m / 2.0)
        omega_c = math.sqrt(1.0 / (sm * V))
        w_const = evaluate_w(s4_fine, np.full(s4_fine.grid.N, omega_c), tau,
                             "minus")
        assert compute_mu(s4_fine, tau).value <= w_const + 1e-10

    def test_expander_variant_residuals(self, s4_fine):
        rep = compute_mu(s4_fine, 0.5, variant="plus")
        assert rep.el_residual < 1e-8
        assert rep.constraint_residual < 1e-12

    def test_basin_bookkeeping(self, s4_fine):
        rep = compute_mu(s4_fine, 1.0 / 6.0)
        assert len(rep.basin_values) >= 1
        assert rep.basin_values == tuple(sorted(rep.basin_values))
        assert rep.nonconvex is False

    def test_tau_must_be_positive(self, s4_fine):
        with pytest.raises(ValueError):
            compute_mu(s4_fine, -0.1)

    def test_unknown_variant_and_start_rejected(self, s4_fine):
        with pytest.raises(ValueError, match="unknown variant 'zero'"):
            compute_mu(s4_fine, 0.3, variant="zero")
        with pytest.raises(ValueError, match="unknown start 'bogus'"):
            compute_mu(s4_fine, 0.3, starts=("bogus",))

    @pytest.mark.parametrize("tau", [1e-300, 1e300])
    def test_tau_without_a_finite_scale_factor_rejected(self, s4_fine, tau):
        # (4 pi tau)^{-m/2} overflows or underflows: the message names tau,
        # not the errno tuple of Python's OverflowError
        with pytest.raises(ValueError, match=r"tau = .* out of range"):
            compute_mu(s4_fine, tau)


class TestNu:
    def test_shrinker_optimal_tau_on_sphere(self, nu_minus_s4):
        assert abs(nu_minus_s4.tau_star - 1.0 / 6.0) < 1e-3
        assert abs(nu_minus_s4.lambda_value - 12.0) < 1e-6
        assert abs(nu_minus_s4.value - (-0.20824053078913735)) < 1e-6

    def test_shrinker_solution_quality(self, nu_minus_s4):
        rep = nu_minus_s4.mu_report
        assert rep.el_residual < 1e-8
        assert rep.constraint_residual < 1e-12
        gap = rep.normalization_identity - (2.0 + rep.value)
        assert abs(gap) < 1e-6

    def test_expander_on_hyperbolic_cone(self, nu_plus_hyp):
        assert abs(nu_plus_hyp.lambda_value + 12.0) < 1e-8
        assert abs(nu_plus_hyp.value - (-0.4799818256327178)) < 1e-6
        assert abs(nu_plus_hyp.tau_star - 1.0 / 6.0) < 1e-2
        rep = nu_plus_hyp.mu_report
        assert rep.el_residual < 1e-8
        assert rep.constraint_residual < 1e-12
        # expander sign in the stationarity identity
        gap = rep.normalization_identity - (2.0 - rep.value)
        assert abs(gap) < 1e-5

    def test_profile_brackets_optimum(self, nu_minus_s4):
        assert np.min(nu_minus_s4.mu_profile) >= nu_minus_s4.value - 1e-12
        assert len(nu_minus_s4.tau_profile) == len(nu_minus_s4.mu_profile)

    def test_scale_invariance(self, s3):
        met = sphere_suspension(s3, 800, radius=1.0, p=2.0)
        n1 = compute_nu(met, "minus")
        n2 = compute_nu(scaled(met, 2.0), "minus")
        assert abs(n2.value - n1.value) < 1e-5
        assert abs(n2.tau_star - 2.0 * n1.tau_star) < 1e-3 * n1.tau_star

    def test_curvature_and_ground_state_derived_once(self, monkeypatch):
        """The curvature and the tau-independent lambda ground state are
        computed once per metric, however many tau slices compute_nu
        samples."""
        calls = {"_ricci_pair": 0, "solve_ground_state": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        count(geometry, "_ricci_pair")
        count(spectral, "solve_ground_state")
        met = sphere_suspension(linkmod.sphere_link(3, 12), 120, p=2.0)
        rep = compute_nu(met, "minus")
        assert len(rep.tau_profile) > 30
        assert calls == {"_ricci_pair": 1, "solve_ground_state": 1}

    def test_sign_preconditions(self, s3, hyperbolic_metric):
        met = sphere_suspension(s3, 300, radius=1.0)
        with pytest.raises(ValueError):
            compute_nu(met, "plus")
        with pytest.raises(ValueError):
            compute_nu(hyperbolic_metric, "minus")


class TestFirstVariation:
    def test_trace_free_direction_on_einstein(self, s4_fine, s4_lambda):
        # Ric + Hess f = 3 g on the round sphere, so any trace-free h pairs
        # to zero: h_rad / a^2 + n h_link = 0 with a = 1
        x = s4_fine.grid.x
        chi = smooth_cutoff(np.abs(x - math.pi / 2.0), 0.5, 1.2)
        h_link = 0.3 * np.sin(x) * chi
        h_rad = -3.0 * h_link
        dv = first_variation_lambda(s4_fine, s4_lambda, h_rad, h_link)
        assert abs(dv) < 1e-8

    def test_diffeomorphism_invariance(self, s4_fine, s4_lambda):
        x = s4_fine.grid.x
        chi = smooth_cutoff(np.abs(x - math.pi / 2.0), 0.5, 1.2)
        xi = 0.05 * np.sin(x) ** 2 * chi
        h_rad, h_link = lie_derivative_tensor(s4_fine, xi)
        dv = first_variation_lambda(s4_fine, s4_lambda, h_rad, h_link)
        assert abs(dv) < 1e-6

    def test_finite_difference_convergence(self, s3):
        """Central differences of lambda converge to the variation formula
        at second order.  The raw errors plateau at the discretization gap
        between the continuum formula and the discrete minimum, so the order
        is read off the successive differences."""
        grid = RadialGrid.graded(1200, 1.0, p=2.0)
        pc = perturbed_cone(s3, grid, amplitude=0.05, exponent=2.0,
                            cutoff=0.7)
        rep = compute_lambda(pc)
        x = grid.x
        chi = smooth_cutoff(np.abs(x - 0.5), 0.1, 0.3)
        h_rad = 0.5 * np.sin(6.0 * x) * chi
        h_link = 0.3 * np.cos(4.0 * x) * chi
        dv = first_variation_lambda(pc, rep, h_rad, h_link)
        errs = []
        for eps in (1.6e-2, 8e-3, 4e-3, 2e-3):
            lp = compute_lambda(perturb_metric(pc, h_rad, h_link, eps)).value
            lm = compute_lambda(perturb_metric(pc, h_rad, h_link, -eps)).value
            errs.append(abs((lp - lm) / (2.0 * eps) - dv))
        for i in range(len(errs) - 2):
            slope = math.log2((errs[i] - errs[i + 1])
                              / (errs[i + 1] - errs[i + 2]))
            assert 1.6 < slope < 2.4

    def test_requires_positive_minimizer(self, s4_fine, s4_lambda):
        bad_omega = s4_lambda.omega.copy()
        bad_omega[0] = 0.0
        bad = dataclasses.replace(s4_lambda, omega=bad_omega)
        with pytest.raises(ValueError):
            first_variation_lambda(s4_fine, bad, bad_omega, bad_omega)
