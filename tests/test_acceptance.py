"""Acceptance suite: one property-based check per advertised guarantee.

Each test prints a single pass/fail line (visible under pytest -s or on
failure) and then asserts.  Criterion 6 checks the tip rate of the operator
4 Lap + scal on a gamma = 2 perturbed cone, sector by sector.  In the
lambda_1 link-mode sector the ground state leaves the tip at the slowest
admissible rate gamma_bar = mu_plus(lambda_1) = 1, inside the window
[0.9, 1.3].  In the mode-0 sector the radial entropy minimizer deviates from
its tip constant at the perturbation order 2, which meets the bound
gamma_bar.  The slower of the two rates equals gamma_bar.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conelab import entropy, flow, geometry, heat, link as linkmod, spectral
from conelab.geometry import (
    RadialGrid,
    flat_cone,
    perturb_metric,
    perturbed_cone,
    smooth_cutoff,
    sphere_suspension,
    volume_form,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{tail}")
    assert ok, f"acceptance criterion {num} ({name}){tail}"


def test_01_flat_kernel_equality():
    rng = np.random.default_rng(42)
    ns = 100
    t = np.exp(rng.uniform(math.log(0.01), 0.0, ns))
    x = rng.uniform(0.1, 2.0, ns)
    y = rng.uniform(0.1, 2.0, ns)
    dth = rng.uniform(-math.pi, math.pi, ns)
    start = time.time()
    err = heat.s1_plane_kernel_error(t, x, y, dth)
    elapsed = time.time() - start
    _verdict(1, "cone-over-circle kernel equals planar Gaussian",
             err < 1e-8 and elapsed < 2.0,
             f"max rel err {err:.2e}, {elapsed:.2f}s")


def test_02_radial_mode_flat_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for ti, xi, yi in zip(np.exp(rng.uniform(math.log(0.01), 0.0, 50)),
                          rng.uniform(0.1, 2.0, 50),
                          rng.uniform(0.1, 2.0, 50)):
        integrand = lambda th: (math.exp(-(xi * xi + yi * yi
                                           - 2 * xi * yi * math.cos(th))
                                         / (4 * ti))
                                * 4 * math.pi * math.sin(th) ** 2)
        val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12)
        oracle = val / (4 * math.pi * ti) ** 2
        mine = heat.cone_kernel_mode(3, 1.0, ti, xi, yi)
        worst = max(worst, abs(mine - oracle) / abs(oracle))
    mass_err = abs(heat.kernel_mass(3, 0.01, 1.0) - 1.0)
    _verdict(2, "mode-0 kernel equals sphere-averaged Gaussian",
             worst < 1e-6 and mass_err < 1e-8,
             f"max rel err {worst:.2e}, mass err {mass_err:.2e}")


def test_03_lambda_round_sphere(s3, s4_lambda):
    err_fine = abs(s4_lambda.value - 12.0)
    errs = [abs(entropy.compute_lambda(
        sphere_suspension(s3, N, radius=1.0, p=2.0)).value - 12.0)
        for N in (500, 1000, 2000)]
    # the constant minimizer is exact at every resolution, so refinement
    # cannot reduce the error further once it sits at the roundoff floor;
    # that counts as converged at any order
    floor = 1e-9 * 12.0
    if max(errs) < floor:
        order_ok = True
        detail = f"err {err_fine:.2e}; below roundoff floor at all N"
    else:
        order = math.log2(errs[-2] / errs[-1])
        order_ok = order >= 1.8
        detail = f"err {err_fine:.2e}; fitted order {order:.2f}"
    _verdict(3, "lambda of the round sphere", err_fine < 1e-3 and order_ok,
             detail)


def test_04_scaling_identities(s3, s4_fine, s4_lambda):
    lam4 = entropy.compute_lambda(s4_fine.scaled(4.0)).value
    rel = abs(4.0 * lam4 - s4_lambda.value) / abs(s4_lambda.value)
    met = sphere_suspension(s3, 800, radius=1.0, p=2.0)
    n1 = entropy.compute_nu(met, "minus")
    n2 = entropy.compute_nu(met.scaled(2.0), "minus")
    nu_diff = abs(n2.value - n1.value)
    _verdict(4, "lambda and nu scaling identities",
             rel < 1e-6 and nu_diff < 1e-5,
             f"lambda rel {rel:.2e}, nu diff {nu_diff:.2e}")


def test_05_minimizer_residuals_and_w_identity(s3, s4_fine, s4_lambda,
                                               hyperbolic_metric):
    reports = {
        "lambda": (s4_lambda.el_residual, s4_lambda.constraint_residual),
    }
    for variant, tau in (("minus", 1.0 / 6.0), ("plus", 0.5)):
        rep = entropy.compute_mu(s4_fine, tau, variant=variant)
        reports[f"mu_{variant}"] = (rep.el_residual, rep.constraint_residual)
    nmet = sphere_suspension(s3, 800, radius=1.0, p=2.0)
    nrep = entropy.compute_nu(nmet, "minus").mu_report
    reports["nu_minus"] = (nrep.el_residual, nrep.constraint_residual)
    prep = entropy.compute_nu(hyperbolic_metric, "plus").mu_report
    reports["nu_plus"] = (prep.el_residual, prep.constraint_residual)
    residuals_ok = all(el < 1e-8 and cons < 1e-12
                       for el, cons in reports.values())
    # algebraic difference of the two W variants
    tau, m = 0.3, s4_fine.m
    u = 0.5 + s4_fine.grid.x ** 2 / (1.0 + s4_fine.grid.x)
    wp = entropy.evaluate_w(s4_fine, u, tau, "plus")
    wm = entropy.evaluate_w(s4_fine, u, tau, "minus")
    w = volume_form(s4_fine)
    sm = (4.0 * math.pi * tau) ** (-m / 2.0)
    ident = sm * float(np.sum(w * (4 * u * u * np.log(u) + 2 * m * u * u)))
    id_err = abs((wp - wm) - ident)
    worst_el = max(el for el, _ in reports.values())
    _verdict(5, "residuals of all reported minimizers",
             residuals_ok and id_err < 1e-12,
             f"worst EL {worst_el:.2e}, W identity {id_err:.2e}")


def test_06_minimizer_asymptotics(perturbed_metric):
    # The slowest admissible tip rate gamma_bar = min(gamma, mu_plus(lambda_1))
    # is a bound on how fast the minimizer settles to its tip constant.  The
    # metric is radial, so the lambda-minimizer lives in the mode-0 sector,
    # whose indicial roots are 0 and -(n-1): its deviation is driven by the
    # O(x^gamma) metric perturbation.  The rate mu_plus(lambda_1) is carried
    # by the lambda_1 link-mode sector of the same operator 4 Lap + scal.
    metric = perturbed_metric
    link = metric.link
    gamma = metric.gamma
    gamma_bar = spectral.indicial_exponents(link, gamma).gamma_bar
    rep = entropy.compute_lambda(metric)
    op1 = spectral.RadialOperator(metric, q=1.0, mode=link.lambda_1, c=4.0)
    _, u1 = spectral.solve_ground_state(op1)
    _, e1, fr1 = spectral.fit_asymptotics(u1, metric.grid)
    _, e0, fr0 = spectral.fit_asymptotics(rep.omega, metric.grid)
    link_mode_ok = 0.9 <= e1 <= 1.3
    radial_ok = e0 >= gamma_bar - 0.1 and abs(e0 - gamma) <= 0.1
    slowest_ok = abs(min(e0, e1) - gamma_bar) <= 0.1
    _verdict(6, "minimizer tip exponent in the slow admissible window",
             link_mode_ok and radial_ok and slowest_ok,
             f"lambda_1 sector {e1:.4f} (fit residual {fr1:.2e}), "
             f"radial {e0:.4f} (fit residual {fr0:.2e}), "
             f"gamma {gamma}, gamma_bar {gamma_bar}")


def test_07_mapping_exponents(s3):
    rows = {}
    for N in (1.0, 2.0, 2.5, 3.0):
        rep = heat.mapping_exponent_report(s3, N)
        rows[N] = rep
    ok = all(rep["pass"] for rep in rows.values())
    kinds = ", ".join(f"N={N:g}:{rep['spatial']['kind']}"
                      for N, rep in rows.items())
    _verdict(7, "heat-kernel mapping exponent table", ok, kinds)


def test_08_semigroup_and_first_variation(s3, s4_fine, s4_lambda):
    grid = RadialGrid.graded(400, 3.0, p=2.0)
    u0 = lambda y: np.exp(-((y - 0.8) / 0.15) ** 2)
    a1 = heat.heat_apply(s3, 0.004, u0, grid)
    a12 = heat.heat_apply(s3, 0.006, a1.values, grid).values
    direct = heat.heat_apply(s3, 0.010, u0, grid).values
    semi = np.max(np.abs(a12 - direct)) / np.max(np.abs(direct))

    g = RadialGrid.graded(1200, 1.0, p=2.0)
    pc = perturbed_cone(s3, g, amplitude=0.05, exponent=2.0, cutoff=0.7)
    rep = entropy.compute_lambda(pc)
    x = g.x
    chi = smooth_cutoff(np.abs(x - 0.5), 0.1, 0.3)
    h_rad = 0.5 * np.sin(6.0 * x) * chi
    h_link = 0.3 * np.cos(4.0 * x) * chi
    dv = entropy.first_variation_lambda(pc, rep, h_rad, h_link)
    errs = []
    for eps in (1.6e-2, 8e-3, 4e-3, 2e-3):
        lp = entropy.compute_lambda(perturb_metric(pc, h_rad, h_link, eps))
        lm = entropy.compute_lambda(perturb_metric(pc, h_rad, h_link, -eps))
        errs.append(abs((lp.value - lm.value) / (2.0 * eps) - dv))
    slopes = [math.log2((errs[i] - errs[i + 1]) / (errs[i + 1] - errs[i + 2]))
              for i in range(len(errs) - 2)]
    order_ok = all(1.6 < s < 2.4 for s in slopes)

    x4 = s4_fine.grid.x
    chi4 = smooth_cutoff(np.abs(x4 - math.pi / 2.0), 0.5, 1.2)
    xi = 0.05 * np.sin(x4) ** 2 * chi4
    hr, hl = geometry.lie_derivative_tensor(s4_fine, xi)
    diffeo = abs(entropy.first_variation_lambda(s4_fine, s4_lambda, hr, hl))
    _verdict(8, "semigroup, first-variation order, diffeo invariance",
             semi < 1e-6 and order_ok and diffeo < 1e-6,
             f"semigroup {semi:.2e}, slopes "
             + "/".join(f"{s:.2f}" for s in slopes)
             + f", diffeo {diffeo:.2e}")


def test_09_flow_fixed_points_and_monotonicity(s3):
    start = time.time()
    g1 = RadialGrid.graded(300, 1.0, p=1.0)
    fc = flat_cone(s3, g1)
    cfg1 = flow.FlowConfig(t_end=1e-3, normalization="steady",
                           entropy_kind="none")
    tr1 = flow.run_flow(fc, cfg1)
    drift_fc = max(np.max(np.abs(tr1[-1].metric.a - fc.a)),
                   np.max(np.abs(tr1[-1].metric.b - fc.b))) / cfg1.t_end

    sph = sphere_suspension(s3, 300, radius=math.sqrt(3.0))
    cfg2 = flow.FlowConfig(t_end=1e-3, normalization="shrink",
                           entropy_kind="none")
    tr2 = flow.run_flow(sph, cfg2)
    drift_sp = max(np.max(np.abs(tr2[-1].metric.a - sph.a)),
                   np.max(np.abs(tr2[-1].metric.b - sph.b))) / cfg2.t_end

    g3 = RadialGrid.graded(800, 2.0, p=1.0)
    pert = perturbed_cone(s3, g3, amplitude=0.01, exponent=2.0, cutoff=0.7)
    T = 0.004
    cfg3 = flow.FlowConfig(t_end=T, normalization="steady",
                           entropy_kind="lambda", sample_period=T / 55.0,
                           reference=flat_cone(s3, g3))
    tr3 = flow.run_flow(pert, cfg3)
    mono = flow.monotonicity_report(tr3, cfg3)
    elapsed = time.time() - start
    ok = (drift_fc < 1e-8 and drift_sp < 1e-8
          and len(tr3) >= 50 and mono.min_successive_diff >= -1e-7
          and tr3[-1].sup_ric < tr3[0].sup_ric and elapsed < 300.0)
    _verdict(9, "flow fixed points and entropy monotonicity", ok,
             f"drifts {drift_fc:.2e}/{drift_sp:.2e}, "
             f"{len(tr3)} samples, min diff {mono.min_successive_diff:.2e}, "
             f"sup Ric {tr3[0].sup_ric:.3f}->{tr3[-1].sup_ric:.3f}, "
             f"{elapsed:.0f}s")


def test_10_tangential_stability_logic(s3):
    base = linkmod.sphere_link(3, 6)
    with_tt = linkmod.LinkData(n=3, scal_F=6.0, vol_F=base.vol_F,
                               laplace_spectrum=base.laplace_spectrum,
                               truncation_note=base.truncation_note,
                               einstein_tt_spectrum=(0.5, 2.0))
    v1 = linkmod.check_tangential_stability(with_tt)
    bad = linkmod.LinkData(n=3, scal_F=6.0, vol_F=base.vol_F,
                           laplace_spectrum=((0.0, 1), (5.0, 4), (9.0, 9)),
                           truncation_note=9.0, einstein_tt_spectrum=(1.0,))
    v2 = linkmod.check_tangential_stability(bad)
    try:
        linkmod.check_tangential_stability(linkmod.sphere_link(3, 1))
        truncation_raised = False
    except linkmod.SpectrumTruncationError:
        truncation_raised = True
    ok = (v1 == linkmod.STABLE_NOT_STRICT and v2 == linkmod.UNSTABLE
          and truncation_raised)
    _verdict(10, "tangential stability classification", ok,
             f"{v1}, {v2}, truncation error raised: {truncation_raised}")


def test_11_indicial_table(s3):
    ind = spectral.indicial_exponents(s3, gamma=2.0)
    ok = ind.nu[0] == 1.0 and ind.gamma_bar == 1.0
    _verdict(11, "indicial exponents of the round-sphere link", ok,
             f"nu(0) = {ind.nu[0]}, gamma_bar = {ind.gamma_bar}")
