"""De Turck flow: gauge field, right-hand side, fixed points, monotonicity."""

import math

import numpy as np
import pytest
import sympy as sp

from conelab import entropy, flow, geometry, link as linkmod, spectral
from conelab.cli import CONFIG_SCHEMA
from conelab.flow import (
    FlowConfig,
    FlowError,
    deturck_vector_field,
    flow_rhs,
    monotonicity_report,
    run_flow,
)
from conelab.geometry import (
    RadialGrid,
    RadialMetric,
    flat_cone,
    perturbed_cone,
    smooth_cutoff,
    sphere_suspension,
)

from conftest import scaled


class TestDeTurckField:
    def test_returns_plain_array(self, s3):
        met = sphere_suspension(s3, 100, radius=1.0)
        assert type(deturck_vector_field(scaled(met, 2.0), met)) is np.ndarray

    def test_vanishes_at_reference(self, s3):
        met = sphere_suspension(s3, 400, radius=1.0)
        w = deturck_vector_field(met, met)
        assert np.max(np.abs(w)) < 1e-12

    def test_vanishes_for_homothety_of_reference(self, s3):
        g = RadialGrid.graded(400, 1.0, p=2.0)
        ref = flat_cone(s3, g)
        w = deturck_vector_field(scaled(ref, 4.0), ref)
        assert np.max(np.abs(w)) < 1e-12

    def test_symbolic_oracle(self, s3):
        """Generic metric and reference pair against the symbolic formula
        w = (a'/a - r_a'/r_a)/a^2 + n (r_b r_b'/(r_a^2 b^2) - b'/(a^2 b))
        differentiated exactly by sympy."""
        xs = sp.symbols("x", positive=True)
        a_s = 1 + xs**2 / 4
        b_s = xs * (1 + xs**2)
        ra_s = 1 + xs / 3
        rb_s = xs * (1 + xs / 2)
        n = 3
        w_s = ((sp.diff(a_s, xs) / a_s - sp.diff(ra_s, xs) / ra_s) / a_s**2
               + n * (rb_s * sp.diff(rb_s, xs) / (ra_s**2 * b_s**2)
                      - sp.diff(b_s, xs) / (a_s**2 * b_s)))
        w_fn = sp.lambdify(xs, sp.simplify(w_s), "numpy")
        g = RadialGrid.graded(1000, 1.0, p=2.0)
        a_fn = sp.lambdify(xs, a_s, "numpy")
        b_fn = sp.lambdify(xs, b_s, "numpy")
        met = RadialMetric(link=s3, grid=g, a=a_fn(g.x), b=b_fn(g.x))
        ref = RadialMetric(link=s3, grid=g,
                           a=sp.lambdify(xs, ra_s, "numpy")(g.x),
                           b=sp.lambdify(xs, rb_s, "numpy")(g.x))
        w = deturck_vector_field(met, ref)
        sl = slice(20, -20)
        scale = np.max(np.abs(w_fn(g.x[sl])))
        assert np.max(np.abs(w[sl] - w_fn(g.x[sl]))) < 1e-6 * scale

    def test_mismatched_inputs_rejected(self, s3):
        g = RadialGrid.graded(200, 1.0)
        met = flat_cone(s3, g)
        with pytest.raises(ValueError):
            deturck_vector_field(met, flat_cone(s3, RadialGrid.graded(250, 1.0)))
        with pytest.raises(ValueError):
            deturck_vector_field(met, flat_cone(linkmod.sphere_link(3, 6), g))


class TestFlowRHS:
    def test_flat_cone_is_steady_fixed_point(self, s3):
        g = RadialGrid.graded(400, 1.0, p=1.0)
        met = flat_cone(s3, g)
        da, db = flow_rhs(met, met, 0.0)
        sel = g.x >= 0.05
        assert np.max(np.abs(da[sel])) < 1e-6
        assert np.max(np.abs(db[sel])) < 1e-6

    def test_scaled_flat_cone_also_steady(self, s3):
        g = RadialGrid.graded(400, 1.0, p=1.0)
        ref = flat_cone(s3, g)
        da, db = flow_rhs(scaled(ref, 4.0), ref, 0.0)
        sel = g.x >= 0.05
        assert np.max(np.abs(da[sel])) < 1e-6
        assert np.max(np.abs(db[sel])) < 1e-6

    def test_round_sphere_is_shrink_fixed_point(self, s3):
        # Ric = g exactly at radius sqrt(3) (so kappa = +1 balances it)
        met = sphere_suspension(s3, 500, radius=math.sqrt(3.0))
        da, db = flow_rhs(met, met, 1.0)
        sl = slice(10, -10)
        assert np.max(np.abs(da[sl])) < 1e-8
        assert np.max(np.abs(db[sl])) < 1e-8

    def test_linearization_is_second_order(self, s3):
        """Central differences of the right-hand side in a compactly
        supported b direction converge at second order (slope of the
        successive differences of the divided differences)."""
        g = RadialGrid.graded(300, 1.0, p=1.0)
        fc = flat_cone(s3, g)
        x = g.x
        hb = 0.5 * x * np.sin(5.0 * x) * smooth_cutoff(np.abs(x - 0.5),
                                                       0.1, 0.25)

        def rhs_at(eps):
            met = RadialMetric(link=s3, grid=g, a=fc.a.copy(),
                               b=fc.b + eps * hb)
            da, db = flow_rhs(met, fc, 0.0)
            return np.concatenate([da, db])

        deriv = [(rhs_at(eps) - rhs_at(-eps)) / (2.0 * eps)
                 for eps in (4e-3, 2e-3, 1e-3)]
        d1 = np.linalg.norm(deriv[0] - deriv[1])
        d2 = np.linalg.norm(deriv[1] - deriv[2])
        assert abs(math.log2(d1 / d2) - 2.0) < 0.2

    def test_non_finite_rates_rejected(self, s3):
        # b = 1e-200 at an interior node overflows the 1/b^2 terms
        g = RadialGrid.graded(100, 1.0, p=1.0)
        b = flat_cone(s3, g).b.copy()
        b[50] = 1e-200
        met = RadialMetric(link=s3, grid=g, a=np.ones(g.N), b=b)
        with np.errstate(all="ignore"), \
                pytest.raises(FlowError, match="non-finite flow right-hand"):
            flow_rhs(met, met, 0.0)


class TestImplicitBands:
    @staticmethod
    def _frozen(N, n_frozen):
        frozen = np.zeros(N, dtype=bool)
        frozen[:n_frozen] = True
        frozen[N - n_frozen:] = True
        return frozen

    @staticmethod
    def _d3_dense(g):
        x, N = g.x, g.N
        D3 = np.zeros((N, N))
        for i in range(1, N - 1):
            hm, hp = x[i] - x[i - 1], x[i + 1] - x[i]
            D3[i, i - 1:i + 2] = (2.0 / (hm * (hm + hp)), -2.0 / (hm * hp),
                                  2.0 / (hp * (hm + hp)))
        return D3

    @staticmethod
    def _dense(ab):
        # tridiagonal storage: ab[1 + i - j, j] = A[i, j]
        return np.diag(ab[0, 1:], 1) + np.diag(ab[1]) + np.diag(ab[2, :-1], -1)

    def _expected(self, g, coeff, dt, frozen):
        expect = np.eye(g.N) - dt * coeff[:, None] * self._d3_dense(g)
        expect[frozen] = np.eye(g.N)[frozen]
        return expect

    def test_equals_dense_operator(self):
        g = RadialGrid.graded(40, 1.0, p=2.0)
        coeff = np.random.default_rng(3).uniform(0.5, 2.0, g.N)
        frozen = self._frozen(g.N, 4)
        ab = flow._implicit_bands(g, coeff, 1e-3, frozen)
        assert ab.shape == (3, g.N)
        assert np.array_equal(self._dense(ab),
                              self._expected(g, coeff, 1e-3, frozen))

    def test_d3_exact_on_quadratics(self):
        g = RadialGrid.graded(200, 2.0, p=2.0)
        lo, mid, hi = g._d3
        inner = slice(1, -1)
        for u, exact in ((np.ones(g.N), 0.0), (g.x, 0.0), (g.x**2, 2.0)):
            terms = np.array([lo[inner] * u[:-2], mid[inner] * u[inner],
                              hi[inner] * u[2:]])
            err = np.abs(terms.sum(axis=0) - exact)
            assert np.all(err <= 8 * np.finfo(float).eps
                          * np.abs(terms).sum(axis=0))
        assert not g._d3[:, [0, -1]].any()

    def test_live_end_row_rejected(self):
        # the end rows have no centred 3-point stencil
        g = RadialGrid.graded(40, 1.0, p=2.0)
        for end in (0, -1):
            frozen = self._frozen(g.N, 4)
            frozen[end] = False
            with pytest.raises(FlowError, match="end row"):
                flow._implicit_bands(g, np.ones(g.N), 1e-3, frozen)

    def test_cached_layout_checks_each_frozen_mask(self):
        # the grid caches its 3-point weights on the first call; every later
        # call must still build its own mask's rows and check its end rows
        g = RadialGrid.graded(40, 1.0, p=2.0)
        rng = np.random.default_rng(5)
        for n_frozen, dt in ((4, 1e-3), (0, 3e-4), (1, 5e-4), (6, 2e-3)):
            coeff = rng.uniform(0.5, 2.0, g.N)
            frozen = self._frozen(g.N, n_frozen)
            if n_frozen == 0:
                with pytest.raises(FlowError):
                    flow._implicit_bands(g, coeff, dt, frozen)
                continue
            ab = flow._implicit_bands(g, coeff, dt, frozen)
            assert np.array_equal(self._dense(ab),
                                  self._expected(g, coeff, dt, frozen))
        assert g._d3 is g.__dict__["_d3"]


class TestSlavedBands:
    @staticmethod
    def _spread(u, u0):
        q = u / u0
        return np.ptp(q) / abs(q[0])

    @pytest.mark.parametrize("case", ["perturbed_cone", "sphere_suspension"])
    def test_bands_keep_their_initial_profile(self, s3, case):
        # every sample, both fields: the tip band, and a smooth cap, scale
        # with the nearest live node; a truncation band keeps its values
        if case == "perturbed_cone":
            g = RadialGrid.graded(200, 2.0, p=1.0)
            met = perturbed_cone(s3, g, amplitude=0.01, exponent=2.0,
                                 cutoff=0.7)
            cfg = FlowConfig(t_end=0.004, reference=flat_cone(s3, g),
                             entropy=False, samples=10)
        else:
            met = sphere_suspension(s3, 300, radius=1.0)
            cfg = FlowConfig(t_end=0.01, entropy=False, samples=10)
        traj = run_flow(met, cfg)
        assert met.has_cap == (case == "sphere_suspension")
        assert traj[-1].t == cfg.t_end and len(traj) == 11
        for state in traj:
            for u, u0 in ((state.metric.a, met.a), (state.metric.b, met.b)):
                assert self._spread(u[:4], u0[:4]) <= 1e-12
                if met.has_cap:
                    assert self._spread(u[-5:-1], u0[-5:-1]) <= 1e-12
                else:
                    assert np.array_equal(u[-4:], u0[-4:])


class TestFixedPointRuns:
    def test_flat_cone_does_not_drift(self, s3):
        g = RadialGrid.graded(300, 1.0, p=1.0)
        met = flat_cone(s3, g)
        cfg = FlowConfig(t_end=1e-3, normalization="steady",
                         entropy=False)
        traj = run_flow(met, cfg)
        drift = max(np.max(np.abs(traj[-1].metric.a - met.a)),
                    np.max(np.abs(traj[-1].metric.b - met.b)))
        assert drift / cfg.t_end < 1e-8

    def test_round_sphere_shrink_does_not_drift(self, s3):
        met = sphere_suspension(s3, 300, radius=math.sqrt(3.0))
        cfg = FlowConfig(t_end=1e-3, normalization="shrink",
                         entropy=False)
        traj = run_flow(met, cfg)
        drift = max(np.max(np.abs(traj[-1].metric.a - met.a)),
                    np.max(np.abs(traj[-1].metric.b - met.b)))
        assert drift / cfg.t_end < 1e-8

    @pytest.mark.parametrize("N", [300, 600, 800, 1200])
    def test_round_sphere_shrink_fixed_point_on_fine_grids(self, s3, N):
        # Ric = g at radius sqrt(3), so the shrink flow keeps the round S^4
        # (the sphere has a smooth cap at both poles, where b vanishes)
        met = sphere_suspension(s3, N, radius=math.sqrt(3.0), p=1.0)
        cfg = FlowConfig(t_end=0.02, normalization="shrink",
                         entropy=False)
        final = run_flow(met, cfg)[-1].metric
        for u, u0 in ((final.a, met.a), (final.b, met.b)):
            drift = np.max(np.abs(u - u0)) / np.max(np.abs(u0))
            assert drift <= 1e-8 * cfg.t_end


    def test_tiny_t_end_ends_with_two_samples(self, s3):
        # every sample interval ends exactly on its sample time, however
        # small t_end is, and the last one on t_end
        grid = RadialGrid.graded(200, 2.0, p=1.0)
        met = perturbed_cone(s3, grid, amplitude=0.01, exponent=2.0,
                             cutoff=0.7)
        cfg = FlowConfig(t_end=1e-20, reference=flat_cone(s3, grid),
                         samples=55)
        assert [s.t for s in run_flow(met, cfg)] == [
            1e-20 * (j / 55) for j in range(56)]


class TestTimeAccuracy:
    def test_sup_ric_final_at_default_step_matches_small_step(self, s3):
        # sup |Ric| sits at the first live node, next to the slaved tip
        # band: a solve that couples that node to a stale band value leaves
        # an error linear in dt there (+28% at dt = 0.4 min(dx)^2)
        samples = CONFIG_SCHEMA["flow"]["samples"][1]
        g = RadialGrid.graded(200, 2.0, p=1.0)
        pert = perturbed_cone(s3, g, amplitude=0.01, exponent=2.0, cutoff=0.7)
        ref = flat_cone(s3, g)
        default, small = (
            run_flow(pert, FlowConfig(t_end=0.004, reference=ref,
                                      entropy=False, samples=n))[-1]
            for n in (samples, 20 * samples))
        assert abs(default.sup_ric / small.sup_ric - 1.0) < 0.01


class TestMonotonicity:
    def test_perturbed_cone_lambda_increases(self, s3):
        """Conically perturbed flat cone flows back toward the cone with
        monotone lambda, decaying curvature sup, pinned cone factor, and a
        tip deviation that keeps its decay order."""
        g = RadialGrid.graded(800, 2.0, p=1.0)
        pert = perturbed_cone(s3, g, amplitude=0.01, exponent=2.0, cutoff=0.7)
        ref = flat_cone(s3, g)
        T = 0.004
        cfg = FlowConfig(t_end=T, normalization="steady", samples=55,
                         reference=ref)
        traj = run_flow(pert, cfg)
        rep = monotonicity_report(traj, cfg)
        assert len(traj) >= 50
        assert rep.passed
        assert rep.min_successive_diff > 0.0
        assert traj[-1].sup_ric < 0.5 * traj[0].sup_ric
        assert abs(traj[-1].cone_factor / traj[0].cone_factor - 1.0) < 1e-3
        v = traj[-1].metric.b / ref.b - 1.0
        _, e, _ = spectral.fit_asymptotics(v, g)
        assert e >= 0.9 * 2.0

    def test_shrink_fixed_point_mu_constant(self, s3):
        met = sphere_suspension(s3, 300, radius=math.sqrt(3.0))
        cfg = FlowConfig(t_end=0.01, normalization="shrink", samples=5)
        traj = run_flow(met, cfg)
        rep = monotonicity_report(traj, cfg)
        assert rep.passed
        assert rep.constant
        assert rep.stationarity_ok
        assert rep.stationarity_sup < 1e-6

    def test_smooth_sphere_under_steady_flow(self, s3):
        # the unit sphere shrinks homothetically under the unnormalized
        # flow; lambda = 12/c(t) is strictly increasing along it.  Its
        # poles keep their cone angle, so the default drift guard holds
        met = sphere_suspension(s3, 300, radius=1.0)
        cfg = FlowConfig(t_end=0.01, normalization="steady", samples=10)
        traj = run_flow(met, cfg)
        vals = np.array([s.entropy_value for s in traj])
        assert abs(vals[0] - 12.0) < 1e-6
        assert np.min(np.diff(vals)) > 0.0

    def test_report_requires_matching_samples(self, s3):
        # a flow samples only the entropy its normalization makes monotone,
        # or none; a trajectory run with the entropy off has nothing to check
        cfg = FlowConfig(t_end=1e-4, entropy=False)
        traj = run_flow(flat_cone(s3, RadialGrid.graded(100, 1.0, p=1.0)), cfg)
        assert all(s.entropy_value is None for s in traj)
        with pytest.raises(FlowError, match="missing entropy samples"):
            monotonicity_report(traj, cfg)


class TestPreconditions:
    def test_inadmissible_perturbation_rejected(self, s3):
        g = RadialGrid.graded(300, 1.0, p=1.0)
        bad = flat_cone(s3, g, cone_factor=1.05)
        cfg = FlowConfig(t_end=1e-4, entropy=False,
                         reference=flat_cone(s3, g))
        with pytest.raises(FlowError, match="admissible"):
            run_flow(bad, cfg)

    def test_perturbation_vanishing_near_the_tip_is_admissible(self, s3):
        # a bump on 0.6 < x < 1.4 leaves the deviation exactly 0 on the
        # tip-fit window: it decays at every rate, and the flow runs
        g = RadialGrid.graded(400, 2.0, p=1.0)
        inside = (g.x > 0.6) & (g.x < 1.4)
        bump = np.where(inside, np.sin(np.pi * (g.x - 0.6) / 0.8) ** 4, 0.0)
        met = RadialMetric(link=s3, grid=g, a=np.ones(g.N),
                           b=g.x * (1.0 + 0.01 * bump))
        cfg = FlowConfig(t_end=0.004, reference=flat_cone(s3, g), samples=10)
        traj = run_flow(met, cfg)
        assert np.min(np.diff([s.entropy_value for s in traj])) > 0.0
        assert monotonicity_report(traj, cfg).passed

    def test_interior_neck_rejected(self, s3):
        # b dips to 0.01 x at x = 0.5: the nodes there fall under the tip
        # margin, so the frozen region is not two boundary bands
        g = RadialGrid.graded(200, 1.0, p=1.0)
        neck = 1.0 - 0.99 * np.exp(-(g.x - 0.5) ** 2 / 0.001)
        met = RadialMetric(link=s3, grid=g, a=np.ones(g.N), b=g.x * neck)
        with pytest.raises(FlowError, match="not two boundary bands"):
            run_flow(met, FlowConfig(t_end=1e-4, entropy=False))

    def test_unstable_link_rejected(self):
        bad_link = linkmod.LinkData(
            n=3, scal_F=6.0, vol_F=2.0 * math.pi**2,
            laplace_spectrum=((0.0, 1), (5.0, 4), (9.0, 9)),
            truncation_note=9.0, einstein_tt_spectrum=(1.0,))
        g = RadialGrid.graded(300, 1.0, p=1.0)
        with pytest.raises(FlowError, match="unstable"):
            run_flow(flat_cone(bad_link, g),
                     FlowConfig(t_end=1e-4, entropy=False))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(t_end=0.0)
        with pytest.raises(ValueError):
            FlowConfig(t_end=1.0, samples=0)
        with pytest.raises(ValueError):
            FlowConfig(t_end=1.0, normalization="slow")
        with pytest.raises(TypeError):
            FlowConfig(t_end=1.0, entropy_kind="lambda")  # the removed field

    def test_entropy_kind_auto_matches_normalization(self):
        # the sampled entropy is read off the normalization, and only read
        for norm, name in (("steady", "lambda"), ("shrink", "mu_minus"),
                           ("expand", "mu_plus")):
            cfg = FlowConfig(t_end=1.0, normalization=norm)
            assert cfg.entropy is True and cfg.entropy_name == name
            with pytest.raises(AttributeError):
                cfg.entropy_name = "lambda"
