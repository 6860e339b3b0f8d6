import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bihj import gaussian
from bihj.congruence import (
    CallableSource,
    FieldSource,
    LabelSet,
    integrate_congruence,
    invert_labels,
    trajectory_density,
)
from bihj.errors import (
    CongruenceCrossingError,
    ExtrapolationError,
    FocalPointError,
    PreconditionError,
    TrajectoryExitError,
)
from bihj.fields import derive_series
from bihj.reference import (
    InitialStateSpec,
    PhysicalParams,
    Potential,
    SpatialGrid,
    analytic_series,
    build_initial_state,
    evolve_crank_nicolson,
)

SIGMA0 = np.sqrt(0.5)


class TestLabelSet:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            LabelSet(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(PreconditionError):
            LabelSet(np.array([1.0]))

    def test_from_density_covers_floor_region(self, g):
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        labels = LabelSet.from_density(rho0, -10.0, 10.0, count=101, floor=1e-6)
        # the floor region of the gaussian reaches +-sigma0 sqrt(2 ln 1e6)
        edge = SIGMA0 * np.sqrt(2.0 * np.log(1e6))
        assert labels.values[0] == pytest.approx(-edge, abs=0.02)
        assert labels.values[-1] == pytest.approx(edge, abs=0.02)


class TestIntegration:
    def test_closed_form_paths(self, plus_congruence, minus_congruence, dbb_congruence):
        # targets from the closed-form path families
        i = plus_congruence.label_index(1.0)
        assert plus_congruence.q[-1, i] == pytest.approx(
            np.sqrt(2.0) * np.exp(-np.pi / 4.0), rel=1e-6)
        assert minus_congruence.q[-1, i] == pytest.approx(
            np.sqrt(2.0) * np.exp(np.pi / 4.0), rel=1e-6)
        assert dbb_congruence.q[-1, i] == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_mean_flow_action_matches_closed_form(self, g, labels, times, dbb_congruence):
        # the polar action rate m v^2/2 - Q integrated along the mean flow;
        # the largest error over all labels and times is 7.5e-13 (|chi| <= 7.6)
        exact = gaussian.chi_polar(g, labels.values[None, :], times[:, None])
        assert np.abs(dbb_congruence.chi - exact).max() < 1e-11

    def test_zero_velocity_field_is_static(self, labels, times):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        src = CallableSource(zero, zero, lambda x, t: 2.0 + 0.0 * np.asarray(x))
        c = integrate_congruence(src, labels, times, initial_actions=lambda q: 0.5 * q)
        assert np.abs(c.q - labels.values[None, :]).max() == 0.0
        assert np.abs(c.J - 1.0).max() == 0.0
        expected = 0.5 * labels.values[None, :] + 2.0 * times[:, None]
        assert np.abs(c.chi - expected).max() < 1e-12

    def test_rk4_convergence_order(self, g):
        labels = LabelSet.uniform(-2.0, 2.0, 5)
        src = CallableSource(*gaussian.velocity_field(g, "minus"))

        def err(dt):
            times = np.arange(0.0, 1.0 + dt / 2, dt)
            c = integrate_congruence(src, labels, times)
            exact = labels.values * gaussian.path_scale(g, "minus", 1.0)
            return np.abs(c.q[-1] - exact).max()

        ratio = err(8e-3) / err(4e-3)
        assert 12.0 < ratio < 20.0

    def test_jacobian_consistency_invariant(self, plus_congruence):
        assert plus_congruence.jacobian_fd_mismatch() <= 1e-4

    def test_action_gradient_identity(self, g, plus_congruence):
        """Label gradient of the accumulated action is the momentum flux."""
        c = plus_congruence
        h = c.labels.values[1] - c.labels.values[0]
        from bihj.kernels import fd_derivative
        k = len(c.times) // 2
        lhs = fd_derivative(c.chi[k], h)[2:-2]
        rhs = (c.qdot[k] * fd_derivative(c.q[k], h))[2:-2]
        assert np.max(np.abs(lhs - rhs)) <= 1e-3 * np.max(np.abs(rhs))

    def test_carried_density_is_conserved_on_mean_flow(self, g, dbb_congruence):
        c = dbb_congruence
        rho_along = gaussian.rho(g, c.q, c.times[:, None])
        carried = rho_along * c.J
        drift = np.abs(carried / carried[0] - 1.0)
        assert drift.max() <= 1e-4

    def test_exit_error_names_label_and_time(self, g):
        src = CallableSource(*gaussian.velocity_field(g, "minus"), x_span=(-5.0, 5.0))
        labels = LabelSet.uniform(-4.0, 4.0, 9)
        with pytest.raises(TrajectoryExitError) as err:
            integrate_congruence(src, labels, np.linspace(0.0, 1.0, 201))
        assert abs(err.value.label) == pytest.approx(4.0, abs=0.5)
        assert 0.0 < err.value.time <= 1.0

    def test_crossing_and_focal_point_rejected_by_container(self, labels, times):
        from bihj.congruence import Congruence
        nt, nl = 3, 5
        lab = LabelSet.uniform(-1.0, 1.0, nl)
        t3 = np.array([0.0, 0.1, 0.2])
        q = np.tile(lab.values, (nt, 1))
        ones = np.ones((nt, nl))
        crossed = q.copy()
        crossed[2, 2] = crossed[2, 3] + 0.1
        with pytest.raises(CongruenceCrossingError):
            Congruence(lab, t3, crossed, ones * 0.0, ones, ones * 0.0)
        bad_j = ones.copy()
        bad_j[1, 0] = -0.5
        with pytest.raises(FocalPointError):
            Congruence(lab, t3, q, ones * 0.0, bad_j, ones * 0.0)

    def test_focal_squeeze_detected_during_integration(self):
        # a cubic squeeze drives the expansion factor through zero
        v = lambda x, t: -np.asarray(x, dtype=float) ** 3 * 8.0
        g_ = lambda x, t: -24.0 * np.asarray(x, dtype=float) ** 2
        labels = LabelSet.uniform(-1.0, 1.0, 11)
        from bihj.errors import InstabilityError
        with pytest.raises((CongruenceCrossingError, FocalPointError, InstabilityError)):
            integrate_congruence(CallableSource(v, g_), labels, np.linspace(0.0, 2.0, 9))

    def test_guard_errors_name_labels_and_time(self):
        from bihj.congruence import Congruence
        # the squeeze of the test above: with its slope, J reaches zero first
        v = lambda x, t: -np.asarray(x, dtype=float) ** 3 * 8.0
        g_ = lambda x, t: -24.0 * np.asarray(x, dtype=float) ** 2
        labels = LabelSet.uniform(-1.0, 1.0, 11)
        times = np.linspace(0.0, 2.0, 9)
        with pytest.raises(FocalPointError,
                           match=r"^non-positive expansion factor of label -0\.8 at t=0\.25$"):
            integrate_congruence(CallableSource(v, g_), labels, times)
        # with a zero slope J stays 1, and the paths cross instead
        zero = lambda x, t: 0.0 * np.asarray(x, dtype=float)
        with pytest.raises(CongruenceCrossingError,
                           match=r"^paths of labels -0\.8 and -0\.6 crossed at t=0\.25$"):
            integrate_congruence(CallableSource(v, zero), labels, times)
        # the container's checks on stored data say the same
        lab = LabelSet.uniform(-1.0, 1.0, 5)
        t3 = np.array([0.0, 0.1, 0.2])
        q = np.tile(lab.values, (3, 1))
        ones = np.ones((3, 5))
        crossed = q.copy()
        crossed[2, 2] = crossed[2, 3] + 0.1
        with pytest.raises(CongruenceCrossingError,
                           match=r"^paths of labels 0 and 0\.5 crossed at t=0\.2$"):
            Congruence(lab, t3, crossed, ones * 0.0, ones, ones * 0.0)
        bad_j = ones.copy()
        bad_j[1, 1] = -0.5
        with pytest.raises(FocalPointError,
                           match=r"^non-positive expansion factor of label -0\.5 at t=0\.1$"):
            Congruence(lab, t3, q, ones * 0.0, bad_j, ones * 0.0)


class TestInversion:
    def test_identity_at_t0(self, plus_congruence):
        xs = np.linspace(-3.5, 3.5, 11)
        labs = invert_labels(plus_congruence, xs, 0.0)
        assert np.abs(labs - xs).max() < 1e-10

    def test_inverts_closed_form_position(self, plus_congruence):
        x = np.sqrt(2.0) * np.exp(-np.pi / 4.0)
        assert invert_labels(plus_congruence, x, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_stored_label_round_trip(self, minus_congruence):
        c = minus_congruence
        k = len(c.times) - 1
        for i in (3, 50, 97):
            assert invert_labels(c, c.q[k, i], c.times[k]) == pytest.approx(
                c.labels.values[i], abs=1e-9)

    def test_outside_hull_rejected(self, plus_congruence):
        with pytest.raises(ExtrapolationError):
            invert_labels(plus_congruence, 10.0, 1.0)

    def test_unknown_time_rejected(self, plus_congruence):
        with pytest.raises(PreconditionError):
            invert_labels(plus_congruence, 0.0, 0.12345678)


class TestTrajectoryDensity:
    def test_plus_flow_overcounts_by_expansion_deficit(self, g, plus_congruence):
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        ratio = trajectory_density(plus_congruence, rho0, 0.0, 1.0) / gaussian.rho(g, 0.0, 1.0)
        assert ratio == pytest.approx(np.exp(np.pi / 4.0), rel=1e-4)

    def test_mean_flow_matches_density(self, g, dbb_congruence):
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        for x in (-1.0, 0.3, 1.7):
            got = trajectory_density(dbb_congruence, rho0, x, 1.0)
            assert got == pytest.approx(float(gaussian.rho(g, x, 1.0)), rel=1e-4)

    def test_initial_time_returns_rho0(self, g, dbb_congruence):
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        assert trajectory_density(dbb_congruence, rho0, 0.7, 0.0) == pytest.approx(
            float(gaussian.rho(g, 0.7, 0.0)), rel=1e-10)


class TestFieldSource:
    def test_sampled_fields_drive_accurate_trajectories(self, params, g):
        grid = SpatialGrid(-10.0, 10.0, 2048)
        wave = analytic_series(InitialStateSpec.gaussian(SIGMA0), grid, params,
                               np.arange(0.0, 1.0 + 1e-9, 0.01))
        fs = derive_series(wave)
        labels = LabelSet.uniform(-3.0, 3.0, 61)
        times = np.linspace(0.0, 1.0, 1001)
        c = integrate_congruence(FieldSource(fs, "v_plus"), labels, times)
        exact = labels.values * gaussian.path_scale(g, "plus", 1.0)
        assert np.abs(c.q[-1] - exact).max() < 1e-4

    def test_one_sample_per_stage_is_the_three_call_march(self):
        # a moving Gaussian in a harmonic well on Crank-Nicolson snapshots
        params = PhysicalParams(potential=Potential.harmonic(0.5))
        grid = SpatialGrid(-10.0, 10.0, 512)
        snap = build_initial_state(InitialStateSpec.gaussian(SIGMA0, momentum=0.5), grid, params)
        fs = derive_series(evolve_crank_nicolson(snap, params, 1e-3, 200, store_every=10))
        labels = LabelSet.uniform(-1.5, 1.5, 41)

        def three_calls(velocity, rate, chi, times):
            # reference: separate velocity, slope and rate calls per stage
            def rhs(qv, Jv, t):
                v = np.asarray(velocity.velocity(qv, t), dtype=float) + np.zeros(len(labels))
                g = np.asarray(velocity.dvdx(qv, t), dtype=float) + np.zeros(len(labels))
                L = np.asarray(rate(qv, t), dtype=float) + np.zeros(len(labels))
                return v, g * Jv, L

            q, J = labels.values.copy(), np.ones(len(labels))
            qs, qdots, Js, chis = [q], [], [J], [chi]
            for t, h in zip(times[:-1], np.diff(times)):
                k1 = rhs(q, J, t)
                qdots.append(k1[0])
                k2 = rhs(q + 0.5 * h * k1[0], J + 0.5 * h * k1[1], t + 0.5 * h)
                k3 = rhs(q + 0.5 * h * k2[0], J + 0.5 * h * k2[1], t + 0.5 * h)
                k4 = rhs(q + h * k3[0], J + h * k3[1], t + h)
                q = q + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
                J = J + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
                chi = chi + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
                qs.append(q)
                Js.append(J)
                chis.append(chi)
            qdots.append(np.asarray(velocity.velocity(q, times[-1]), dtype=float)
                         + np.zeros(len(labels)))
            return np.array(qs), np.array(qdots), np.array(Js), np.array(chis)

        # the snapshot times themselves put the first stage of every step on
        # a snapshot, where one of the two weights is 0; the finer times also
        # put stages between snapshots
        snapshot_stage = 0
        for times in (fs.times, np.linspace(0.0, 0.2, 81)):
            for t in times:
                k0, k1, w = FieldSource(fs, "v")._bracket(t)
                snapshot_stage += w in (0.0, 1.0)
            for flow, rate, action in (("v_plus", "L_plus", "S_plus"),
                                       ("v_minus", "L_minus", "S_minus"), ("v", "L", "S")):
                chi0 = fs.snapshots[0].spline(getattr(fs.snapshots[0], action))(labels.values)
                rated, alone = FieldSource(fs, flow, rate), FieldSource(fs, flow)
                got = integrate_congruence(rated, labels, times, initial_actions=chi0)
                want = three_calls(alone, FieldSource(fs, rate), chi0, times)
                for name, arr in zip(("q", "qdot", "J", "chi"), want):
                    assert np.array_equal(getattr(got, name), arr), (flow, name)
                # the field column of a source with a rate is the field alone
                for method in ("velocity", "dvdx"):
                    assert np.array_equal(getattr(rated, method)(got.q[5], times[5]),
                                          getattr(alone, method)(got.q[5], times[5]))
        assert snapshot_stage >= len(fs.times)

    def test_queries_outside_span_raise(self, params):
        grid = SpatialGrid(-10.0, 10.0, 512)
        wave = analytic_series(InitialStateSpec.gaussian(SIGMA0), grid, params,
                               np.arange(3) * 1e-2)
        fs = derive_series(wave)
        src = FieldSource(fs, "v")
        from bihj.errors import DomainError
        with pytest.raises(DomainError):
            src.velocity(np.array([25.0]), 0.0)
        with pytest.raises(DomainError):
            src.velocity(np.array([0.0]), 5.0)

    def test_action_rates_are_lagrangians_of_the_flows(self):
        params = PhysicalParams(potential=Potential.harmonic(0.5))
        grid = SpatialGrid(-10.0, 10.0, 512)
        snap = build_initial_state(InitialStateSpec.gaussian(SIGMA0, momentum=0.5), grid, params)
        fs = derive_series(evolve_crank_nicolson(snap, params, 1e-3, 20, store_every=10))
        V = params.potential.on_grid(grid, params.mass)
        x = np.linspace(-2.0, 2.0, 33)
        for name, v, Q in (("L_plus", "v_plus", "Q_plus"), ("L_minus", "v_minus", "Q_minus"),
                           ("L", "v", "Q")):
            src = FieldSource(fs, name)
            for k, s in enumerate(fs.snapshots):
                lagrangian = 0.5 * params.mass * getattr(s, v) ** 2 - getattr(s, Q) - V
                a, b = s.largest_run()
                expected = CubicSpline(grid.x[a:b], lagrangian[a:b])(x)
                assert np.abs(src(x, fs.times[k]) - expected).max() <= 1e-12 * np.abs(expected).max()
                assert np.array_equal(src(x, fs.times[k]), src.velocity(x, fs.times[k]))
        with pytest.raises(PreconditionError):
            FieldSource(fs, "Q_plus")
