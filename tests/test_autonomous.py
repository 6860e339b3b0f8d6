import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import chi_minus, chi_plus, minus_label_of, plus_label_of

from bihj import gaussian
from bihj.autonomous import (
    BiCongruence,
    _CoupledStepper,
    _label_noise_filter,
    cross_map,
    exchange_mismatch,
    exchange_pair,
    propagate_autonomous,
)
from bihj.congruence import LabelSet, integrate_congruence
from bihj.errors import CongruenceCrossingError, HullOverlapError, PreconditionError
from bihj.gaussian import GaussianStack
from bihj.kernels import fd_derivative, hermite_eval, spline_slopes_natural
from bihj.reference import PhysicalParams, Potential

SIGMA0 = np.sqrt(0.5)


def _gaussian_pair(g, labels):
    """The free Gaussian's t = 0 plus and minus actions on the labels, then
    the labels: the first three arguments of propagate_autonomous."""
    return (gaussian.action_plus(g, labels.values, 0.0),
            gaussian.action_minus(g, labels.values, 0.0), labels)


@pytest.fixture(scope="module")
def auto_pair(g, params):
    return propagate_autonomous(
        *_gaussian_pair(g, LabelSet.uniform(-4.0, 4.0, 201)), params, 2e-4, 2500, store_every=50)


class TestPropagation:
    def test_positions_match_closed_forms(self, g, auto_pair):
        labels = auto_pair.labels.values
        for kind, c in (("plus", auto_pair.plus), ("minus", auto_pair.minus)):
            exact = labels[None, :] * gaussian.path_scale(g, kind, auto_pair.times)[:, None]
            assert np.abs(c.q - exact).max() < 1e-3 * np.abs(exact).max()

    def test_actions_and_expansions_match_closed_forms(self, g, auto_pair):
        labels = auto_pair.labels.values
        T = auto_pair.times[-1]
        assert np.abs(auto_pair.plus.chi[-1] - chi_plus(g, labels, T)).max() < 1e-4
        assert np.abs(auto_pair.minus.chi[-1] - chi_minus(g, labels, T)).max() < 1e-4
        assert np.abs(auto_pair.plus.J[-1]
                      - gaussian.path_scale(g, "plus", T)).max() < 1e-5
        assert np.abs(auto_pair.minus.J[-1]
                      - gaussian.path_scale(g, "minus", T)).max() < 1e-5

    def test_matches_reference_driven_run(self, g, params, auto_pair):
        labels = auto_pair.plus.labels
        times = auto_pair.times
        ref_p, ref_m = integrate_congruence(
            GaussianStack(g, [("v_plus", None, 1.0), ("v_minus", None, 1.0)]), labels, times)
        assert np.abs(auto_pair.plus.q - ref_p.q).max() < 1e-3
        assert np.abs(auto_pair.minus.q - ref_m.q).max() < 1e-3

    def test_harmonic_stationary_state(self):
        """Ground state of a harmonic well: the two flows contract and expand
        as q0 e^{-+ omega t} while actions carry the -E t phase, so the
        rebuilt amplitude reproduces the stationary state exactly."""
        from bihj.reconstruct import bihj_wavefunction_at, probability_from_actions
        from bihj.reference import PhysicalParams, Potential

        omega = 1.3
        params = PhysicalParams(potential=Potential("harmonic", omega=omega))
        log_rho0 = lambda q: 0.5 * np.log(omega / np.pi) - omega * q**2
        labels = LabelSet.uniform(-2.0, 2.0, 81)
        bi = propagate_autonomous(0.5 * log_rho0(labels.values), -0.5 * log_rho0(labels.values),
                                  labels, params, 2e-4, 1000)
        T = bi.times[-1]
        labels = bi.labels.values
        assert np.abs(bi.plus.q[-1] - labels * np.exp(-omega * T)).max() < 1e-6
        assert np.abs(bi.minus.q[-1] - labels * np.exp(omega * T)).max() < 1e-6
        xs = np.linspace(-1.0, 1.0, 9)
        rho = np.atleast_1d(probability_from_actions(bi, xs, T))
        assert np.abs(rho / np.exp(log_rho0(xs)) - 1.0).max() < 1e-6
        psi = np.atleast_1d(bihj_wavefunction_at(bi, xs, T))
        target = np.sqrt(np.exp(log_rho0(xs))) * np.exp(-0.5j * omega * T)
        assert np.abs(psi - target).max() < 1e-6

    def test_uniform_interior_is_static(self, params):
        """Constant action profiles: no relative velocity, no force, no motion."""
        labels = LabelSet.uniform(-1.0, 1.0, 41)
        bi = propagate_autonomous(np.full(len(labels), 0.3), np.full(len(labels), -0.3),
                                  labels, params, 1e-3, 200)
        assert np.abs(bi.plus.q - labels.values[None, :]).max() < 1e-12
        assert np.abs(bi.minus.q - labels.values[None, :]).max() < 1e-12
        assert np.abs(bi.plus.qdot).max() < 1e-12

    def test_validation(self, g, params, labels):
        q0 = labels.values
        with pytest.raises(PreconditionError):
            propagate_autonomous(q0, -q0, labels, params, 0.0, 10)
        with pytest.raises(PreconditionError):
            propagate_autonomous(q0, -q0, labels, params, 1e-3, 0)
        nonuniform = LabelSet(np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
        with pytest.raises(PreconditionError, match="labels must be uniformly spaced"):
            propagate_autonomous(nonuniform.values, -nonuniform.values, nonuniform, params,
                                 1e-3, 5)

    def test_strict_extrapolation_bound_aborts(self, g, params):
        with pytest.raises(HullOverlapError):
            propagate_autonomous(
                *_gaussian_pair(g, LabelSet.uniform(-4.0, 4.0, 101)), params, 1e-3, 500,
                max_extrapolation=0.05)

    def test_extrapolation_error_names_the_time(self, g, params):
        with pytest.raises(HullOverlapError, match=r"exceeds the allowed 1e-06 at t=0\.001$"):
            propagate_autonomous(
                *_gaussian_pair(g, LabelSet.uniform(-4.0, 4.0, 41)), params, 1e-3, 5,
                max_extrapolation=1e-6)

    def test_crossing_error_names_flow_labels_and_time(self, g, params):
        # beyond the explicit stability limit: the crossing is caught right
        # after the drift, before the forces divide by dq/dq0 and overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CongruenceCrossingError,
                               match=r"^plus paths of labels -3\.9 and -3\.88 crossed at t=0\.042$"):
                propagate_autonomous(
                    *_gaussian_pair(g, LabelSet.uniform(-4.0, 4.0, 401)), params, 1e-3, 500)

    def test_diagnostics_record_extrapolation(self, auto_pair):
        # the expanding flow leaves the contracting flow's hull immediately
        assert auto_pair.diagnostics["max_partner_extrapolation"] > 1.0


def _min_path_spacing(g, labels, dt, steps):
    """Closed form of the smallest gap between adjacent paths of either flow
    over every step time: the label gap times the smaller path scale."""
    times = np.arange(steps + 1) * dt
    h0 = labels.values[1] - labels.values[0]
    return h0 * min(gaussian.path_scale(g, kind, times).min() for kind in ("plus", "minus"))


class TestDiagnostics:
    def _check(self, g, params, bi, dt, steps):
        spacing = _min_path_spacing(g, bi.labels, dt, steps)
        assert bi.diagnostics["min_path_spacing"] == pytest.approx(spacing, rel=1e-6)
        ratio = abs(dt) * params.hbar / (params.mass * spacing**2)
        assert bi.diagnostics["max_dt_hbar_over_m_h2"] == pytest.approx(ratio, rel=1e-6)

    def test_forward_stability_numbers_match_closed_forms(self, g, params, auto_pair):
        # the contracting plus flow sets the spacing: q0 sqrt(1+t^2) e^{-arctan t}
        self._check(g, params, auto_pair, 2e-4, 2500)
        assert auto_pair.diagnostics["min_path_spacing"] < 0.04 * 0.99

    def test_backward_stability_numbers_match_closed_forms_and_repeat(self, g, params):
        def run():
            return propagate_autonomous(*_gaussian_pair(g, LabelSet.uniform(-3.0, 3.0, 101)),
                                        params, -5e-4, 400, store_every=100)
        bi = run()
        # backwards in time the minus flow contracts
        self._check(g, params, bi, -5e-4, 400)
        assert run().diagnostics == bi.diagnostics
        assert set(bi.diagnostics) == {"max_partner_extrapolation", "min_path_spacing",
                                       "max_dt_hbar_over_m_h2"}


class TestHistoryMemory:
    def test_history_is_written_in_place(self, g, params):
        """The stored history is allocated once: no list of per-step states,
        no final stack and no per-congruence copy."""
        labels = LabelSet.uniform(-3.0, 3.0, 101)
        steps = 1000
        tracemalloc.start()
        try:
            bi = propagate_autonomous(*_gaussian_pair(g, labels), params, 2e-4, steps,
                                      store_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = 4 * 2 * (steps + 1) * len(labels) * 8  # q, qdot, J, chi of both flows
        assert bi.plus.q.nbytes * 8 == history
        assert peak < 1.5 * history


class _ReferencePartnerView:
    """The partner sampling of the coupled stepper as it was first written:
    two natural-spline solves and two Hermite evaluations per partner."""

    def __init__(self, q, v, div):
        self.q, self.v, self.div = q, v, div
        self.v_slopes = spline_slopes_natural(q, v)
        self.d_slopes = spline_slopes_natural(q, div)

    def sample(self, x):
        lo, hi = self.q[0], self.q[-1]
        inside = np.clip(x, lo, hi)
        v = hermite_eval(self.q, self.v, self.v_slopes, inside)
        d = hermite_eval(self.q, self.div, self.d_slopes, inside)
        below = x < lo
        above = x > hi
        if below.any():
            v = np.where(below, self.v[0] + self.div[0] * (x - lo), v)
            d = np.where(below, self.div[0], d)
        if above.any():
            v = np.where(above, self.v[-1] + self.div[-1] * (x - hi), v)
            d = np.where(above, self.div[-1], d)
        extrap = float(np.maximum(lo - x, x - hi).max(initial=0.0))
        return v, d, max(extrap, 0.0)


def _reference_evaluate(hbar, mass, h, potential_fn, qp, vp, qm, vm):
    """Accelerations, divergences, action rates and the largest partner-hull
    extrapolation, computed as by the first coupled stepper."""
    def divergence(q, v):
        return fd_derivative(v, h) / fd_derivative(q, h)

    div_p = divergence(qp, vp)
    div_m = divergence(qm, vm)
    vm_at_p, divm_at_p, e1 = _ReferencePartnerView(qm, vm, div_m).sample(qp)
    vp_at_m, divp_at_m, e2 = _ReferencePartnerView(qp, vp, div_p).sample(qm)
    u_at_p = vp - vm_at_p
    u_at_m = vp_at_m - vm
    q_pot_p = +0.5 * hbar * divm_at_p - 0.25 * mass * u_at_p**2
    q_pot_m = -0.5 * hbar * divp_at_m - 0.25 * mass * u_at_m**2
    bracket_p = q_pot_p + potential_fn(qp)
    bracket_m = q_pot_m + potential_fn(qm)
    acc_p = -fd_derivative(bracket_p, h) / fd_derivative(qp, h) / mass
    acc_m = -fd_derivative(bracket_m, h) / fd_derivative(qm, h) / mass
    rate_p = 0.5 * mass * vp**2 - q_pot_p - potential_fn(qp)
    rate_m = 0.5 * mass * vm**2 - q_pot_m - potential_fn(qm)
    return (acc_p, acc_m, div_p, div_m, rate_p, rate_m), max(e1, e2)


class TestCoupledStepper:
    @pytest.mark.parametrize("potential", [Potential(), Potential("harmonic", omega=1.3)])
    def test_evaluate_equals_reference(self, g, potential):
        params = PhysicalParams(potential=potential)
        label_set = LabelSet.uniform(-3.0, 3.0, 61)
        labels = label_set.values
        h = labels[1] - labels[0]
        potential_fn = lambda x: potential.at(x, params.mass)
        for t in (0.0, 0.3, 1.0):
            # the expanding minus hull overhangs the plus hull at both ends;
            # the wobble makes the velocity fields nonlinear in position
            qp = labels * gaussian.path_scale(g, "plus", t) + 0.01 * np.sin(labels)
            qm = labels * gaussian.path_scale(g, "minus", t)
            stepper = _CoupledStepper(params, label_set, None)
            pos = stepper.positions(np.column_stack((qp, qm)), t)
            # one positions object serves both force evaluations of a step:
            # two velocity fields, each against a fresh per-flow reference
            fields = ((gaussian.velocity_plus(g, qp, t) + 0.05 * np.cos(2.0 * qp),
                       gaussian.velocity_minus(g, qm, t) - 0.03 * np.sin(qm) ** 2),
                      (0.4 * np.sin(qp) - 0.1 * qp**2, np.tanh(qm) + 0.2 * qm))
            for vp, vm in fields:
                want, extrap = _reference_evaluate(params.hbar, params.mass, h, potential_fn,
                                                   qp, vp, qm, vm)
                got = stepper.evaluate(pos, np.column_stack((vp, vm)))
                # got: (acc, div, rate) with the flows as columns; want: per flow
                assert len(got) == 3 and len(want) == 6
                for k, a in enumerate(got):
                    assert a.shape == (labels.shape[0], 2)
                    assert np.array_equal(a[:, 0], want[2 * k])
                    assert np.array_equal(a[:, 1], want[2 * k + 1])
                assert stepper.max_seen_extrap == extrap
            if t > 0.0:
                assert qm[0] < qp[0] and qm[-1] > qp[-1]


class TestNoiseFilter:
    def test_linear_data_untouched(self):
        x = np.linspace(-1.0, 1.0, 31)
        y = 2.0 * x + 0.7
        assert np.abs(_label_noise_filter(y, 0.5) - y).max() < 1e-15

    def test_sawtooth_damped(self):
        y = (-1.0) ** np.arange(41) * 1.0
        out = _label_noise_filter(y, 0.5)
        assert np.abs(out[2:-2]).max() == pytest.approx(0.5, abs=1e-14)


class TestCrossMap:
    def test_identity_at_t0(self, bi_pair):
        cm = cross_map(bi_pair, 0.0)
        assert np.abs(cm.q_minus0 - cm.q_plus0).max() < 1e-9

    def test_closed_form_pairing(self, bi_pair):
        # equating the two path families gives q_minus0 = q_plus0 e^{-2 arctan t}
        cm = cross_map(bi_pair, 1.0)
        expected = cm.q_plus0 * np.exp(-2.0 * np.arctan(1.0))
        assert np.abs(cm.q_minus0 - expected).max() < 1e-6
        assert minus_label_of(cm, 1.0) == pytest.approx(np.exp(-np.pi / 2.0), abs=1e-6)

    def test_round_trip(self, bi_pair):
        cm = cross_map(bi_pair, 0.5)
        for q in (-0.6, 0.2, 0.61):
            assert plus_label_of(cm, minus_label_of(cm, q)) == pytest.approx(q, abs=1e-8)


class TestExchange:
    def test_gaussian_pair_is_exactly_mirror_symmetric(self, g, params):
        """For real initial data the conjugate pair coincides with the original,
        so the exchange runs retrace each other bitwise."""
        fwd, back = exchange_pair(
            *_gaussian_pair(g, LabelSet.uniform(-3.0, 3.0, 101)), params, 5e-4, 400)
        assert exchange_mismatch(fwd, back) == 0.0

    def test_exchange_symmetry_is_exact_for_generic_data(self, g, params):
        """The discrete stepping commutes bitwise with the swap / negate /
        reverse symmetry (squares and sign flips are exact in floating
        point), so the exchange relation holds exactly even when the
        conjugated data differ from the original (nonzero mean phase)."""
        sp0, sm0, labels = _gaussian_pair(g, LabelSet.uniform(-3.0, 3.0, 101))
        extra = 0.05 * labels.values**2
        fwd, back = exchange_pair(sp0 + extra, sm0 + extra, labels, params, 5e-4, 300)
        assert exchange_mismatch(fwd, back) == 0.0
        # and the runs genuinely differ from the symmetric-data case
        assert np.abs(fwd.plus.q - back.plus.q).max() > 1e-3

    def test_backward_run_retraces_forward_run(self, g, params):
        labels = LabelSet.uniform(-3.0, 3.0, 101)
        fwd = propagate_autonomous(*_gaussian_pair(g, labels), params, 5e-4, 200)
        back = propagate_autonomous(*_gaussian_pair(g, labels), params, -5e-4, 200)
        exact_fwd = labels.values[None, :] * gaussian.path_scale(g, "plus", fwd.times)[:, None]
        exact_back = labels.values[None, :] * gaussian.path_scale(g, "plus", back.times)[:, None]
        assert np.abs(fwd.plus.q - exact_fwd).max() < 1e-5
        assert np.abs(back.plus.q - exact_back).max() < 1e-5


class TestBiCongruence:
    def test_label_and_time_base_must_match(self, params, g, plus_congruence):
        other, = integrate_congruence(
            GaussianStack(g, [("v_minus", None, 1.0)]),
            LabelSet.uniform(-4.0, 4.0, 51), plus_congruence.times)
        with pytest.raises(PreconditionError):
            BiCongruence(params, plus_congruence, other)

    def test_rho0_from_action_profiles(self, g, bi_pair):
        qs = np.linspace(-2.0, 2.0, 11)
        expected = gaussian.rho(g, qs, 0.0)
        assert np.abs(bi_pair.rho0(qs) - expected).max() < 1e-9
