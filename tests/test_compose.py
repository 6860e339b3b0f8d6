import numpy as np
import pytest

from conftest import FakeStack
from oracles import (
    composed_path,
    drift_factors,
    full_array_pair_samples,
    full_array_source_term,
    one_spline_compose,
    source_term,
)

from bihj import compose, gaussian
from bihj.compose import (
    CompositionSetup,
    compose_trajectories,
    conservation_check,
    mixture_check,
    pair_source_terms,
)
from bihj.congruence import LabelSet, integrate_congruence
from bihj.errors import PreconditionError, SpanExhaustionError
from bihj.gaussian import GaussianStack
from bihj.kernels import fd_derivative

SIGMA0 = np.sqrt(0.5)


@pytest.fixture(scope="module")
def u_source(g):
    return GaussianStack(g, [("u", None, 1.0)])


def scaled_u(g, factor):
    return GaussianStack(g, [("u", None, factor)])


def rho_u_sampler(g):
    """The closed-form density and osmotic velocity, stacked along a new
    first axis, as ``pair_source_terms`` samples them."""
    rho, u = (GaussianStack(g, [(name, None, 1.0)]).velocity for name in ("rho", "u"))
    return lambda x, t: np.stack((rho(x, t), u(x, t)))


@pytest.fixture(scope="module")
def zero_source():
    zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    return FakeStack([(zero, zero)])


@pytest.fixture(scope="module")
def case_i(g, plus_congruence):
    setup = CompositionSetup(plus_congruence, scaled_u(g, -0.5),
                             LabelSet.uniform(-1.6, 1.6, 81))
    return setup, compose_trajectories(setup)


class TestComposition:
    def test_case_i_values(self, case_i):
        setup, res = case_i
        i = np.argmin(np.abs(res.labels_C.values - 1.0))
        assert res.Q_B[-1, i] == pytest.approx(np.exp(np.pi / 4.0), abs=1e-5)
        assert res.q_C[-1, i] == pytest.approx(np.sqrt(2.0), abs=1e-5)
        assert res.residual_max <= 1e-4 * res.velocity_scale
        assert res.jacobian_factorisation_gap() <= 1e-4

    def test_case_ii_values(self, g, labels, times):
        half_plus, = integrate_congruence(
            GaussianStack(g, [("v_plus", None, 0.5)]), labels, times)
        setup = CompositionSetup(
            half_plus, GaussianStack(g, [("v_minus", None, 0.5)]),
            LabelSet.uniform(-2.0, 2.0, 41))
        res = compose_trajectories(setup)
        i = np.argmin(np.abs(res.labels_C.values - 1.0))
        assert half_plus.q[-1, half_plus.label_index(1.0)] == pytest.approx(
            2.0**0.25 * np.exp(-np.pi / 8.0), abs=1e-5)
        assert res.Q_B[-1, i] == pytest.approx(2.0**0.25 * np.exp(np.pi / 8.0), abs=1e-5)
        assert res.q_C[-1, i] == pytest.approx(np.sqrt(2.0), abs=1e-5)

    def test_converse_builds_plus_paths(self, dbb_congruence, g):
        setup = CompositionSetup(dbb_congruence, scaled_u(g, +0.5),
                                 LabelSet.uniform(-2.5, 2.5, 41))
        res = compose_trajectories(setup)
        i = np.argmin(np.abs(res.labels_C.values - 1.0))
        assert res.Q_B[-1, i] == pytest.approx(np.exp(-np.pi / 4.0), abs=1e-5)
        assert res.q_C[-1, i] == pytest.approx(np.sqrt(2.0) * np.exp(-np.pi / 4.0), abs=1e-5)

    def test_zero_complement_reproduces_host(self, plus_congruence, zero_source, g):
        probe = LabelSet.uniform(-1.5, 1.5, 31)
        res = compose_trajectories(CompositionSetup(plus_congruence, zero_source, probe))
        assert np.abs(res.Q_B - probe.values[None, :]).max() < 1e-12
        for j, t in enumerate(res.times):
            exact = probe.values * gaussian.path_scale(g, "plus", t)
            assert np.abs(res.q_C[j] - exact).max() < 1e-7

    def test_round_trip_corollary(self, case_i, g, labels):
        _, res_i = case_i
        host = res_i.as_congruence()
        probe = LabelSet.uniform(-1.5, 1.5, 31)
        res = compose_trajectories(CompositionSetup(host, scaled_u(g, 0.5), probe))
        worst = 0.0
        for j, t in enumerate(res.times):
            exact = probe.values * gaussian.path_scale(g, "plus", t)
            worst = max(worst, np.abs(res.q_C[j] - exact).max())
        width = labels.values[-1] - labels.values[0]
        assert worst <= 1e-5 * width

    def test_span_exhaustion_reported(self, plus_congruence, g):
        wide = LabelSet.uniform(-3.5, 3.5, 41)  # generator grows past the host span
        with pytest.raises(SpanExhaustionError, match="widen"):
            compose_trajectories(CompositionSetup(plus_congruence, scaled_u(g, -0.5), wide))

    def test_labels_outside_host_rejected(self, plus_congruence, zero_source):
        with pytest.raises(PreconditionError):
            CompositionSetup(plus_congruence, zero_source, LabelSet.uniform(-9.0, 9.0, 11))

    def test_nonuniform_labels_rejected(self, plus_congruence, zero_source):
        labels = LabelSet(np.array([-1.0, -0.5, -0.2, 0.0, 0.3, 0.5, 1.0]))
        with pytest.raises(PreconditionError, match="labels must be uniformly spaced"):
            CompositionSetup(plus_congruence, zero_source, labels)


def along(congruence, f):
    """f(q, t) at the congruence's positions, one row per stored time."""
    return np.array([f(q, float(t)) for q, t in zip(congruence.q, congruence.times)])


class TestSourceTerm:
    def test_source_free_flow(self, g, dbb_congruence):
        P = along(dbb_congruence, lambda x, t: gaussian.rho(g, x, t))
        tab = source_term(dbb_congruence, P, np.zeros_like(P),
                          rho0=lambda q: gaussian.rho(g, q, 0.0),
                          rows=np.arange(P.shape[0]))
        assert np.abs(tab.c_A).max() == 0.0
        assert tab.decomposition_gap <= 1e-4

    def test_plus_flow_center_value(self, g, plus_congruence):
        P = along(plus_congruence, lambda x, t: gaussian.rho(g, x, t))
        tab = source_term(plus_congruence, P, along(plus_congruence, scaled_u(g, -0.5).velocity),
                          rho0=lambda q: gaussian.rho(g, q, 0.0), rows=[0, P.shape[0] - 1])
        assert np.array_equal(tab.times, plus_congruence.times[[0, -1]])
        i0 = plus_congruence.label_index(0.0)
        # from the decomposition: rho(0,1) (1 - e^{pi/4})
        target = float(gaussian.rho(g, 0.0, 1.0)) * (1.0 - np.exp(np.pi / 4.0))
        assert tab.c_A[-1, i0] == pytest.approx(target, abs=1e-3)
        assert tab.c_A[0].max() == 0.0
        assert tab.rho_ratio[-1, i0] == pytest.approx(np.exp(np.pi / 4.0), rel=1e-4)
        assert tab.decomposition_gap <= 1e-3

    def test_pair_tables_are_the_per_flow_tables(self, g, bi_pair, u_source):
        # rho and u sampled once per stored time at both congruences' points
        # give each table the bits of its own samplers, -u/2 and +u/2
        rho = GaussianStack(g, [("rho", None, 1.0)]).velocity
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        rows = [0, 3, 250, bi_pair.plus.times.shape[0] - 1]
        pair = pair_source_terms(bi_pair.plus, bi_pair.minus, rho_u_sampler(g), rho0, rows)
        for tab, host, factor in zip(pair, (bi_pair.plus, bi_pair.minus), (-0.5, 0.5)):
            want = source_term(host, along(host, rho), along(host, scaled_u(g, factor).velocity),
                               rho0, rows)
            for name in ("labels", "times", "c_A", "rho_ratio"):
                assert getattr(tab, name).tobytes() == getattr(want, name).tobytes(), name
            assert tab.decomposition_gap == want.decomposition_gap
        short = bi_pair.plus.times[:-1]
        other, = integrate_congruence(u_source, bi_pair.labels, short)
        with pytest.raises(PreconditionError, match="same times"):
            pair_source_terms(bi_pair.plus, other, rho_u_sampler(g), rho0, rows)


class TestConservation:
    def test_composed_mean_flow_conserves(self, case_i, g):
        _, res = case_i
        rep = conservation_check(res, lambda x, t: gaussian.rho(g, x, t))
        assert rep.max_drift <= 1e-3

    def test_static_flow_has_zero_drift(self, zero_source, g):
        labels = LabelSet.uniform(-2.0, 2.0, 21)
        times = np.linspace(0.0, 1.0, 101)
        static, = integrate_congruence(zero_source, labels, times)
        res = compose_trajectories(CompositionSetup(static, zero_source,
                                                    LabelSet.uniform(-1.0, 1.0, 11)))
        rep = conservation_check(res, lambda x, t: gaussian.rho(g, x, 0.0))
        assert rep.max_drift == 0.0

    def test_non_conserved_composition_shows_known_drift(self, dbb_congruence, g):
        # composing towards the plus flow: P_C J_C decays like e^{-arctan t}
        setup = CompositionSetup(dbb_congruence, scaled_u(g, +0.5),
                                 LabelSet.uniform(-2.0, 2.0, 21))
        res = compose_trajectories(setup)
        rep = conservation_check(res, lambda x, t: gaussian.rho(g, x, t))
        factors = drift_factors(rep)
        i0 = np.argmin(np.abs(res.labels_C.values))
        expected = np.exp(-np.arctan(res.times))
        assert np.abs(factors[:, i0] - expected).max() < 1e-4
        assert rep.max_drift > 0.3  # clearly flagged as non-conserved


class TestMixture:
    def test_half_weight_matches_cosh(self, bi_pair, g):
        rep = mixture_check(bi_pair, rho_u_sampler(g), 0.5, np.array([0.0]), 1.0)
        assert rep.trajectory_ratio[0] == pytest.approx(np.cosh(np.pi / 4.0), abs=1e-3)
        assert rep.max_restored_gap <= 1e-3

    def test_weight_one_reduces_to_plus_branch(self, bi_pair, g):
        rep = mixture_check(bi_pair, rho_u_sampler(g), 1.0, np.array([0.0]), 1.0)
        assert rep.trajectory_ratio[0] == pytest.approx(np.exp(np.pi / 4.0), abs=1e-3)
        assert rep.max_restored_gap <= 1e-3

    def test_probe_window(self, bi_pair, g):
        rep = mixture_check(bi_pair, rho_u_sampler(g), 0.5, np.linspace(-1.5, 1.5, 11), 1.0)
        assert rep.max_restored_gap <= 1e-3
        assert np.abs(rep.trajectory_ratio - 1.0).max() > 0.1


class TestBlocks:
    """Composition and source tables built a block of stored times at a time
    have the bits of the one-shot algorithms in ``oracles``."""

    # stored times below the block size, equal to it and not a multiple of it
    # (BLOCK_TIMES 64); an even count leaves compose an odd tail
    COUNTS = (40, 64, 129, 150)

    @pytest.fixture(scope="class")
    def flows(self, g):
        labels = LabelSet.uniform(-4.0, 4.0, 201)
        stack = GaussianStack(g, [("v_plus", "L_plus", 1.0), ("v_minus", "L_minus", 1.0)])
        return {n: integrate_congruence(stack, labels, np.linspace(0.0, 1.0, n))
                for n in self.COUNTS}

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("block", [None, 5, 2])
    def test_compose_is_the_one_spline_composition(self, g, flows, monkeypatch, n, block):
        if block is not None:
            monkeypatch.setattr(compose, "BLOCK_TIMES", block)
        host = flows[n][0]
        setup = CompositionSetup(host, scaled_u(g, -0.5), LabelSet.uniform(-1.6, 1.6, 81))
        res = compose_trajectories(setup)
        out_idx, QB, JB, JA_at, vA = one_spline_compose(setup)
        assert (out_idx[-1] - out_idx[-2] == 1) == (n % 2 == 0)  # the odd tail
        assert np.array_equal(res.times, host.times[out_idx])
        qC = composed_path(setup, out_idx, QB)
        vB = np.array([setup.field_B.velocity(qC[j], float(host.times[k]))
                       for j, k in enumerate(out_idx)])
        h = setup.labels_C.values[1] - setup.labels_C.values[0]
        JC = np.array([fd_derivative(row, h) for row in qC])
        for name, want in (("Q_B", QB), ("J_B", JB), ("J_A_at_QB", JA_at), ("q_C", qC),
                           ("J_C", JC), ("velocity", vA + vB)):
            assert getattr(res, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("block", [None, 7, 1])
    def test_source_tables_are_the_full_array_tables(self, g, flows, u_source, monkeypatch,
                                                     n, block):
        # the tables keep the rows asked for, every row or every third, and
        # the decomposition gap is taken over every row
        if block is not None:
            monkeypatch.setattr(compose, "BLOCK_TIMES", block)
        plus, minus = flows[n]
        rho = GaussianStack(g, [("rho", None, 1.0)]).velocity
        rho0 = lambda q: gaussian.rho(g, q, 0.0)
        samples = full_array_pair_samples(plus, minus, rho, u_source.velocity)
        for rows in (np.arange(n), np.arange(0, n, 3)):
            pair = pair_source_terms(plus, minus, rho_u_sampler(g), rho0, rows)
            for tab, host, (P, V) in zip(pair, (plus, minus), samples):
                alone = source_term(host, P, V, rho0, rows)
                c, ratio, gap = full_array_source_term(host, P, V, rho0)
                for got in (tab, alone):
                    assert got.c_A.shape == got.rho_ratio.shape == (rows.shape[0], P.shape[1])
                    assert got.c_A.tobytes() == c[rows].tobytes()
                    assert got.rho_ratio.tobytes() == ratio[rows].tobytes()
                    assert got.decomposition_gap == gap
                    assert np.array_equal(got.times, host.times[rows])
