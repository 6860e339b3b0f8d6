import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import FakeStack, closed_form_row
from oracles import chi_polar

from bihj import gaussian
from bihj.congruence import (
    FieldStack,
    LabelSet,
    integrate_congruence,
    invert_labels,
    trajectory_density,
)
from bihj.errors import (
    CongruenceCrossingError,
    DomainError,
    ExtrapolationError,
    FocalPointError,
    PreconditionError,
    SampledSpanError,
    TrajectoryExitError,
)
from bihj.fields import derive_series
from bihj.gaussian import GaussianStack
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


def three_calls(labels, velocity, rate, chi, times):
    """Reference RK4 march of one flow, with separate velocity, slope and
    rate calls per stage; ``rate`` is a callable of (x, t), zero if None,
    and a chi of None is zero."""
    zeros = np.zeros(len(labels))

    def rhs(qv, Jv, t):
        v = np.asarray(velocity.velocity(qv, t), dtype=float) + zeros
        g = np.asarray(velocity.sample(qv, t)[1], dtype=float) + zeros
        L = (0.0 if rate is None else np.asarray(rate(qv, t), dtype=float)) + zeros
        return v, g * Jv, L

    q, J = labels.values.copy(), np.ones(len(labels))
    chi = zeros if chi is None else chi
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
    qdots.append(np.asarray(velocity.velocity(q, times[-1]), dtype=float) + zeros)
    return np.array(qs), np.array(qdots), np.array(Js), np.array(chis)


def field_values(fs, snap, name):
    """Grid values of a stored field of a snapshot, or of the Lagrangian
    rate m v^2 / 2 - Q - V of the plus, minus or mean flow."""
    terms = {"L_plus": ("v_plus", "Q_plus"), "L_minus": ("v_minus", "Q_minus"), "L": ("v", "Q")}
    if name not in terms:
        return getattr(snap, name)
    v, Q = (getattr(snap, term) for term in terms[name])
    return 0.5 * fs.params.mass * v**2 - Q - fs.params.potential.on_grid(snap.grid, fs.params.mass)


def bracket(fs, t):
    """The snapshots k and k + 1 around t, and the weight w of k + 1."""
    k = min(max(int(np.floor((t - fs.times[0]) / fs.dt)), 0), len(fs.times) - 2)
    return k, k + 1, min(max((t - fs.times[k]) / fs.dt, 0.0), 1.0)


class ClosedFormFlow:
    """Reference of one flow (field, rate, factor) of a GaussianStack, from
    the scalar closed forms."""

    def __init__(self, g, spec):
        self.g, self.spec = g, spec

    def velocity(self, x, t):
        return closed_form_row(self.g, self.spec, x, t)[0]

    def sample(self, x, t):
        return closed_form_row(self.g, self.spec, x, t)

    def rate(self, x, t):
        return closed_form_row(self.g, self.spec, x, t)[2]


class SnapshotBlend:
    """Reference of one flow of a FieldStack, written out: the one-column
    splines snapshot.spline(values) of the snapshots k and k + 1 around t.
    A snapshot of weight 0 is left out.  Between snapshots each point takes
    its interval on the knots both runs share, blends the two splines'
    coefficients there as (1 - w) c_k + w c_k+1 and evaluates that cubic
    once.  Value and slope are scaled by ``factor``."""

    def __init__(self, fs, name, factor=1.0):
        self.fs, self.factor = fs, factor
        self.splines = [(snap.spline(field_values(fs, snap, name)), snap.largest_run())
                        for snap in fs.snapshots]

    def _blend(self, x, t):
        k0, k1, w = bracket(self.fs, t)
        if w in (0.0, 1.0):
            sp, _ = self.splines[k1 if w else k0]
            return self.factor * sp.own_column(sp.locate(x), 0, slope=True)
        (sp0, (a0, b0)), (sp1, (a1, b1)) = self.splines[k0], self.splines[k1]
        a, b = max(a0, a1), min(b0, b1)
        knots = self.fs.grid.x[a:b]
        i = np.searchsorted(knots[1:-1], x, side="right")
        s = x - knots[i]
        c = (1.0 - w) * sp0._c[:, i + a - a0] + w * sp1._c[:, i + a - a1]
        value = ((c[3] + c[2] * s) + c[1] * (s * s)) + c[0] * ((s * s) * s)
        slope = (c[2] + (c[1] * s) * 2.0) + (c[0] * (s * s)) * 3.0
        return self.factor * np.stack((value, slope))

    def velocity(self, x, t):
        return self._blend(x, t)[0]

    def sample(self, x, t):
        v, g = self._blend(x, t)
        return v, g, 0.0


def held_float_bytes(obj):
    """Bytes of the float arrays reachable from obj through its attributes,
    dicts, tuples and lists, counted once per array that owns its data; a
    field series (the ``fseries`` attribute) is left out."""
    owners, seen = {}, set()
    todo = [v for k, v in vars(obj).items() if k != "fseries"]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            if item.dtype.kind == "f":
                owners[id(item)] = item.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif hasattr(item, "__dict__"):
            todo.extend(vars(item).values())
    return sum(owners.values())


@pytest.fixture(scope="module")
def harmonic_series():
    """A moving Gaussian in a harmonic well on Crank-Nicolson snapshots:
    200 steps of 1e-3, every tenth stored."""
    params = PhysicalParams(potential=Potential("harmonic", omega=0.5))
    grid = SpatialGrid(-10.0, 10.0, 512)
    snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0, momentum=0.5), grid, params)
    return derive_series(evolve_crank_nicolson(snap, params, 1e-3, 200, store_every=10))


class TestLabelSet:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            LabelSet(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(PreconditionError):
            LabelSet(np.array([1.0]))

    def test_spacing_is_the_first_gap_of_uniform_labels(self):
        labels = LabelSet.uniform(-4.0, 4.0, 201)
        assert labels.spacing == labels.values[1] - labels.values[0]
        with pytest.raises(PreconditionError, match="labels must be uniformly spaced"):
            LabelSet(np.array([0.0, 0.1, 0.3, 0.6, 1.0])).spacing

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
        exact = chi_polar(g, labels.values[None, :], times[:, None])
        assert np.abs(dbb_congruence.chi - exact).max() < 1e-11

    def test_zero_velocity_field_is_static(self, labels, times):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        src = FakeStack([(zero, zero, lambda x, t: 2.0 + 0.0 * np.asarray(x))])
        c, = integrate_congruence(src, labels, times, initial_actions=[0.5 * labels.values])
        assert np.abs(c.q - labels.values[None, :]).max() == 0.0
        assert np.abs(c.J - 1.0).max() == 0.0
        expected = 0.5 * labels.values[None, :] + 2.0 * times[:, None]
        assert np.abs(c.chi - expected).max() < 1e-12

    def test_rk4_convergence_order(self, g):
        labels = LabelSet.uniform(-2.0, 2.0, 5)
        src = GaussianStack(g, [("v_minus", None, 1.0)])

        def err(dt):
            times = np.arange(0.0, 1.0 + dt / 2, dt)
            c, = integrate_congruence(src, labels, times)
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

    def test_exit_error_names_label_and_time(self, params):
        # the minus flow spreads faster than the region where the
        # Crank-Nicolson density stays above its floor (|x| < 5.7 by t = 0.4)
        grid = SpatialGrid(-10.0, 10.0, 512)
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        fs = derive_series(evolve_crank_nicolson(snap, params, 1e-3, 400, store_every=10))
        labels = LabelSet.uniform(-4.0, 4.0, 9)
        with pytest.raises(TrajectoryExitError) as err:
            integrate_congruence(FieldStack(fs, [("v_minus", None, 1.0)]), labels,
                                 np.linspace(0.0, 0.4, 401))
        assert abs(err.value.label) == 4.0
        assert 0.0 < err.value.time < 0.4

    def test_stacked_exit_error_names_the_flow_that_left_first(self, params):
        # on the series of the test above the minus flow leaves first, though
        # it is the second flow of the stack, at the time it leaves alone
        grid = SpatialGrid(-10.0, 10.0, 512)
        snap = build_initial_state(InitialStateSpec("gaussian", SIGMA0), grid, params)
        fs = derive_series(evolve_crank_nicolson(snap, params, 1e-3, 400, store_every=10))
        labels = LabelSet.uniform(-4.0, 4.0, 9)
        times = np.linspace(0.0, 0.4, 401)
        with pytest.raises(TrajectoryExitError) as alone:
            integrate_congruence(FieldStack(fs, [("v_minus", None, 1.0)]), labels, times)
        stack = FieldStack(fs, [("v", "L", 1.0), ("v_minus", "L_minus", 1.0)], ("dbb", "minus"))
        with pytest.raises(TrajectoryExitError) as err:
            integrate_congruence(stack, labels, times)
        assert (err.value.flow, err.value.label, err.value.time) == (
            "minus", alone.value.label, alone.value.time)
        assert str(err.value) == "minus " + str(alone.value)

    def test_march_past_the_sampled_span_names_the_span(self, params):
        # a series stored to t = 0.2 and marched to t = 0.3: the first RK4
        # stage past the last snapshot is at t = 0.205, and no label is at fault
        grid = SpatialGrid(-10.0, 10.0, 512)
        fs = derive_series(analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                                           np.arange(21) * 0.01))
        stack = FieldStack(fs, [("v_plus", "L_plus", 1.0), ("v_minus", "L_minus", 1.0)],
                           ("plus", "minus"))
        with pytest.raises(SampledSpanError) as err:
            integrate_congruence(stack, LabelSet.uniform(-1.5, 1.5, 31), np.arange(31) * 0.01)
        assert str(err.value) == ("t=0.205 is outside the sampled span [0, 0.2] "
                                  "of the field series")
        assert err.value.index is None and err.value.x is None
        assert "label" not in str(err.value)

    def test_stacked_guard_errors_name_the_flow_that_failed_first(self):
        # the cubic squeeze of the test below, switched on at t=0 in the
        # second flow and at t=0.5 in the first: the second fails first
        labels = LabelSet.uniform(-1.0, 1.0, 11)
        times = np.linspace(0.0, 2.0, 9)
        zero = lambda x, t: 0.0 * np.asarray(x, dtype=float)

        def squeeze(start, slope=True):
            v = lambda x, t: -8.0 * (t >= start) * np.asarray(x, dtype=float) ** 3
            g_ = (lambda x, t: -24.0 * (t >= start) * np.asarray(x, dtype=float) ** 2)
            return v, g_ if slope else zero

        with pytest.raises(FocalPointError, match=r"^non-positive expansion factor of the "
                                                  r"early path of label -0\.8 at t=0\.25$"):
            integrate_congruence(FakeStack([squeeze(0.5), squeeze(0.0)], ("late", "early")),
                                 labels, times)
        with pytest.raises(CongruenceCrossingError,
                           match=r"^early paths of labels -0\.8 and -0\.6 crossed at t=0\.25$"):
            integrate_congruence(FakeStack([squeeze(0.5, False), squeeze(0.0, False)],
                                           ("late", "early")), labels, times)
        # alone, the first flow fails too, but later
        with pytest.raises(FocalPointError, match=r"at t=0\.5$"):
            integrate_congruence(FakeStack([squeeze(0.5)]), labels, times)

    def test_stacked_closed_forms_are_the_per_flow_march(self, g):
        labels = LabelSet.uniform(-4.0, 4.0, 41)
        times = np.linspace(0.0, 1.0, 201)
        # (flow, spec, initial action): the three flows of simulate, and the
        # rate-less half-speed host of composition case ii
        flows = (("plus", ("v_plus", "L_plus", 1.0), gaussian.action_plus),
                 ("minus", ("v_minus", "L_minus", 1.0), gaussian.action_minus),
                 ("dbb", ("v", "L", 1.0), gaussian.phase_action),
                 ("half_plus", ("v_plus", None, 0.5), None))
        chi0 = [None if action is None else action(g, labels.values, 0.0)
                for *_, action in flows]
        stack = GaussianStack(g, [spec for _, spec, _ in flows], [name for name, *_ in flows])
        got = integrate_congruence(stack, labels, times, initial_actions=chi0)
        assert len(got) == len(flows)
        for c, (_, spec, _), chi in zip(got, flows, chi0):
            flow = ClosedFormFlow(g, spec)
            want = three_calls(labels, flow, flow.rate if spec[1] else None, chi, times)
            for name, arr in zip(("q", "qdot", "J", "chi"), want):
                assert np.array_equal(getattr(c, name), arr), name

    def test_final_velocity_of_a_flow_outside_keeps_its_last_row(self):
        # both flows contract as dq/dt = -q; the field of the "edge" flow
        # ends at x = edge at the final time.  The last RK4 stage lands
        # inside, by q (1 - h + h^2/2 - h^3/4) from the previous positions;
        # the final positions, by one RK4 step, do not
        labels = LabelSet.uniform(0.5, 1.0, 6)
        times = np.linspace(0.0, 1.0, 5)
        h = times[1]
        step = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        edge = step**3 * (step + (1.0 - h + h**2 / 2 - h**3 / 4)) / 2

        def bounded(x, t):
            x = np.asarray(x, dtype=float)
            if t >= times[-1] and (x > edge).any():
                raise DomainError(float(x.max()), t)
            return -x

        minus_one = lambda x, t: -1.0 + 0.0 * np.asarray(x, dtype=float)
        stack = FakeStack([(bounded, minus_one),
                           (lambda x, t: -np.asarray(x, dtype=float), minus_one)],
                          ("edge", "calm"))
        edge_flow, calm = integrate_congruence(stack, labels, times)
        assert edge_flow.q[-1, -1] > edge
        assert np.array_equal(edge_flow.qdot[-1], edge_flow.qdot[-2])
        assert not np.array_equal(edge_flow.qdot[-1], -edge_flow.q[-1])
        assert np.array_equal(calm.qdot[-1], -calm.q[-1])

    def test_health_of_the_closed_form_flows(self, g, labels, times, plus_congruence,
                                             minus_congruence, dbb_congruence):
        # q = q0 scale(t), so the gaps are h0 scale(t) and J is scale(t)
        h0 = labels.values[1] - labels.values[0]
        for kind, c in (("plus", plus_congruence), ("minus", minus_congruence),
                        ("dbb", dbb_congruence)):
            scale = gaussian.path_scale(g, kind, times).min()
            assert c.min_path_spacing == pytest.approx(h0 * scale, rel=1e-9)
            assert c.min_expansion_factor == pytest.approx(scale, rel=1e-9)

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
            integrate_congruence(FakeStack([(v, g_)]), labels, np.linspace(0.0, 2.0, 9))

    def test_guard_errors_name_labels_and_time(self):
        from bihj.congruence import Congruence
        # the squeeze of the test above: with its slope, J reaches zero first
        v = lambda x, t: -np.asarray(x, dtype=float) ** 3 * 8.0
        g_ = lambda x, t: -24.0 * np.asarray(x, dtype=float) ** 2
        labels = LabelSet.uniform(-1.0, 1.0, 11)
        times = np.linspace(0.0, 2.0, 9)
        with pytest.raises(FocalPointError,
                           match=r"^non-positive expansion factor of label -0\.8 at t=0\.25$"):
            integrate_congruence(FakeStack([(v, g_)]), labels, times)
        # with a zero slope J stays 1, and the paths cross instead
        zero = lambda x, t: 0.0 * np.asarray(x, dtype=float)
        with pytest.raises(CongruenceCrossingError,
                           match=r"^paths of labels -0\.8 and -0\.6 crossed at t=0\.25$"):
            integrate_congruence(FakeStack([(v, zero)]), labels, times)
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

    def test_container_checks_span_blocks_of_stored_times(self):
        # more stored times than one block of the checks, the paths closest
        # in the last block: the first failure and the health numbers are
        # those of every stored time at once
        from bihj.congruence import CHECK_BLOCK_TIMES, Congruence
        nt = 2 * CHECK_BLOCK_TIMES + 20
        lab = LabelSet.uniform(-1.0, 1.0, 5)
        times = 0.01 * np.arange(nt)
        q = lab.values * (2.0 - np.arange(nt) / nt + 0.1 * np.sin(np.arange(nt)))[:, None]
        J = 1.0 + 0.25 * np.cos(np.arange(nt))[:, None] * np.ones(5)
        zeros = np.zeros((nt, 5))
        c = Congruence(lab, times, q, zeros, J, zeros)
        assert c.min_path_spacing == np.diff(q, axis=1).min()
        assert c.min_expansion_factor == J.min()
        late = nt - 3
        crossed = q.copy()
        crossed[late, 2] = crossed[late, 3] + 0.1
        bad_j = J.copy()
        bad_j[late - 1, 1] = 0.0
        with pytest.raises(CongruenceCrossingError, match=rf"crossed at t={times[late]:.6g}$"):
            Congruence(lab, times, crossed, zeros, J, zeros)
        # every expansion factor is checked before any gap
        with pytest.raises(FocalPointError, match=rf"at t={times[late - 1]:.6g}$"):
            Congruence(lab, times, crossed, zeros, bad_j, zeros)


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


class TestReadAtPoints:
    def test_at_is_the_inversion_then_one_spline_per_row(self, minus_congruence):
        """Each named row read through ``at`` has the bits of its own
        one-column spline at the inverted labels."""
        c = minus_congruence
        k = len(c.times) - 1
        xs = np.linspace(0.9 * c.q[k, 0], 0.9 * c.q[k, -1], 17)
        q0, J, chi = c.at(xs, c.times[k], "J", "chi")
        assert np.array_equal(q0, invert_labels(c, xs, c.times[k]))
        for got, row in ((J, c.J[k]), (chi, c.chi[k])):
            assert np.array_equal(got, CubicSpline(c.labels.values, row)(q0))

    def test_at_a_scalar_point_reads_one_label(self, plus_congruence):
        q0, chi = plus_congruence.at(0.3, 0.0, "chi")
        assert q0.shape == chi.shape == (1,)
        assert q0[0] == pytest.approx(0.3, abs=1e-10)


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
    """Sampled fields: one-flow and k-flow FieldStacks against the spline
    blends of their snapshots."""

    def test_sampled_fields_drive_accurate_trajectories(self, params, g):
        grid = SpatialGrid(-10.0, 10.0, 2048)
        wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.arange(0.0, 1.0 + 1e-9, 0.01))
        fs = derive_series(wave)
        labels = LabelSet.uniform(-3.0, 3.0, 61)
        times = np.linspace(0.0, 1.0, 1001)
        c, = integrate_congruence(FieldStack(fs, [("v_plus", None, 1.0)]), labels, times)
        exact = labels.values * gaussian.path_scale(g, "plus", 1.0)
        assert np.abs(c.q[-1] - exact).max() < 1e-4

    def test_one_sample_per_stage_is_the_three_call_march(self, harmonic_series):
        fs = harmonic_series
        labels = LabelSet.uniform(-1.5, 1.5, 41)
        # (name, field, rate, factor, initial action): the three flows of
        # simulate, and the rate-less half-speed host of composition case ii
        flows = (("plus", "v_plus", "L_plus", 1.0, "S_plus"),
                 ("minus", "v_minus", "L_minus", 1.0, "S_minus"),
                 ("dbb", "v", "L", 1.0, "S"), ("half_plus", "v_plus", None, 0.5, None))
        snap0 = fs.snapshots[0]
        chi0 = [snap0.spline(getattr(snap0, a))(labels.values) if a else None
                for *_, a in flows]
        alone = [(SnapshotBlend(fs, f, c), SnapshotBlend(fs, r).velocity if r else None)
                 for _, f, r, c, _ in flows]

        # the snapshot times themselves put the first stage of every step on
        # a snapshot, where one of the two weights is 0; the finer times also
        # put stages between snapshots
        snapshot_stage = 0
        for times in (fs.times, np.linspace(0.0, 0.2, 81)):
            for t in times:
                snapshot_stage += bracket(fs, t)[2] in (0.0, 1.0)
            stack = FieldStack(fs, [(f, r, c) for _, f, r, c, _ in flows],
                               [name for name, *_ in flows])
            got = integrate_congruence(stack, labels, times, initial_actions=chi0)
            assert len(got) == len(flows)
            for c, (velocity, rate), chi, flow in zip(got, alone, chi0, flows):
                want = three_calls(labels, velocity, rate, chi, times)
                for name, arr in zip(("q", "qdot", "J", "chi"), want):
                    assert np.array_equal(getattr(c, name), arr), (flow[0], name)
            # each flow's rows of one stacked sample are its own field's
            x = np.stack([c.q[5] for c in got])
            stacked = stack.sample(x, times[5])
            for j, (velocity, rate) in enumerate(alone):
                v, g, L = velocity.sample(x[j], times[5])
                assert np.array_equal(stacked[0][j], v) and np.array_equal(stacked[1][j], g)
                assert np.array_equal(stacked[2][j],
                                      rate(x[j], times[5]) if rate else 0.0 * v)
        assert snapshot_stage >= len(fs.times)

    def test_stack_keeps_at_most_two_snapshots_of_splines(self, params):
        grid = SpatialGrid(-10.0, 10.0, 512)
        wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.arange(0.0, 0.2 + 1e-9, 0.01))
        fs = derive_series(wave)
        flows = ("plus", "minus", "dbb")
        stack = FieldStack(fs, [("v_plus", "L_plus", 1.0), ("v_minus", "L_minus", 1.0),
                                ("v", "L", 1.0)], flows)
        # the float bytes a spline of the stack's columns holds, the
        # largest over the snapshots, and those of the stack before a query
        spline_bytes = max(
            held_float_bytes(snap.spline(np.stack([field_values(fs, snap, name)
                                                   for name in stack.columns], 1)))
            for snap in fs.snapshots)
        unqueried = held_float_bytes(stack)
        held, held_bytes, sample = [], [], stack.sample

        def counted(x, t):
            out = sample(x, t)
            held.append(sorted(stack._splines))
            held_bytes.append(held_float_bytes(stack) - unqueried)
            return out

        stack.sample = counted
        integrate_congruence(stack, LabelSet.uniform(-1.5, 1.5, 31), np.linspace(0.0, 0.2, 81))
        # 4 stages per step and the final velocity; every snapshot was used
        assert len(held) == 4 * 80 + 1
        assert max(len(keys) for keys in held) == 2
        assert sorted(set().union(*held)) == list(range(len(fs.times)))
        # no table beyond the two splines' own: the blend gathers from each
        assert 0 < max(held_bytes) <= 2 * spline_bytes

    def test_coefficient_blend_is_the_value_blend_to_roundoff(self, harmonic_series):
        # between snapshots, one cubic of blended coefficients against the
        # blend 0.0 + (1 - w) sp_k(x) + w sp_k+1(x) of the two splines'
        # values and slopes; at a snapshot time, that snapshot's spline alone
        fs = harmonic_series
        names = ("v_plus", "L_plus", "v_minus", "L_minus", "v", "L")
        stack = FieldStack(fs, [("v_plus", "L_plus", 1.0), ("v_minus", "L_minus", 1.0),
                                ("v", "L", 1.0)])
        splines = [snap.spline(np.stack([field_values(fs, snap, name) for name in names], 1))
                   for snap in fs.snapshots]
        x = np.linspace(-2.0, 2.0, 201)
        fields, rates = list(range(0, 6, 2)), list(range(1, 6, 2))

        def stacked(t):
            return np.stack(stack.sample(np.stack([x] * 3), t))

        for k, t in enumerate(fs.times):
            value, slope = splines[k](x).T, splines[k].own_column(
                splines[k].locate(x), None, slope=True)[1].T
            want = np.stack((value[fields], slope[fields], value[rates]))
            assert stacked(t).tobytes() == want.tobytes()
        for w in (0.37, 0.5, 0.9):
            for k in range(len(fs.times) - 1):
                t = fs.times[k] + w * fs.dt
                k0, k1, wt = bracket(fs, t)
                assert (k0, k1) == (k, k + 1) and 0.0 < wt < 1.0
                blend = 0.0
                for sp, wk in ((splines[k0], 1.0 - wt), (splines[k1], wt)):
                    blend = blend + wk * sp.own_column(sp.locate(x), None, slope=True)
                want = np.stack((blend[0].T[fields], blend[1].T[fields], blend[0].T[rates]))
                got = stacked(t)
                for quantity in range(3):
                    scale = np.abs(want[quantity]).max()
                    assert np.abs(got[quantity] - want[quantity]).max() <= 1e-15 * scale

    def test_velocity_is_the_value_of_sample(self, g, harmonic_series):
        # the two operations of every stack give one field, byte for byte,
        # and a one-flow stack's velocity is the blend of its snapshots
        fs = harmonic_series
        closed = [GaussianStack(g, [spec]) for spec in (
            ("v_plus", "L_plus", 1.0), ("v_plus", "L_plus", -0.5), ("u", None, 1.0))]
        fields = (("v_plus", 1.0), ("L_plus", 1.0), ("rho", 1.0), ("u", 0.5))
        stacks = [(FieldStack(fs, [(name, None, factor)]), SnapshotBlend(fs, name, factor))
                  for name, factor in fields]
        x = np.r_[np.linspace(-2.0, 2.0, 41), -0.0, 0.0]
        # snapshot times and times between them
        for t in np.r_[fs.times, fs.times[:-1] + 0.37 * fs.dt]:
            for stack in closed:
                value = stack.velocity(x, t)
                sampled = stack.sample(x[None], t)[0][0]
                assert value.shape == sampled.shape == x.shape
                assert value.tobytes() == sampled.tobytes()
            for stack, blend in stacks:
                value = stack.velocity(x, t)
                sampled = stack.sample(x[None], t)[0][0]
                assert value.shape == sampled.shape == x.shape
                assert value.tobytes() == sampled.tobytes() == blend.velocity(x, t).tobytes()
                assert stack.velocity(x[3], t).tobytes() == value[3].tobytes()

    def test_last_snapshot_time_reads_only_the_last_snapshot(self, params):
        # at the last snapshot time the earlier snapshot has weight 0: a point
        # inside the last valid run but outside the one before is sampled
        grid = SpatialGrid(-10.0, 10.0, 512)
        snap = build_initial_state(InitialStateSpec("gaussian", 0.7, momentum=3.0), grid, params)
        wave = evolve_crank_nicolson(snap, params, 1e-3, 200, store_every=100)
        fs = derive_series(wave, rho_min=1e-4 * snap.density().max())
        x = np.array([3.4834])
        (a, b), (a_last, b_last) = (s.largest_run() for s in fs.snapshots[-2:])
        assert not grid.x[a] <= x[0] <= grid.x[b - 1]
        assert grid.x[a_last] <= x[0] <= grid.x[b_last - 1]
        last = fs.snapshots[-1].spline(fs.snapshots[-1].v)(x)
        stack = FieldStack(fs, [("v", None, 1.0)])
        assert last[0] == pytest.approx(3.5716, abs=1e-4)
        assert stack.velocity(x, fs.times[-1]).tobytes() == last.tobytes()
        assert stack.sample(x[None], fs.times[-1])[0].tobytes() == last.tobytes()
        # between the two snapshots only the knots both runs share count
        with pytest.raises(DomainError) as err:
            stack.velocity(np.r_[0.0, x], fs.times[-1] - 0.5 * fs.dt)
        assert err.value.index == 1

    def test_queries_outside_span_raise(self, params):
        grid = SpatialGrid(-10.0, 10.0, 512)
        wave = analytic_series(InitialStateSpec("gaussian", SIGMA0), grid, params,
                               np.arange(3) * 1e-2)
        fs = derive_series(wave)
        src = FieldStack(fs, [("v", None, 1.0)])
        with pytest.raises(DomainError):
            src.velocity(np.array([25.0]), 0.0)
        with pytest.raises(DomainError):
            src.velocity(np.array([0.0]), 5.0)

    def test_action_rates_are_lagrangians_of_the_flows(self, harmonic_series):
        fs = harmonic_series
        params, grid = fs.params, fs.snapshots[0].grid
        V = params.potential.on_grid(grid, params.mass)
        x = np.linspace(-2.0, 2.0, 33)
        for name, v, Q in (("L_plus", "v_plus", "Q_plus"), ("L_minus", "v_minus", "Q_minus"),
                           ("L", "v", "Q")):
            src = FieldStack(fs, [(name, None, 1.0)])
            for k, s in enumerate(fs.snapshots):
                lagrangian = 0.5 * params.mass * getattr(s, v) ** 2 - getattr(s, Q) - V
                a, b = s.largest_run()
                expected = CubicSpline(grid.x[a:b], lagrangian[a:b])(x)
                got = src.velocity(x, fs.times[k])
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        with pytest.raises(PreconditionError):
            FieldStack(fs, [("Q_plus", None, 1.0)])
