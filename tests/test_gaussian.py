"""Closed-form layer checked against brute-force differentiation of psi."""
import numpy as np
import pytest
from conftest import closed_form_row
from oracles import (
    chi_plus,
    osmotic_velocity,
    q_potential,
    q_potential_minus,
    q_potential_plus,
    velocity,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bihj import gaussian
from bihj.errors import PreconditionError

KAPPA = 1.0


def richardson_dx(f, x, h=1e-4):
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def test_derived_constants(g):
    assert g.kappa == pytest.approx(1.0)
    assert g.sigma(0.0) == pytest.approx(g.sigma0)
    # width grows as sigma0 sqrt(1 + t^2)
    assert g.sigma(1.0) == pytest.approx(g.sigma0 * np.sqrt(2.0))


def test_field_values_at_probe_points(g):
    # evaluated from the closed forms
    assert gaussian.rho(g, 0.0, 0.0) == pytest.approx(0.5641895835477563, abs=1e-12)
    assert gaussian.rho(g, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert gaussian.phase_action(g, 0.0, 1.0) == pytest.approx(-np.arctan(1.0) / 2.0, abs=1e-14)
    assert gaussian.velocity_plus(g, 1.0, 0.0) == pytest.approx(-1.0, abs=1e-14)
    assert gaussian.velocity_minus(g, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert osmotic_velocity(g, 1.0, 0.0) == pytest.approx(-2.0, abs=1e-14)
    assert q_potential_plus(g, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-14)
    assert q_potential_minus(g, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-14)
    assert q_potential(g, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    for f in (q_potential, q_potential_plus, q_potential_minus):
        assert f(g, 0.0, 0.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_velocities_against_brute_force_on_psi(g, t):
    """v_pm from the derivatives of the closed-form amplitude itself."""
    xs = np.linspace(-1.8, 1.8, 7)
    dS = richardson_dx(lambda x: gaussian.phase_action(g, x, t), xs)
    dlog = richardson_dx(lambda x: np.log(gaussian.rho(g, x, t)), xs)
    v_plus_fd = dS + 0.5 * g.hbar * dlog
    v_minus_fd = dS - 0.5 * g.hbar * dlog
    assert np.abs(v_plus_fd - gaussian.velocity_plus(g, xs, t)).max() < 1e-9
    assert np.abs(v_minus_fd - gaussian.velocity_minus(g, xs, t)).max() < 1e-9
    u = gaussian.velocity_plus(g, xs, t) - gaussian.velocity_minus(g, xs, t)
    assert np.abs(u - g.hbar / g.mass * dlog).max() < 1e-9


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
def test_coupled_potentials_by_brute_force(g, t):
    xs = np.linspace(-1.5, 1.5, 7)
    d2Sm = richardson_dx(
        lambda x: richardson_dx(lambda y: gaussian.action_minus(g, y, t), x), xs, h=3e-4)
    d2Sp = richardson_dx(
        lambda x: richardson_dx(lambda y: gaussian.action_plus(g, y, t), x), xs, h=3e-4)
    u = osmotic_velocity(g, xs, t)
    qp = 0.5 * g.hbar / g.mass * d2Sm - 0.25 * g.mass * u**2
    qm = -0.5 * g.hbar / g.mass * d2Sp - 0.25 * g.mass * u**2
    assert np.abs(qp - q_potential_plus(g, xs, t)).max() < 1e-6
    assert np.abs(qm - q_potential_minus(g, xs, t)).max() < 1e-6


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_phase_action_evolution_closes_with_derived_sign(g, sign):
    """The residual of the coupled evolution equations vanishes, and flips to
    order one if the first potential term changes sign."""
    xs = np.linspace(-1.5, 1.5, 9)
    t = 0.6
    h = 1e-5
    act = gaussian.action_plus if sign == "plus" else gaussian.action_minus
    vel = gaussian.velocity_plus if sign == "plus" else gaussian.velocity_minus
    qpot = q_potential_plus if sign == "plus" else q_potential_minus
    dSdt = (act(g, xs, t + h) - act(g, xs, t - h)) / (2.0 * h)
    res = dSdt + 0.5 * g.mass * vel(g, xs, t) ** 2 + qpot(g, xs, t)
    assert np.abs(res).max() < 1e-8
    flipped = qpot(g, xs, t) - 2.0 * (qpot(g, xs, t) + 0.25 * g.mass
                                      * osmotic_velocity(g, xs, t) ** 2)
    res_bad = dSdt + 0.5 * g.mass * vel(g, xs, t) ** 2 + flipped
    assert np.abs(res_bad).max() > 0.1


@pytest.mark.parametrize("kind", gaussian.PATH_KINDS)
def test_paths_follow_their_velocity_fields(g, kind):
    """Substitution identity: dq/dt equals the matching field along the path."""
    field = {"dbb": velocity, "plus": gaussian.velocity_plus,
             "minus": gaussian.velocity_minus,
             "half_plus": lambda gg, x, t: 0.5 * gaussian.velocity_plus(gg, x, t)}[kind]
    for q0 in (-1.5, 0.5, 1.0):
        for t in (0.1, 0.45, 0.9):
            qdot = richardson_dx(lambda tt: gaussian.oracle_path(g, kind, q0, tt), t, h=1e-4)
            expect = field(g, gaussian.oracle_path(g, kind, q0, t), t)
            assert qdot == pytest.approx(expect, abs=1e-8)


def test_path_values(g):
    assert gaussian.oracle_path(g, "dbb", 1.0, 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert gaussian.oracle_path(g, "plus", 1.0, 1.0) == pytest.approx(
        np.sqrt(2.0) * np.exp(-np.pi / 4.0), abs=1e-14)
    assert gaussian.oracle_path(g, "minus", 1.0, 1.0) == pytest.approx(
        np.sqrt(2.0) * np.exp(np.pi / 4.0), abs=1e-14)
    assert gaussian.oracle_path(g, "half_plus", 1.0, 1.0) == pytest.approx(
        2.0**0.25 * np.exp(-np.pi / 8.0), abs=1e-14)
    for kind in gaussian.PATH_KINDS:
        assert gaussian.oracle_path(g, kind, 0.7, 0.0) == pytest.approx(0.7, abs=1e-15)


def test_label_generator_values(g):
    assert gaussian.oracle_label_generator(g, "i", 1.0, 1.0) == pytest.approx(
        np.exp(np.pi / 4.0), abs=1e-14)
    assert gaussian.oracle_label_generator(g, "converse", 1.0, 1.0) == pytest.approx(
        np.exp(-np.pi / 4.0), abs=1e-14)
    assert gaussian.oracle_label_generator(g, "ii", 1.0, 1.0) == pytest.approx(
        2.0**0.25 * np.exp(np.pi / 8.0), abs=1e-14)
    for case in gaussian.GENERATOR_CASES:
        assert gaussian.oracle_label_generator(g, case, -1.2, 0.0) == pytest.approx(-1.2)


@pytest.mark.parametrize("case,host,target", [
    ("i", "plus", "dbb"),
    ("ii", "half_plus", "dbb"),
    ("converse", "dbb", "plus"),
])
def test_composition_identities_on_probe_lattice(g, case, host, target):
    """q_host(Q_B(q0, t), t) reproduces the target family pointwise."""
    q0s = np.linspace(-2.0, 2.0, 9)
    ts = np.linspace(0.0, 1.0, 11)
    for t in ts:
        qb = gaussian.oracle_label_generator(g, case, q0s, t)
        composed = gaussian.oracle_path(g, host, qb, t)
        expected = gaussian.oracle_path(g, target, q0s, t)
        assert np.abs(composed - expected).max() < 1e-10


def test_actions_equal_field_values_along_paths(g):
    for q0 in (-1.0, 0.0, 0.8):
        for t in (0.2, 1.0):
            x_p = gaussian.oracle_path(g, "plus", q0, t)
            assert chi_plus(g, q0, t) == pytest.approx(
                float(gaussian.action_plus(g, x_p, t)), abs=1e-12)


def test_psi_modulus_and_phase(g):
    psi = complex(gaussian.psi(g, 0.0, 1.0))
    assert psi == pytest.approx(0.5835396611093846 - 0.24171004181410682j, abs=1e-12)
    assert abs(psi) ** 2 == pytest.approx(gaussian.rho(g, 0.0, 1.0), abs=1e-12)


# the (field, rate, factor) rows the program marches or samples: the three
# flows of simulate, the case ii host and complement, and the complements
# -u/2 and +u/2 of cases i and converse and of the source terms
STACK_ROWS = (("v", "L", 1.0), ("v_plus", "L_plus", 1.0), ("v_minus", "L_minus", 1.0),
              ("v_plus", None, 0.5), ("v_minus", None, 0.5), ("u", None, -0.5),
              ("u", None, 0.5))


@settings(max_examples=150, deadline=None)
@given(sigma0=st.floats(0.3, 3.0), hbar=st.floats(0.3, 3.0), mass=st.floats(0.3, 3.0),
       t=st.floats(0.0, 3.0), as_float64=st.booleans(),
       xs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
def test_stack_rows_are_the_closed_forms(sigma0, hbar, mass, t, as_float64, xs):
    """Every row kind, alone and stacked, gives the bits of the scalar closed
    forms and their slope rule, and so does the density's velocity."""
    g = gaussian.GaussianParams(sigma0, hbar, mass)
    t = np.float64(t) if as_float64 else t
    x = np.array([-0.0, 0.0] + xs)
    points = np.stack([np.roll(x, j) for j in range(len(STACK_ROWS))])  # rows at own points
    stacked = gaussian.GaussianStack(g, STACK_ROWS).sample(points, t)
    for j, spec in enumerate(STACK_ROWS):
        alone = gaussian.GaussianStack(g, [spec])
        want = closed_form_row(g, spec, points[j], t)
        for got in (alone.sample(points[j:j + 1], t), [a[j:j + 1] for a in stacked]):
            for a, w in zip(got, want):
                assert a.shape == (1, x.size)
                assert a.tobytes() == np.broadcast_to(w, x.shape).tobytes(), spec
        assert alone.velocity(points[j], t).tobytes() == want[0].tobytes()
    rho = gaussian.GaussianStack(g, [("rho", None, 1.0)]).velocity(x, t)
    assert rho.tobytes() == gaussian.rho(g, x, t).tobytes()


def test_stack_rejects_unknown_fields_and_foreign_rates(g):
    with pytest.raises(PreconditionError, match="unknown field"):
        gaussian.GaussianStack(g, [("Q_plus", None, 1.0)])
    with pytest.raises(PreconditionError, match="not an action rate"):
        gaussian.GaussianStack(g, [("v_plus", "L_minus", 1.0)])
    with pytest.raises(PreconditionError, match="use velocity"):
        gaussian.GaussianStack(g, [("rho", None, 1.0)]).sample(np.zeros((1, 3)), 0.5)
