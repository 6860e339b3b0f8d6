import numpy as np
import pytest
from oracles import osmotic_velocity, q_potential, q_potential_minus, q_potential_plus, velocity

from bihj import gaussian
from bihj.autonomous import BiCongruence
from bihj.congruence import LabelSet, integrate_congruence
from bihj.gaussian import GaussianStack
from bihj.reference import PhysicalParams

SIGMA0 = np.sqrt(0.5)


@pytest.fixture(scope="session")
def g():
    return gaussian.GaussianParams(SIGMA0)


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def labels():
    return LabelSet.uniform(-4.0, 4.0, 201)


@pytest.fixture(scope="session")
def times():
    return np.linspace(0.0, 1.0, 501)


# the closed forms of the fields of GaussianStack rows, and of their action
# rates as (velocity, potential)
FIELD_FORMS = {"v": velocity, "v_plus": gaussian.velocity_plus,
               "v_minus": gaussian.velocity_minus, "u": osmotic_velocity}
RATE_FORMS = {"L": (velocity, q_potential),
              "L_plus": (gaussian.velocity_plus, q_potential_plus),
              "L_minus": (gaussian.velocity_minus, q_potential_minus)}


def closed_form_row(g, spec, x, t):
    """v, dv/dx and L of one flow (field, rate, factor) from the scalar
    closed forms of bihj.gaussian and oracles: the slope is (f(1) - f(0)) + 0.0,
    ``factor`` scales v and the slope, and L is m v^2 / 2 - Q of the rate's
    flow, or 0.0 without a rate."""
    field, rate, factor = spec
    f = FIELD_FORMS[field]
    L = 0.0
    if rate is not None:
        v, Q = RATE_FORMS[rate]
        L = 0.5 * g.mass * v(g, x, t) ** 2 - Q(g, x, t)
    return factor * f(g, x, t), factor * ((f(g, 1.0, t) - f(g, 0.0, t)) + 0.0), L


class FakeStack:
    """A stack of flows with arbitrary fields, for the march's guards and
    fallbacks: one (v, dv/dx) or (v, dv/dx, L) tuple of callables of (x, t)
    per flow, L zero when it is left out."""

    def __init__(self, fields, flows=None):
        self.fields = [tuple(f) + (None,) * (3 - len(f)) for f in fields]
        self.flows = tuple(flows) if flows is not None else (None,) * len(self.fields)

    def velocity(self, x, t):
        (v, _, _), = self.fields
        return v(x, t)

    def sample(self, x, t):
        out = np.zeros((3,) + x.shape)
        for j, (v, g, L) in enumerate(self.fields):
            out[0, j], out[1, j] = v(x[j], t), g(x[j], t)
            if L is not None:
                out[2, j] = L(x[j], t)
        return out

    def part(self, j):
        return FakeStack(self.fields[j:j + 1], self.flows[j:j + 1])


def _congruence(g, labels, times, field, rate=None, action0=None):
    c, = integrate_congruence(GaussianStack(g, [(field, rate, 1.0)]), labels, times,
                              initial_actions=[action0])
    return c


@pytest.fixture(scope="session")
def plus_congruence(g, labels, times):
    return _congruence(g, labels, times, "v_plus", "L_plus",
                       gaussian.action_plus(g, labels.values, 0.0))


@pytest.fixture(scope="session")
def minus_congruence(g, labels, times):
    return _congruence(g, labels, times, "v_minus", "L_minus",
                       gaussian.action_minus(g, labels.values, 0.0))


@pytest.fixture(scope="session")
def dbb_congruence(g, labels, times):
    return _congruence(g, labels, times, "v", "L", gaussian.phase_action(g, labels.values, 0.0))


@pytest.fixture(scope="session")
def bi_pair(params, plus_congruence, minus_congruence):
    return BiCongruence(params, plus_congruence, minus_congruence)
