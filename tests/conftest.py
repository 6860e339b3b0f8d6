import numpy as np
import pytest

from bihj import gaussian
from bihj.autonomous import BiCongruence
from bihj.congruence import CallableSource, LabelSet, integrate_congruence
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


def _congruence(g, labels, times, kind, rate=None, action0=None):
    return integrate_congruence(
        CallableSource(*gaussian.velocity_field(g, kind),
                       gaussian.action_rate(g, rate) if rate else None),
        labels, times, initial_actions=action0)


@pytest.fixture(scope="session")
def plus_congruence(g, labels, times):
    return _congruence(g, labels, times, "plus", "plus",
                       lambda q: gaussian.action_plus(g, q, 0.0))


@pytest.fixture(scope="session")
def minus_congruence(g, labels, times):
    return _congruence(g, labels, times, "minus", "minus",
                       lambda q: gaussian.action_minus(g, q, 0.0))


@pytest.fixture(scope="session")
def dbb_congruence(g, labels, times):
    return _congruence(g, labels, times, "dbb", "polar",
                       lambda q: gaussian.phase_action(g, q, 0.0))


@pytest.fixture(scope="session")
def bi_pair(params, g, plus_congruence, minus_congruence):
    return BiCongruence.from_congruences(
        params, plus_congruence, minus_congruence,
        lambda q: gaussian.action_plus(g, q, 0.0),
        lambda q: gaussian.action_minus(g, q, 0.0))
