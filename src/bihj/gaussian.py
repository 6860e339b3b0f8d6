"""Closed forms for the free Gaussian packet at rest.

Every quantity here has an exact expression: the Eulerian fields, the three
trajectory families (mean-flow, plus, minus), the fractional-flow family, and
the label-generator curves used by the composition checks.  These closed forms
are the ground truth against which the numerical machinery is verified.
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianParams:
    """Free Gaussian at rest: width sigma0, units carried explicitly."""

    sigma0: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")

    @property
    def kappa(self):
        """Spreading rate hbar / (2 m sigma0^2)."""
        return self.hbar / (2.0 * self.mass * self.sigma0**2)

    def sigma_sq(self, t):
        return self.sigma0**2 * (1.0 + (self.kappa * t) ** 2)

    def sigma(self, t):
        return np.sqrt(self.sigma_sq(t))


# ---------- Eulerian fields ----------

def rho(g, x, t):
    s2 = g.sigma_sq(t)
    return (2.0 * np.pi * s2) ** -0.5 * np.exp(-np.asarray(x) ** 2 / (2.0 * s2))


def phase_action(g, x, t):
    """Polar phase action S."""
    s2 = g.sigma_sq(t)
    kt = g.kappa * t
    return g.hbar * kt * np.asarray(x) ** 2 / (4.0 * s2) - 0.5 * g.hbar * np.arctan(kt)


def psi(g, x, t):
    return np.sqrt(rho(g, x, t)) * np.exp(1j * phase_action(g, x, t) / g.hbar)


def action_plus(g, x, t, rho_ref=1.0):
    return phase_action(g, x, t) + 0.5 * g.hbar * np.log(rho(g, x, t) / rho_ref)


def action_minus(g, x, t, rho_ref=1.0):
    return phase_action(g, x, t) - 0.5 * g.hbar * np.log(rho(g, x, t) / rho_ref)


def velocity(g, x, t):
    """Mean-flow (probability transport) velocity."""
    return g.hbar * g.kappa * t * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))


def osmotic_velocity(g, x, t):
    return -g.hbar * np.asarray(x) / (g.mass * g.sigma_sq(t))


def velocity_plus(g, x, t):
    return (g.hbar * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))) * (g.kappa * t - 1.0)


def velocity_minus(g, x, t):
    return (g.hbar * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))) * (g.kappa * t + 1.0)


def q_potential(g, x, t):
    """Polar-model quantum potential."""
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return h2m / (4.0 * s2) - h2m * np.asarray(x) ** 2 / (8.0 * s2**2)


def q_potential_plus(g, x, t):
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return h2m / (4.0 * s2) * (g.kappa * t + 1.0) - h2m * np.asarray(x) ** 2 / (4.0 * s2**2)


def q_potential_minus(g, x, t):
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return -h2m / (4.0 * s2) * (g.kappa * t - 1.0) - h2m * np.asarray(x) ** 2 / (4.0 * s2**2)


def oracle_fields(g, x, t, rho_ref=1.0):
    """(rho, S, S_plus, S_minus, v_plus, v_minus) at one spacetime point."""
    return (
        rho(g, x, t),
        phase_action(g, x, t),
        action_plus(g, x, t, rho_ref),
        action_minus(g, x, t, rho_ref),
        velocity_plus(g, x, t),
        velocity_minus(g, x, t),
    )


# ---------- trajectory families ----------

PATH_KINDS = ("dbb", "plus", "minus", "half_plus")


def path_scale(g, kind, t):
    """q(q0, t) = q0 * scale(t) for each family; the scale is also the
    expansion factor dq/dq0, label independent for these linear flows."""
    kt = np.asarray(g.kappa * np.asarray(t), dtype=float)
    root = np.sqrt(1.0 + kt**2)
    if kind == "dbb":
        return root
    if kind == "plus":
        return root * np.exp(-np.arctan(kt))
    if kind == "minus":
        return root * np.exp(np.arctan(kt))
    if kind == "half_plus":
        return np.sqrt(root) * np.exp(-0.5 * np.arctan(kt))
    raise ValueError(f"unknown path kind {kind!r}")


def oracle_path(g, kind, q0, t):
    return np.asarray(q0) * path_scale(g, kind, t)


GENERATOR_CASES = ("i", "ii", "converse")


def generator_scale(g, case, t):
    kt = np.asarray(g.kappa * np.asarray(t), dtype=float)
    if case == "i":
        return np.exp(np.arctan(kt))
    if case == "ii":
        return (1.0 + kt**2) ** 0.25 * np.exp(0.5 * np.arctan(kt))
    if case == "converse":
        return np.exp(-np.arctan(kt))
    raise ValueError(f"unknown composition case {case!r}")


def oracle_label_generator(g, case, q0, t):
    return np.asarray(q0) * generator_scale(g, case, t)


# ---------- along-path actions and rates ----------

def chi_plus(g, q0, t, rho_ref=1.0):
    """Accumulated action of the plus family, equal to S_plus along the path."""
    return action_plus(g, oracle_path(g, "plus", q0, t), t, rho_ref)


def chi_minus(g, q0, t, rho_ref=1.0):
    return action_minus(g, oracle_path(g, "minus", q0, t), t, rho_ref)


def chi_polar(g, q0, t, rho_ref=1.0):
    return phase_action(g, oracle_path(g, "dbb", q0, t), t)


def velocity_field(g, kind):
    """(v, dv/dx) callables for a named flow; all these fields are linear in x."""
    table = {
        "dbb": velocity,
        "plus": velocity_plus,
        "minus": velocity_minus,
        "u": osmotic_velocity,
        "half_plus": lambda gg, x, t: 0.5 * velocity_plus(gg, x, t),
        "half_minus": lambda gg, x, t: 0.5 * velocity_minus(gg, x, t),
    }
    f = table[kind]

    def value(x, t):
        return f(g, x, t)

    def slope(x, t):
        # fields are x-linear: slope equals the value at x=1 minus the value at 0
        return f(g, 1.0, t) - f(g, 0.0, t) + np.zeros_like(np.asarray(x, dtype=float))

    return value, slope


def action_rate(g, which):
    """Lagrangian rate L = m qdot^2 / 2 - Q - V sampled in Eulerian variables."""
    if which == "plus":
        return lambda x, t: 0.5 * g.mass * velocity_plus(g, x, t) ** 2 - q_potential_plus(g, x, t)
    if which == "minus":
        return lambda x, t: 0.5 * g.mass * velocity_minus(g, x, t) ** 2 - q_potential_minus(g, x, t)
    if which == "polar":
        return lambda x, t: 0.5 * g.mass * velocity(g, x, t) ** 2 - q_potential(g, x, t)
    raise ValueError(f"unknown action rate {which!r}")
