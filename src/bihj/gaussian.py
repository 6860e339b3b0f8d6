"""Closed forms for the free Gaussian packet at rest.

The closed forms the commands read are here: the density, the phase action,
the action pair and its two velocities, the four trajectory families
(mean-flow, plus, minus, half_plus) and the label-generator curves of the
composition cases.  ``GaussianStack`` evaluates the fields and action rates
of k flows at once, for the march and for composition.  The scalar closed
forms that only the tests compare with (the mean-flow and osmotic
velocities, the three quantum potentials and the actions accumulated along
the paths) are in ``tests/oracles.py``; the tests check the stack against
them byte for byte.
"""
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


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


def velocity_plus(g, x, t):
    return (g.hbar * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))) * (g.kappa * t - 1.0)


def velocity_minus(g, x, t):
    return (g.hbar * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))) * (g.kappa * t + 1.0)


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


# ---------- stacks of closed-form flows ----------

class GaussianStack:
    """The closed-form velocity fields and action rates of k flows, marched
    together as one state of shape (k, n_labels); the interface of
    ``congruence.FieldStack``.

    ``specs`` holds one (field, rate, factor) per flow: the flow's velocity
    is ``factor`` times ``field`` (``v``, ``v_plus``, ``v_minus``, ``u`` or
    ``rho``), and its action rate is ``rate``, the Lagrangian
    m v^2 / 2 - Q of its field's flow (``L`` of ``v``, ``L_plus`` of
    ``v_plus``, ``L_minus`` of ``v_minus``), or 0.0 when ``rate`` is None.
    ``flows`` names the flows in errors.

    The velocity fields are linear in x, v = ((P x) / D) E, and the
    potentials are Q = C - (hbar^2 / m) x^2 / Dq.  ``sample(x, t)`` on x of
    shape (k, n) builds the scalars P, D, E, C and Dq of every row by the
    expressions of the scalar closed forms, evaluates all rows in one set of
    array operations in the closed forms' order, and gives v, dv/dx and L,
    each of shape (k, n): every row is byte for byte the closed form, its
    slope is (v(1) - v(0)) + 0.0, and ``factor`` scales v and the slope.
    On a one-flow stack, ``velocity(x, t)`` gives ``factor`` times the
    field at points of any shape, the density ``rho`` included, with the
    bits of the v of ``sample``.
    """

    # per field, (P, D, E) of v = ((P x) / D) E from (g, s2 = sigma_sq(t), t),
    # and per rate, its field and (C, Dq) of Q = C - (hbar^2 / m) x^2 / Dq
    # from (h2m = hbar^2 / m, s2, kt = kappa t), by the closed forms' expressions
    FIELD_TERMS = {
        "v": lambda g, s2, t: (g.hbar * g.kappa * t, 2.0 * g.mass * s2, 1.0),
        "v_plus": lambda g, s2, t: (g.hbar, 2.0 * g.mass * s2, g.kappa * t - 1.0),
        "v_minus": lambda g, s2, t: (g.hbar, 2.0 * g.mass * s2, g.kappa * t + 1.0),
        "u": lambda g, s2, t: (-g.hbar, g.mass * s2, 1.0),
    }
    RATE_TERMS = {
        "L": ("v", lambda h2m, s2, kt: (h2m / (4.0 * s2), 8.0 * s2**2)),
        "L_plus": ("v_plus", lambda h2m, s2, kt: (h2m / (4.0 * s2) * (kt + 1.0), 4.0 * s2**2)),
        "L_minus": ("v_minus",
                    lambda h2m, s2, kt: (-h2m / (4.0 * s2) * (kt - 1.0), 4.0 * s2**2)),
        None: (None, lambda h2m, s2, kt: (0.0, 1.0)),
    }

    def __init__(self, g, specs, flows=None):
        self.g = g
        self.specs = tuple(specs)
        self.flows = tuple(flows) if flows is not None else (None,) * len(self.specs)
        for field, rate, _ in self.specs:
            if field not in self.FIELD_TERMS and field != "rho":
                raise PreconditionError(f"unknown field {field!r}")
            if rate is not None and self.RATE_TERMS.get(rate, (None,))[0] != field:
                raise PreconditionError(f"{rate!r} is not an action rate of {field!r}")
        self._linear = all(field != "rho" for field, _, _ in self.specs)
        self._factor = np.array([[factor] for _, _, factor in self.specs])
        self._no_rate = np.array([[rate is None] for _, rate, _ in self.specs])

    def velocity(self, x, t):
        """``factor`` times the field of a one-flow stack at the points x."""
        (field, _, factor), = self.specs
        if field == "rho":
            return factor * rho(self.g, x, t)
        P, D, E = self.FIELD_TERMS[field](self.g, self.g.sigma_sq(t), t)
        return factor * (((P * np.asarray(x, dtype=float)) / D) * E)

    def sample(self, x, t):
        if not self._linear:
            raise PreconditionError("the closed-form density has no sample; use velocity")
        g = self.g
        s2, kt, h2m = g.sigma_sq(t), g.kappa * t, g.hbar**2 / g.mass
        P, D, E, C, Dq = np.array([
            self.FIELD_TERMS[field](g, s2, t) + self.RATE_TERMS[rate][1](h2m, s2, kt)
            for field, rate, _ in self.specs]).T[:, :, None]
        v = ((P * x) / D) * E
        # (v(1) - v(0)) + 0.0: v(0) is a zero, so the difference is v(1)
        slope = (P / D) * E + 0.0
        L = 0.5 * g.mass * v**2 - (C - (h2m * x**2) / Dq)
        return (self._factor * v, np.broadcast_to(self._factor * slope, x.shape),
                np.where(self._no_rate, 0.0, L))

    def part(self, j):
        """The stack of flow j alone."""
        return GaussianStack(self.g, self.specs[j:j + 1], self.flows[j:j + 1])
