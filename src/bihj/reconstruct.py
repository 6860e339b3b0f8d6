"""Rebuild the wavefunction from trajectory data alone.

The pair picture multiplies two complex exponentials of the accumulated
actions read off at the labels passing through the query point; the polar
picture combines the carried density rho0/J with a single action phase.
No wavefunction enters: only congruence data.
"""
import numpy as np

from .errors import PreconditionError


def bihj_wavefunction_at(bi, x, t):
    """Amplitude from the two accumulated actions at the query point."""
    hbar = bi.params.hbar
    _, chi_p = bi.plus.at(x, t, "chi")
    _, chi_m = bi.minus.at(x, t, "chi")
    out = (np.exp((1.0 + 1j) * chi_p / (2.0 * hbar))
           * np.exp((-1.0 + 1j) * chi_m / (2.0 * hbar)) * np.sqrt(bi.rho_ref))
    return out if np.ndim(x) else complex(out[0])


def probability_from_actions(bi, x, t):
    """Density from the difference of the accumulated actions."""
    hbar = bi.params.hbar
    _, chi_p = bi.plus.at(x, t, "chi")
    _, chi_m = bi.minus.at(x, t, "chi")
    out = bi.rho_ref * np.exp((chi_p - chi_m) / hbar)
    return out if np.ndim(x) else float(out[0])


def polar_wavefunction_at(congruence, rho0, x, t, params):
    """Amplitude from the carried density rho0/J and the single action phase.

    The congruence must have been integrated along the mean-flow velocity
    with the polar Lagrangian rate and initial actions equal to the t=0
    phase action.
    """
    q0, J, chi = congruence.at(x, t, "J", "chi")
    if np.any(J <= 0):
        raise PreconditionError("need a positive expansion factor")
    rho = np.asarray(rho0(q0), dtype=float)
    if np.any(rho < 0):
        i = int(np.argmin(rho))
        raise PreconditionError(f"the initial density is {rho[i]:.3g} < 0 at label "
                                f"{q0[i]:.6g}")
    out = np.sqrt(rho / J) * np.exp(1j * chi / params.hbar)
    return out if np.ndim(x) else complex(out[0])


def reconstruction_probe(bi, dbb, rho0, reference_psi, xs, t):
    """Tabulate the two reconstructions against a reference at probe points.

    ``reference_psi`` maps (x, t) to complex amplitudes.  Returns a dict of
    arrays ready for serialisation plus the two sup errors.
    """
    xs = np.asarray(xs, dtype=float)
    psi_pair = np.atleast_1d(bihj_wavefunction_at(bi, xs, t))
    psi_polar = np.atleast_1d(polar_wavefunction_at(dbb, rho0, xs, t, bi.params))
    psi_ref = np.asarray(reference_psi(xs, t), dtype=complex)
    err_pair = np.abs(psi_pair - psi_ref)
    err_polar = np.abs(psi_polar - psi_ref)
    return {
        "x": xs,
        "t": np.full_like(xs, t),
        "re_psi_bihj": psi_pair.real,
        "im_psi_bihj": psi_pair.imag,
        "re_psi_polar": psi_polar.real,
        "im_psi_polar": psi_polar.imag,
        "re_psi_ref": psi_ref.real,
        "im_psi_ref": psi_ref.imag,
        "abs_err_bihj": err_pair,
        "abs_err_polar": err_polar,
    }
