"""Trajectory laboratory for 1D Schrodinger dynamics.

The wave equation is treated in three equivalent pictures: a grid reference
solver, Eulerian fields (density, phase action, and the coupled action pair
S_plus / S_minus with their velocities), and Lagrangian trajectory ensembles
whose accumulated actions rebuild the wavefunction without further reference
to it.  The compose module turns integral curves of a sum of two fields into
label bookkeeping over the curves of one of them, which is how the mean-flow
paths and the pair trajectories generate each other.
"""

__version__ = "0.1.0"

from .autonomous import BiCongruence, cross_map, propagate_autonomous  # noqa: F401
from .compose import (  # noqa: F401
    CompositionSetup,
    compose_trajectories,
    conservation_check,
    mixture_check,
)
from .congruence import (  # noqa: F401
    Congruence,
    FieldStack,
    LabelSet,
    integrate_congruence,
    invert_labels,
    trajectory_density,
)
from .errors import BihjError  # noqa: F401
from .fields import (  # noqa: F401
    FieldSeries,
    FieldSnapshot,
    derive_fields,
    derive_series,
    fokker_planck_residuals,
    hj_residuals,
    stationary_points,
    time_reversal_check,
)
from .gaussian import GaussianParams, GaussianStack  # noqa: F401
from .reconstruct import (  # noqa: F401
    bihj_wavefunction_at,
    polar_wavefunction_at,
    probability_from_actions,
)
from .reference import (  # noqa: F401
    InitialStateSpec,
    PhysicalParams,
    Potential,
    SpatialGrid,
    WaveSeries,
    WaveSnapshot,
    analytic_series,
    build_initial_state,
    evolve_crank_nicolson,
)
