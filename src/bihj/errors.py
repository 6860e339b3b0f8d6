"""Exception types raised by the simulation modules."""


class BihjError(Exception):
    """Base class for all package errors; ``stage`` names the run stage that
    raised it, when there was one."""

    stage = None


class ConfigurationError(BihjError):
    """Invalid scenario configuration; message lists every violated constraint."""


class PreconditionError(BihjError):
    """An operation was called with arguments violating its contract."""


class UnsupportedAnalyticError(BihjError):
    """No closed form is available for the requested initial state."""


class BoundaryBreachError(BihjError):
    """Density reached the grid boundary during propagation."""

    def __init__(self, time, ratio):
        self.time = time
        self.ratio = ratio
        super().__init__(
            f"boundary density ratio {ratio:.3e} exceeded tolerance at t={time:.6g}; "
            "enlarge the spatial domain"
        )


class InstabilityError(BihjError):
    """Non-finite values appeared during propagation."""


class DegenerateStateError(BihjError):
    """Every grid point is below the density threshold."""


class UnwrapError(BihjError):
    """Phase jump between adjacent valid points is too large to unwrap."""


class DomainError(BihjError):
    """A sampled field was queried outside its valid region; ``index`` is
    the flat index of the point x in the query, when the sampler knows it."""

    def __init__(self, x, t, message=None, index=None):
        self.x = x
        self.t = t
        self.index = index
        super().__init__(message or f"query at (x={x:.6g}, t={t:.6g}) is outside the valid region")


class SampledSpanError(DomainError):
    """A sampled field series was queried at a time outside the span of its
    snapshots; no point is at fault, so ``x`` and ``index`` are None."""

    def __init__(self, t, lo, hi):
        super().__init__(None, t, f"t={t:.6g} is outside the sampled span "
                                  f"[{lo:.6g}, {hi:.6g}] of the field series")


class TrajectoryExitError(BihjError):
    """A trajectory left the valid region of its driving field; ``flow``
    names its congruence when the march has names."""

    def __init__(self, label, time, flow=None):
        self.label = label
        self.time = time
        self.flow = flow
        super().__init__(f"{flow + ' ' if flow else ''}trajectory with label {label:.6g} "
                         f"left the valid region at t={time:.6g}")


class FocalPointError(BihjError):
    """A non-positive expansion factor was detected (focal point)."""


class CongruenceCrossingError(BihjError):
    """Trajectory positions are no longer monotone in the label (paths crossed)."""


class HullOverlapError(BihjError):
    """The two congruences no longer overlap enough to evaluate coupling terms."""


class ExtrapolationError(BihjError):
    """A query point lies outside the congruence hull."""


class SpanExhaustionError(BihjError):
    """A label-generator curve left the label span of the host congruence."""
