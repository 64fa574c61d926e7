"""Exception types shared across the package."""


class FlowLabError(Exception):
    """Base class for all flowlab errors."""


class DomainError(FlowLabError):
    """A point or region lies outside the declared domain of a field."""


class EscapeError(FlowLabError):
    """An orbit left the field domain during integration; in a stacked
    solve, `row` names the member that left."""

    def __init__(self, message, exit_time=None, row=None):
        super().__init__(message)
        self.exit_time = exit_time
        self.row = row


class StiffnessError(FlowLabError):
    """The adaptive integrator underflowed its step size."""


class SingularityError(FlowLabError):
    """A regular point was required but the flow speed is below tolerance."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class BoxBoundsError(FlowLabError):
    """Chart arguments fall outside the tangent box."""


class NotInBoxError(FlowLabError):
    """A point has no preimage inside the chart box."""


class RadiusError(FlowLabError):
    """A normal vector exceeds the admissible section radius."""


class NoPathError(FlowLabError):
    """Every monotone lattice path is blocked by singular samples."""


class HypothesisError(FlowLabError):
    """The measured shadowing level exceeds the admissible one."""

    def __init__(self, message, measured_sup=None):
        super().__init__(message)
        self.measured_sup = measured_sup


class CrossingError(FlowLabError):
    """Building the section crossing sequence failed at one index."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class NoDominationError(FlowLabError):
    """No spectral gap was detected along the orbit."""


class FlowDirectionError(FlowLabError):
    """The flow direction is not contained in the prescribed subbundle."""


class DegenerateProjectionError(FlowLabError):
    """A subspace projection collapsed in rank."""


class CrossingDetectionError(FlowLabError):
    """A neighborhood boundary crossing could not be bracketed (tangential)."""


class RebalanceInfeasibleError(FlowLabError):
    """The requested contraction level is too strong for the block data."""


class NoCertificateError(FlowLabError):
    """The contraction bound is >= 1, so no fixed-point certificate exists."""


class DivergenceError(FlowLabError):
    """The fixed-point iteration grew over several consecutive steps."""


class HorizonError(FlowLabError):
    """A time horizon violates the preconditions of an estimate."""


class WitnessError(FlowLabError):
    """A witness file is missing, unreadable or lacks a key of its type."""


class ScenarioError(FlowLabError):
    """A scenario file failed to parse or validate."""

    def __init__(self, message, line=None, column=None):
        loc = "" if line is None else f" (line {line}" + ("" if column is None else f", col {column}") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
