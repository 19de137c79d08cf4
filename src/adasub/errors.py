"""Exception types shared across the package."""


class AdasubError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(AdasubError):
    """An object violates one of its structural invariants."""


class ParseError(AdasubError):
    """An instance file's document is malformed: bad syntax, a missing field,
    or a field of the wrong JSON kind.  A bad value inside a list (a state, a
    cover element, a probability) raises its constructor's ValidationError."""


class ZeroProbabilityEvidence(AdasubError):
    """Conditioning on a partial realization that has zero prior probability."""


class InstanceTooLarge(AdasubError):
    """An exhaustive computation was asked for on an instance above its hard caps."""


class PolicyViolation(AdasubError):
    """A policy returned an infeasible or already-selected item."""
