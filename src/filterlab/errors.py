"""Exception hierarchy shared by all filterlab modules."""


class FilterlabError(Exception):
    """Base class for all filterlab errors."""


class NegativeDensity(FilterlabError):
    """A density value, weight or mass that must be nonnegative is negative."""


class NonStochastic(FilterlabError):
    """A kernel row does not integrate to one within tolerance."""


class NonStochasticEmission(NonStochastic):
    """An emission density row does not integrate to one against tau."""


class UnknownObservation(FilterlabError):
    """Observation id not present in the observation space."""


class SpaceMismatch(FilterlabError):
    """Two vectors or measures live over different spaces."""


class StateSpaceMismatch(SpaceMismatch):
    """Two models do not share the same state space."""


class MassMismatch(FilterlabError):
    """Two measures that must carry equal total mass do not."""


class NegativeTarget(FilterlabError):
    """A target density that must be nonnegative has negative entries."""


class BarycenterMismatch(FilterlabError):
    """A measure's barycenter differs from the required one beyond tolerance."""


class SolverFailure(FilterlabError):
    """The transport solver failed or its optimality certificate did not close."""


class BudgetExceeded(FilterlabError):
    """An enumeration would exceed the configured budget."""


class DegenerateProduct(FilterlabError):
    """A product of stepping kernels vanished identically."""


class NonpositiveEntry(FilterlabError):
    """A kernel entry inside the declared support rectangle is not positive."""


class AmbiguousSupport(FilterlabError):
    """Kernel entries fall strictly between zero and the support tolerance."""


class KappaBelowOne(FilterlabError):
    """A cross-ratio coefficient below one was supplied."""


class HypothesisViolated(FilterlabError):
    """A hypothesis of the contraction estimate fails; the message says which."""


class DivisionByZeroMass(FilterlabError):
    """An oscillation ratio would divide by a vanishing integral."""


class CertificateInvalid(FilterlabError):
    """A supplied certificate does not validate against the model."""


class BadPartition(FilterlabError):
    """The supplied cell family is not a partition of the state space."""
