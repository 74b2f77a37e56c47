"""Exception types shared across the package."""


class ConsensimError(Exception):
    """Base class for every error this package raises on purpose."""


class TopologyError(ConsensimError, ValueError):
    """Malformed interconnection topology."""


class IndexOutOfRange(TopologyError):
    """Agent index outside 1..n_agents."""


class NonPositiveWeight(TopologyError):
    """Edge or leader-link weight that is not strictly positive and finite."""


class DuplicateEdge(TopologyError):
    """Same unordered agent pair (or leader link target) listed twice."""


class SelfLoop(TopologyError):
    """Edge from an agent to itself."""


class ValidationFailed(ConsensimError, ValueError):
    """Scenario failed a blocking validation rule; the message names the rule."""


class HypothesisViolated(ConsensimError, ValueError):
    """An analysis shortcut was invoked outside the hypotheses that justify it."""


class InvalidBounds(ConsensimError, ValueError):
    """Gain or sector bounds that are non-positive or inverted."""


class NonFiniteState(ConsensimError, RuntimeError):
    """Integration produced NaN or infinity.

    ``last_good_time`` is the time of the last finite state, for diagnostics.
    """

    def __init__(self, message: str, last_good_time: float | None = None):
        super().__init__(message)
        self.last_good_time = last_good_time


class ParseError(ConsensimError, ValueError):
    """Scenario file is structurally malformed (bad JSON, wrong types, unknown keys)."""
