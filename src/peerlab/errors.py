"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers (and the
CLI) can map failures to structured error records.
"""


class PeerLabError(Exception):
    """Base class for all peerlab errors."""


class EmptyAlphabet(PeerLabError, ValueError):
    """A distribution or joint was built over an empty alphabet."""


class NegativeWeight(PeerLabError, ValueError):
    """A probability weight or table entry is negative."""


class ZeroMass(PeerLabError, ValueError):
    """Weights sum to zero and cannot be normalized."""


class WrongRank(PeerLabError, ValueError):
    """A pairwise operation received a conditional-mode joint, or vice versa."""


class DimensionMismatch(PeerLabError, ValueError):
    """Alphabet sizes of the operands do not line up."""


class ZeroConditioningEvent(PeerLabError, ValueError):
    """Conditioning on an outcome of probability zero."""


class ModeMismatch(PeerLabError, ValueError):
    """A prior (or joint) of the wrong mode was supplied."""


class UnsupportedPriorMode(PeerLabError, ValueError):
    """The prior mode cannot support the requested operation (e.g. sampling)."""


class MissingField(PeerLabError, ValueError):
    """A scenario or prior document lacks a required key."""


class NoOverlap(PeerLabError, ValueError):
    """Two agents share no answered question."""


class NonBinaryAlphabet(PeerLabError, ValueError):
    """A binary-only mechanism received non-binary reports."""


class LogOfZero(PeerLabError, ArithmeticError):
    """A logarithmic score was taken of a zero probability (inadmissible report)."""


class ZeroFrequency(PeerLabError, ArithmeticError):
    """A reported signal has empirical frequency zero where a log is required."""


class InadmissibleSupport(PeerLabError, ArithmeticError):
    """A conditional assigns mass where the reference distribution has none."""
