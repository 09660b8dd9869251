"""Exception hierarchy shared by all scarlab modules."""


class ScarlabError(Exception):
    """Base class for all scarlab errors."""


class InvalidInput(ScarlabError):
    """Base class for errors caused by the caller's input, not by a computation."""


class InvalidGraph(InvalidInput):
    """Graph edges or graph file fail validation."""


class ModulusOutOfRange(InvalidInput):
    """Elliptic modulus kappa outside [0, 1)."""


class PoleAtQuarterPeriod(ScarlabError):
    """sc(u, kappa) evaluated too close to an odd multiple of K."""


class OrderingViolated(ScarlabError):
    """XYZ couplings do not satisfy Jy >= Jx > Jz."""


class InvalidSpin(InvalidInput):
    """2S is not a non-negative integer."""


class SiteOutOfRange(ScarlabError):
    """Site index outside [0, N)."""


class DimensionMismatch(ScarlabError):
    """Operator/state built on different spin systems."""


class DimensionCap(ScarlabError):
    """A size out of reach: an allocation over spinops.MEMORY_BUDGET bytes."""


class NoRootFound(ScarlabError):
    """No frame-angle root satisfies the angle equations (they overflow)."""


class InconsistentPhases(ScarlabError):
    """Site-phase propagation met a contradiction (circuit rule violated)."""


class UnsupportedDims(InvalidInput):
    """Lattice generator cannot realize the requested dimensions."""


class IncommensurateQ(InvalidInput):
    """q is not commensurate with the chain/graph wrap."""


class NotTranslationInvariant(ScarlabError):
    """Momentum-sector reduction requires [H, T] = 0."""
