"""Exception types shared across fisherlab."""


class FisherlabError(Exception):
    """Base class for every error raised by this package."""


class NonHermitianError(FisherlabError):
    """A matrix required to be Hermitian is not, beyond rounding tolerance."""


class DimMismatchError(FisherlabError):
    """Operands live in Hilbert spaces of incompatible dimension."""


class StationaryStateError(FisherlabError):
    """The state does not move with the parameter (QFI numerically zero),
    so the tangent direction and SLD eigenbasis are undefined."""


class DegenerateGeneratorError(FisherlabError):
    """The generator has a constant spectrum (zero seminorm), so
    seminorm-normalised quantities are undefined."""


class InvalidQError(FisherlabError):
    """Measurement mixing parameter q lies outside [0, 1]."""


class FlatLikelihoodError(FisherlabError):
    """The log-likelihood is constant over the search grid; the
    measurement carries no usable information about the parameter."""


class ConfigError(FisherlabError):
    """An experiment configuration file is malformed."""
