"""Exception types shared by all engines."""


class PictureLabError(Exception):
    """Base class for every error raised by this package.

    ``row`` is the index of the state a guard of a batched ``propagate``
    tripped for, and None for any other error.
    """

    row: int | None = None


class StepTooCoarse(PictureLabError):
    """Time step too large for the requested integration."""


class NonFiniteState(PictureLabError):
    """An integration produced inf or nan samples."""


class NotDamped(PictureLabError):
    """A decay certificate was requested for an undamped trajectory."""


class GridTooNarrow(PictureLabError):
    """Position grid cannot hold the state at the required accuracy."""


class NotNormalized(PictureLabError):
    """Wavefunction norm deviates too far from one."""


class NotDisplacedGaussian(PictureLabError):
    """State is not a displaced ground state for the claimed displacement."""


class TruncationError(PictureLabError):
    """Fock-space truncation is too small for the requested state."""


class ConfigInvalid(PictureLabError):
    """Run configuration failed validation; message names the offending key."""
