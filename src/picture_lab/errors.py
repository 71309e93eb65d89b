"""Exception types shared by all engines."""


class PictureLabError(Exception):
    """Base class for every error raised by this package.

    ``row`` is the index of the state a guard of a batched ``propagate``
    or ``fock_state_moments`` tripped for, and None for any other error.
    ``scenario`` names the scenario it arose in, once known, and then
    heads the message.
    """

    row: int | None = None
    scenario: str | None = None

    def __str__(self):
        return (f"[scenario {self.scenario}] " if self.scenario else "") + super().__str__()


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
