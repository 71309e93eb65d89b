"""Physical parameters, Gaussian states, drive field models, and time grids.

Everything here is immutable value data; the functions are pure, so any
number of workers may share these objects.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

FIELD_KINDS = ("zero", "monochromatic", "mode_sum")


@dataclass(frozen=True)
class OscillatorParams:
    """Constants of the charged oscillator: mass, frequency, charge, hbar."""

    mass: float = 1.0
    omega0: float = 1.0
    charge: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "omega0", "charge", "hbar"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega0


def ground_state_width(params: OscillatorParams) -> float:
    """Gaussian width sigma = sqrt(hbar / (2 m omega0)).

    Its square is the position variance of the undriven ground state.
    """
    return math.sqrt(params.hbar / (2.0 * params.mass * params.omega0))


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian initial state: means q = <x>, p = <p>, variances var_x,
    var_p, and cov_xp = <(xp + px)/2> - <x><p>."""

    q: float
    p: float
    var_x: float
    var_p: float
    cov_xp: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("a Gaussian state's means and covariance must be finite")

    @classmethod
    def coherent(cls, params: OscillatorParams, q0: float, v0: float = 0.0) -> "GaussianState":
        """The coherent state at (q0, m v0), with the vacuum's covariance."""
        m, w, hb = params.mass, params.omega0, params.hbar
        return cls(q0, m * v0, hb / (2.0 * m * w), hb * m * w / 2.0, 0.0)


@dataclass(frozen=True)
class FieldModel:
    """Classical drive E(t) plus a phenomenological damping rate.

    Variants: ``zero`` (no drive), ``monochromatic`` (single cosine),
    ``mode_sum`` (finite sum of cosine modes; missing phases are drawn
    once from a seeded generator, so equal seeds give bit-identical
    fields).  ``gamma`` is the damping rate of the classical equation of
    motion; 0 means undamped.
    """

    kind: str = "zero"
    gamma: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    amplitudes: tuple = ()
    omegas: tuple = ()
    phases: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"field kind must be one of {FIELD_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and >= 0")
        if self.kind == "monochromatic":
            for name in ("amplitude", "omega", "phase"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite")
        if self.kind == "mode_sum":
            if len(self.amplitudes) != len(self.omegas) or len(self.amplitudes) != len(self.phases):
                raise ValueError("mode_sum amplitudes, omegas, phases must have equal length")
            for seq in (self.amplitudes, self.omegas, self.phases):
                if not all(math.isfinite(v) for v in seq):
                    raise ValueError("mode_sum entries must be finite")

    @classmethod
    def zero(cls, gamma: float = 0.0) -> "FieldModel":
        return cls(kind="zero", gamma=gamma)

    @classmethod
    def monochromatic(cls, amplitude: float, omega: float, phase: float = 0.0,
                      gamma: float = 0.0) -> "FieldModel":
        return cls(kind="monochromatic", gamma=gamma, amplitude=float(amplitude),
                   omega=float(omega), phase=float(phase))

    @classmethod
    def mode_sum(cls, amplitudes, omegas, phases=None, seed: int = 0,
                 gamma: float = 0.0) -> "FieldModel":
        """Build a mode-sum drive; ``phases=None`` draws them from ``seed``."""
        amplitudes = tuple(float(a) for a in amplitudes)
        omegas = tuple(float(w) for w in omegas)
        if phases is None:
            rng = np.random.default_rng(seed)
            phases = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, len(amplitudes)))
        else:
            phases = tuple(float(p) for p in phases)
        return cls(kind="mode_sum", gamma=gamma, amplitudes=amplitudes,
                   omegas=omegas, phases=phases, seed=int(seed))

    def max_angular_frequency(self) -> float:
        """Fastest angular frequency in the drive (0 for a zero field)."""
        if self.kind == "monochromatic":
            return abs(self.omega)
        if self.kind == "mode_sum" and self.omegas:
            return max(abs(w) for w in self.omegas)
        return 0.0


def evaluate_field(model: FieldModel, t):
    """Evaluate E(t) for a scalar or array of times.  Total and pure."""
    t_arr = np.asarray(t, dtype=float)
    if model.kind == "zero":
        out = np.zeros_like(t_arr)
    elif model.kind == "monochromatic":
        out = model.amplitude * np.cos(model.omega * t_arr + model.phase)
    else:
        out = np.zeros_like(t_arr)
        for a, w, p in zip(model.amplitudes, model.omegas, model.phases):
            out = out + a * np.cos(w * t_arr + p)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps steps on [t0, t1]."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError("t0 and t1 must be finite, and so must t1 - t0")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """The n_steps + 1 sample times, endpoints included."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    @property
    def half_times(self) -> np.ndarray:
        """Sample times of the half-step lattice (2 n_steps + 1 points)."""
        return self.t0 + 0.5 * self.dt * np.arange(2 * self.n_steps + 1)

    def refined(self, factor: int) -> "TimeGrid":
        """Same interval with ``factor`` times as many steps."""
        return TimeGrid(self.t0, self.t1, self.n_steps * int(factor))
