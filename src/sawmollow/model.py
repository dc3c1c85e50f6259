"""Shared domain types, physical constants, and unit conventions.

All internal computation uses angular frequency (rad/s).  All I/O and every
quoted number in docstrings uses the "/2pi" cycles convention in GHz, which is
how the lab quotes every knob.  :class:`Frequency` is the boundary between the
two conventions; everything downstream unwraps to plain rad/s floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
GHZ = TWO_PI * 1e9     # rad/s per GHz

# CODATA 2018 exact SI values, recorded in output metadata for reproducibility.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23       # J/K

# Device calibration of the reference sample; used as CLI defaults.
DEVICE_GAMMA_GHZ = 0.134        # spontaneous emission rate / 2pi
DEVICE_OMEGA_S_GHZ = 3.5299     # acoustic cavity resonance / 2pi
DEVICE_Q_FACTOR = 12562.0       # acoustic cavity quality factor
DEVICE_G0_GHZ = 1.2e-3          # single-phonon coupling / 2pi
DEVICE_DIFFUSION_GHZ = 0.678    # inhomogeneous linewidth FWHM / 2pi
DEVICE_ETALON_FSR_GHZ = 20.0    # etalon free spectral range / 2pi


class DomainError(ValueError):
    """An input violates a physical-domain precondition."""


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Frequency:
    """An angular frequency in rad/s that remembers its cycles form.

    Constructing from cycles stores the cycles value verbatim and derives
    rad = 2*pi*cycles with a single multiplication, so cycle-convention
    round trips are exact.  Equality and hashing use ``rad`` only.
    """

    rad: float
    hz: float = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        # Python floats, so that no numpy scalar reaches the solver loops.
        rad = _check_finite("frequency (rad/s)", self.rad)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "hz", rad / TWO_PI if self.hz is None
                           else _check_finite("frequency (Hz)", self.hz))

    @classmethod
    def from_hz(cls, hz: float) -> "Frequency":
        hz = float(hz)
        return cls(TWO_PI * hz, hz)

    @classmethod
    def from_ghz(cls, ghz: float) -> "Frequency":
        return cls.from_hz(float(ghz) * 1e9)

    @property
    def ghz(self) -> float:
        return self.hz / 1e9

    def __eq__(self, other) -> bool:
        if isinstance(other, Frequency):
            return self.rad == other.rad
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rad)

    def __repr__(self) -> str:
        return f"Frequency({self.ghz:g} GHz * 2pi)"


def _as_rad(value) -> float:
    """Accept a Frequency or a bare rad/s float; return rad/s."""
    if isinstance(value, Frequency):
        return value.rad
    return float(value)


@dataclass(frozen=True)
class EmitterParams:
    """Two-level-system constants: the spontaneous emission rate gamma
    (must be > 0)."""

    gamma: Frequency

    def __post_init__(self):
        if self.gamma.rad <= 0:
            raise DomainError("gamma must be positive")

    @classmethod
    def from_ghz(cls, gamma: float) -> "EmitterParams":
        return cls(Frequency.from_ghz(gamma))


@dataclass(frozen=True)
class DriveConfig:
    """Drive condition: optical Rabi frequency, detuning, and acoustic drive.

    delta is signed, delta = omega_L - omega0 (laser above transition is
    positive); only detunings enter the physics.
    """

    delta: Frequency
    rabi_L: Frequency
    rabi_S: Frequency
    omega_S: Frequency

    def __post_init__(self):
        if self.rabi_L.rad < 0:
            raise DomainError("rabi_L must be non-negative")
        if self.rabi_S.rad < 0:
            raise DomainError("rabi_S must be non-negative")
        if self.omega_S.rad <= 0:
            raise DomainError("omega_S must be positive")

    @classmethod
    def from_ghz(cls, delta: float, rabi_L: float, rabi_S: float,
                 omega_S: float) -> "DriveConfig":
        return cls(Frequency.from_ghz(delta), Frequency.from_ghz(rabi_L),
                   Frequency.from_ghz(rabi_S), Frequency.from_ghz(omega_S))

    @property
    def rabi_R(self) -> Frequency:
        """Generalized Rabi frequency sqrt(rabi_L^2 + delta^2)."""
        return Frequency(math.hypot(self.rabi_L.rad, self.delta.rad))

    def replace_delta(self, delta_rad: float) -> "DriveConfig":
        return DriveConfig(Frequency(float(delta_rad)), self.rabi_L,
                           self.rabi_S, self.omega_S)


@dataclass(frozen=True)
class AcousticCavity:
    """Acoustic cavity mode: resonance, quality factor, single-phonon coupling."""

    omega_S: Frequency
    quality: float
    g0: Frequency

    def __post_init__(self):
        if self.omega_S.rad <= 0:
            raise DomainError("omega_S must be positive")
        if not self.quality > 0:
            raise DomainError("quality factor must be positive")

    @property
    def dissipation(self) -> Frequency:
        """Cavity dissipation rate omega_S / Q."""
        return Frequency(self.omega_S.rad / self.quality)


class Spectrum:
    """Emission spectrum on a frequency grid relative to the laser.

    freqs            : strictly increasing offsets from omega_L, rad/s
    intensity        : spectral density per rad/s, clipped at -1e-9 * max
    drive            : the drive condition that produced it
    normalization    : numerically integrated intensity over the grid
    coherent_freqs   : offsets of coherently scattered delta lines, rad/s
    coherent_weights : integrated weight of each delta line
    meta             : provenance (instrument steps applied, rho_ee, ...)
    """

    CLIP_REL = 1e-9

    def __init__(self, freqs, intensity, drive: DriveConfig,
                 coherent_freqs=None, coherent_weights=None, meta=None):
        freqs = np.asarray(freqs, dtype=float)
        intensity = np.asarray(intensity, dtype=float)
        if freqs.ndim != 1 or freqs.shape != intensity.shape:
            raise ValueError("freqs and intensity must be 1-d and equal length")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(intensity))):
            raise ValueError("freqs and intensity must be finite")
        if freqs.size >= 2 and not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        peak = float(np.max(intensity)) if intensity.size else 0.0
        floor = -self.CLIP_REL * max(peak, 0.0)
        if np.any(intensity < floor):
            raise ValueError("intensity has negative values beyond tolerance; "
                             "clip before constructing Spectrum")
        self.freqs = freqs
        self.intensity = intensity
        self.drive = drive
        self.coherent_freqs = (np.zeros(0) if coherent_freqs is None
                               else np.asarray(coherent_freqs, dtype=float))
        self.coherent_weights = (np.zeros(0) if coherent_weights is None
                                 else np.asarray(coherent_weights, dtype=float))
        self.meta = dict(meta) if meta else {}
        self.normalization = float(np.trapezoid(intensity, freqs)) if freqs.size > 1 else 0.0

    @property
    def freqs_ghz(self) -> np.ndarray:
        return self.freqs / GHZ

    @property
    def coherent_total(self) -> float:
        return float(np.sum(self.coherent_weights))

    def integrate(self, lo_rad: float, hi_rad: float,
                  include_coherent: bool = False) -> float:
        """Integrated intensity over [lo, hi] (rad/s offsets from the laser)."""
        if hi_rad <= lo_rad:
            raise ValueError("empty integration window")
        sel = (self.freqs >= lo_rad) & (self.freqs <= hi_rad)
        if sel.sum() < 2:
            return 0.0
        total = float(np.trapezoid(self.intensity[sel], self.freqs[sel]))
        if include_coherent:
            csel = (self.coherent_freqs >= lo_rad) & (self.coherent_freqs <= hi_rad)
            total += float(np.sum(self.coherent_weights[csel]))
        return total


def thermal_occupation(omega_S, temperature: float) -> float:
    """Mean thermal phonon number of a mode at the given temperature.

    Bose-Einstein occupation 1/(exp(hbar*omega/(kB*T)) - 1).  For the
    3.5299 GHz acoustic mode this gives 5.4 at 1 K and 0.2 at 0.1 K.
    """
    w = _as_rad(omega_S)
    if w <= 0:
        raise DomainError("omega_S must be positive")
    if not temperature > 0:
        raise DomainError("temperature must be positive")
    x = HBAR * w / (KB * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        raise DomainError("temperature too low: thermal occupation "
                          "underflows") from None

