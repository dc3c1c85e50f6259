"""Resonance fluorescence of a two-level emitter under combined strong
optical driving and GHz acoustic modulation: Floquet-Bloch dynamics,
emission spectra via the quantum regression theorem, doubly dressed-state
transition structure, phonon cooling rates, and calibration fits."""

from .model import (
    AcousticCavity,
    DriveConfig,
    EmitterParams,
    Frequency,
    Spectrum,
    thermal_occupation,
)
from .bloch import (
    BlochGenerator,
    BlochState,
    FloquetSolution,
    floquet_steady_state,
    monodromy,
    propagate,
)

__version__ = "0.1.0"

__all__ = [
    "AcousticCavity",
    "BlochGenerator",
    "BlochState",
    "DriveConfig",
    "EmitterParams",
    "FloquetSolution",
    "Frequency",
    "Spectrum",
    "floquet_steady_state",
    "monodromy",
    "propagate",
    "thermal_occupation",
    "__version__",
]
