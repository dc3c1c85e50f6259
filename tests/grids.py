"""Frequency grids of the spectrum tests."""

import numpy as np

from sawmollow.model import Frequency


def uniform_grid(half_ghz: float = 12.0, n: int = 2001) -> np.ndarray:
    """n offsets from -half_ghz to +half_ghz GHz in rad/s, by the arithmetic
    of the CLI's --window-ghz/--points grid."""
    return np.linspace(Frequency.from_ghz(-half_ghz).rad,
                       Frequency.from_ghz(half_ghz).rad, n)
