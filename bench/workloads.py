"""The four CLI workloads and the seeded inputs each one runs.

A seed picks one of ``N_VARIANTS`` input variants (seed modulo
``N_VARIANTS``), so every run is checked against a stored reference output.
Variant 0 is the documented argv, unchanged.  The other variants shift the
drive point and the grid endpoints by small seeded offsets and keep every
point count and every Fock truncation, so they do the same work as variant 0
to within a few percent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_VARIANTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple       # documented CLI argv of variant 0, without --out
    shifts: tuple     # (flags sharing one offset, base value, max |offset|)

    def cli_argv(self, seed: int) -> list[str]:
        """CLI arguments (without ``--out``) for the inputs of ``seed``."""
        argv = list(self.argv)
        variant = seed % N_VARIANTS
        if variant:
            rng = random.Random(f"{self.name}/{variant}")
            for flags, base, amp in self.shifts:
                value = f"{base + rng.uniform(-amp, amp):.4f}"
                for flag in flags:
                    if flag in argv:
                        argv[argv.index(flag) + 1] = value
                    else:
                        argv += [flag, value]
        return argv + ["--jobs", "1"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "spectrum_instrument",
        ("spectrum", "--rabi-l-ghz", "3.5299", "--rabi-s-ghz", "1.75",
         "--diffusion-mhz", "678", "--etalon-mhz", "525", "--window-ghz", "9",
         "--points", "501"),
        ((("--rabi-l-ghz",), 3.5299, 0.02), (("--delta-ghz",), 0.0, 0.02),
         (("--window-ghz",), 9.0, 0.02))),
    Workload(
        "cooling_map",
        ("cooling-map", "--delta-points", "21", "--rabi-points", "11"),
        ((("--rabi-s-ghz",), 1.75, 0.02),
         (("--delta-start",), -5.0, 0.05), (("--delta-stop",), 5.0, 0.05),
         (("--rabi-start",), 0.5, 0.02), (("--rabi-stop",), 5.5, 0.05))),
    Workload(
        "lindblad_cold",
        ("lindblad-map", "--temp-k", "0.1", "--delta-points", "5",
         "--rabi-points", "5"),
        ((("--delta-start",), -5.0, 0.05), (("--delta-stop",), 5.0, 0.05),
         (("--rabi-start",), 0.25, 0.02), (("--rabi-stop",), 5.25, 0.05))),
    Workload(
        "lindblad_warm",
        ("lindblad-map", "--temp-k", "1", "--delta-start", "-2",
         "--delta-stop", "-2", "--delta-points", "1", "--rabi-start", "2",
         "--rabi-stop", "2", "--rabi-points", "1", "--diffusion-mhz", "0"),
        ((("--delta-start", "--delta-stop"), -2.0, 0.02),
         (("--rabi-start", "--rabi-stop"), 2.0, 0.01))),
)}
