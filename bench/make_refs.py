"""Regenerate the stored reference outputs in ``bench/refs``.

    python3 bench/make_refs.py [WORKLOAD ...]

Runs every input variant of each workload once, traced, writes its CSV
output gzipped to ``bench/refs/<workload>.<variant>.csv.gz`` and prints the
work counts of each variant, so that a reviewer can see that the variants do
about the same work.  References are taken from the code under test only
when its numerics are trusted; a perf change must pass against the
references of its parent, not regenerate them.
"""

from __future__ import annotations

import gzip
import sys
import time

from reference import ref_path
from run import OUT, TIME_LIMIT_S, run_child
from workloads import N_VARIANTS, WORKLOADS

WORK_COUNTS = ("bloch.floquet_steady_state.blocks",
               "spectrum.transform_correlator.kernel_terms",
               "cooling.splu.fill_nnz", "cooling.splu.fill_bytes_max",
               "cooling.lindblad_steady_state.m_max_used")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name in sys.argv[1:] or WORKLOADS:
        for variant in range(N_VARIANTS):
            argv = WORKLOADS[name].cli_argv(variant)
            out_path = OUT / f"{name}.{variant}.csv"
            deadline = time.perf_counter() + TIME_LIMIT_S
            result = run_child(argv, out_path, deadline,
                               OUT / f"{name}.{variant}.spans.json")
            if result is None or result["exit_code"] != 0:
                print(f"{name} variant {variant} failed", file=sys.stderr)
                return 1
            with gzip.GzipFile(ref_path(name, variant), "wb", mtime=0) as fh:
                fh.write(out_path.read_bytes())
            counts = ", ".join(f"{k} = {result['layers'][k]:.0f}"
                               for k in WORK_COUNTS if result["layers"][k])
            print(f"{name} variant {variant}: wall {result['wall_s']:.2f} s, "
                  f"peak {result['peak_rss_mb']:.0f} MB, {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
