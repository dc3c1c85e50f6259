"""Benchmark of the sawmollow CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``spectrum_instrument``, ``cooling_map``, ``lindblad_cold``,
``lindblad_warm``, or ``all`` to run the four in turn.  Each iteration runs
the CLI in a fresh interpreter (``bench/child.py``) and checks its output
against the stored reference of the seed's input variant.  Iterations repeat
while the next one is predicted to end within S seconds (at least one runs).
Every end-to-end metric is the median over the iterations of the run;
``setup_s`` is each iteration's time from starting its interpreter to
having imported ``sawmollow.cli``.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` each iteration is an untraced run followed by a traced run of
the same inputs, whose outputs must be byte-identical, and the result holds
the per-layer metrics.  The last line of standard output is the result as
one JSON object; the lines before it give the environment, each metric's
sample count and ``fail_frac``.  The full record, with every sample, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import compare, read_ref
from tracer import PER_LAYER_METRICS
from workloads import N_VARIANTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TIME_LIMIT_S = 170.0   # every run must end well within 180 s


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_child(argv, out_path, deadline, spans_path=None) -> dict | None:
    """Run one CLI iteration in a fresh interpreter; None if it crashed."""
    cmd = [sys.executable, str(ROOT / "bench" / "child.py")]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--", *argv, "--out", str(out_path)]
    started = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"iteration timed out: {' '.join(argv)}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        return None
    sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("imported_at") - started
    return result


def checked(result, out_path, reference) -> bool:
    """True when the run exited 0 and its output matches the reference."""
    if result is None or result["exit_code"] != 0:
        return False
    problems = compare(out_path.read_text(encoding="utf-8"), reference)
    for problem in problems:
        print(f"reference mismatch: {problem}", file=sys.stderr)
    return not problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    workload = WORKLOADS[name]
    variant = seed % N_VARIANTS
    argv = workload.cli_argv(seed)
    reference = read_ref(name, variant)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    load_before = os.getloadavg()[0]

    samples, traced, failures = [], [], 0
    loop_start = time.perf_counter()
    while True:
        out_path = OUT / f"{stem}.csv"
        result = run_child(argv, out_path, deadline)
        ok = checked(result, out_path, reference)
        if trace and ok:
            traced_path = OUT / f"{stem}-traced.csv"
            spans = run_child(argv, traced_path, deadline,
                              OUT / f"{stem}.spans.json")
            ok = checked(spans, traced_path, reference)
            if ok and traced_path.read_bytes() != out_path.read_bytes():
                print("traced output differs from untraced output",
                      file=sys.stderr)
                ok = False
            if ok:
                layers = spans["layers"]
                layers["trace.overhead_s"] = spans["wall_s"] - result["wall_s"]
                traced.append(layers)
        samples.append(result if result is not None else {})
        failures += not ok
        elapsed = time.perf_counter() - loop_start
        per_iteration = elapsed / len(samples)
        if (not ok or elapsed + per_iteration > seconds
                or time.perf_counter() + per_iteration > deadline):
            break

    good = [s for s in samples if "wall_s" in s]
    metrics = {key: statistics.median(s[key] for s in good) if good else 0.0
               for key in END_TO_END}
    layers = {k: statistics.median(t[k] for t in traced) if traced else 0.0
              for k in PER_LAYER_METRICS}
    first = good[0] if good else {}
    record = {
        "workload": name, "seed": seed, "variant": variant, "argv": argv,
        "seconds": seconds, "trace": trace,
        "attempted": len(samples), "failed": failures,
        "env": {"git_sha": git_sha(), "src_sha256": src_digest(),
                "python": first.get("python"), "numpy": first.get("numpy"),
                "scipy": first.get("scipy"),
                "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": first.get("blas_threads"),
                "loadavg_1m_before": load_before,
                "loadavg_1m_after": os.getloadavg()[0]},
        "samples": samples, "traced": traced,
        "metrics": metrics, "per_layer": layers,
    }
    (OUT / f"{stem}{'-trace' if trace else ''}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines of one record; return its metrics."""
    print("env " + json.dumps(record["env"]))
    n, failed = record["attempted"], record["failed"]
    name = record["workload"]
    if record["trace"]:
        metrics = {k: (record["per_layer"][k], u)
                   for k, u in PER_LAYER_METRICS.items()}
        count = len(record["traced"])
    else:
        metrics = {k: (record["metrics"][k], u) for k, u in END_TO_END.items()}
        count = sum("wall_s" in s for s in record["samples"])
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit} (median of {count})")
    print(f"{name} fail_frac = {failed / n:.6g} ({failed} of {n} runs)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sawmollow" / "cli.py").is_file():
        print(f"no sawmollow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += record["attempted"]
        failed += record["failed"]
        for key, value in report(record).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
