"""Tests of the benchmark's own code: tracer, reference check, workloads."""

import json
import re

import pytest

from reference import compare, parse_table, read_ref
from run import END_TO_END, ROOT
from tracer import PER_LAYER_METRICS, Tracer, self_times
from workloads import N_VARIANTS, WORKLOADS


def test_self_time_of_synthetic_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    leaf = tracer.wrap("bloch.leaf", work)

    def mid_body():
        work(1.0)
        leaf(2.0)
        work(0.5)
        leaf(0.25)

    mid = tracer.wrap("spectrum.mid", mid_body)

    def outer_body():
        work(3.0)
        mid()
        leaf(4.0)

    outer = tracer.wrap("cli.outer", outer_body)
    outer()

    names = [s[0] for s in tracer.spans]
    assert names == ["cli.outer", "spectrum.mid", "bloch.leaf", "bloch.leaf",
                     "bloch.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert self_times(tracer.spans) == pytest.approx(
        [3.0, 1.5, 2.0, 0.25, 4.0])
    metrics = tracer.metrics(wall_s=10.75)
    assert metrics["layer.cli.self_s"] == pytest.approx(3.0)
    assert metrics["layer.spectrum.self_s"] == pytest.approx(1.5)
    assert metrics["layer.bloch.self_s"] == pytest.approx(6.25)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["trace.spans"] == 5


def _with_one_value_moved(text, column, shift_of_peak):
    names, columns = parse_table(text)
    col = names.index(column)
    peak = max(abs(v) for v in columns[col])
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines)
               if line and not line.startswith("#")) + 251
    fields = lines[row].split(",")
    fields[col] = format(float(fields[col]) + shift_of_peak * peak, ".17g")
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_reference_check_rejects_intensity_moved_by_1e_5_of_peak():
    ref = read_ref("spectrum_instrument", 0)
    assert compare(ref, ref) == []
    assert compare(_with_one_value_moved(ref, "intensity", 1e-7), ref) == []
    problems = compare(_with_one_value_moved(ref, "intensity", 1e-5), ref)
    assert len(problems) == 1 and problems[0].startswith("intensity: row 250")


def test_reference_check_rejects_nan_and_missing_rows():
    ref = read_ref("lindblad_cold", 0)
    lines = ref.splitlines()
    fields = lines[-1].split(",")
    fields[-1] = "nan"
    assert compare("\n".join(lines[:-1] + [",".join(fields)]), ref)
    assert compare("\n".join(lines[:-1]), ref)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert per_layer == PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*e2e, *per_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64


DOCUMENTED = {
    "spectrum_instrument": "spectrum --rabi-l-ghz 3.5299 --rabi-s-ghz 1.75 "
                           "--diffusion-mhz 678 --etalon-mhz 525 "
                           "--window-ghz 9 --points 501",
    "cooling_map": "cooling-map --delta-points 21 --rabi-points 11",
    "lindblad_cold": "lindblad-map --temp-k 0.1 --delta-points 5 "
                     "--rabi-points 5",
    "lindblad_warm": "lindblad-map --temp-k 1 --delta-start -2 --delta-stop -2 "
                     "--delta-points 1 --rabi-start 2 --rabi-stop 2 "
                     "--rabi-points 1 --diffusion-mhz 0",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_runs_the_documented_argv(name):
    assert WORKLOADS[name].cli_argv(0) == DOCUMENTED[name].split() + [
        "--jobs", "1"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_shift_values_but_keep_every_count(name):
    base = WORKLOADS[name].cli_argv(0)
    for seed in range(1, 2 * N_VARIANTS):
        argv = WORKLOADS[name].cli_argv(seed)
        assert argv == WORKLOADS[name].cli_argv(seed)
        assert argv == WORKLOADS[name].cli_argv(seed % N_VARIANTS)
        fixed = dict(zip(base[1::2], base[2::2]))
        for flag, value in zip(argv[1::2], argv[2::2]):
            if "points" in flag or flag in ("--temp-k", "--jobs"):
                assert value == fixed[flag]
    assert WORKLOADS[name].cli_argv(1) != base


def test_wrapped_function_is_replaced_in_every_module_that_binds_it(tmp_path):
    import sawmollow
    import sawmollow.cli as cli
    from sawmollow import bloch, cooling, spectrum

    original = bloch.floquet_steady_state
    original_splu = cooling.splu
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = bloch.floquet_steady_state
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (sawmollow, cli, cooling, spectrum):
            assert module.floquet_steady_state is wrapped
        assert cooling.splu.__wrapped__ is original_splu
        args = ["lindblad-map", "--temp-k", "0.1", "--delta-points", "1",
                "--rabi-points", "1", "--nodes", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "t.csv")]) == 0
        code = cli.main(["cooling-map", "--delta-points", "2", "--rabi-points",
                         "1", "--nodes", "3", "--out",
                         str(tmp_path / "c.csv")])
        assert code == 0
    finally:
        tracer.uninstall()
    for module in (sawmollow, cli, cooling, spectrum, bloch):
        assert module.floquet_steady_state is original
    assert cooling.splu is original_splu

    by_name = {}
    for name, _, _, parent in tracer.spans:
        by_name.setdefault(name, []).append(
            tracer.spans[parent][0] if parent >= 0 else None)
    # cooling.cooling_map reaches floquet_steady_state through the name it
    # imported from bloch, so the spans nest under it.
    assert by_name["bloch.floquet_steady_state"] == ["cooling.cooling_map"] * 6
    assert by_name["cooling.splu"] == ["cooling.lindblad_steady_state"] * 3
    metrics = tracer.metrics(wall_s=1.0)
    assert metrics["cooling.splu.calls"] == 3
    assert metrics["bloch.floquet_steady_state.calls"] == 6
    assert metrics["bloch.floquet_steady_state.blocks"] >= 6

    assert cli.main(args + ["--out", str(tmp_path / "u.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()
