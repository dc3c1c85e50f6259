import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawmollow
from sawmollow.cli import COMMANDS, FLAGS, build_parser, emit, main
from sawmollow.fitting import AbsorptionModel, absorption_spectrum
from sawmollow.model import KB, Frequency, TWO_PI

GHZ = TWO_PI * 1e9


def run(args):
    return main([str(a) for a in args])


def data_rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def strict_json(path):
    """The JSON file parsed with NaN, Infinity and -Infinity rejected."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


# The physics flags each command takes, and a tiny run of each command.
PHYSICS = ["--delta-ghz", "--rabi-l-ghz", "--rabi-s-ghz", "--omega-s-ghz",
           "--gamma-mhz", "--diffusion-mhz", "--etalon-mhz", "--fsr-ghz"]
TAKES = {"spectrum": PHYSICS, "spectrum-map": PHYSICS,
         "dressed-lines": PHYSICS[:4],
         "cooling-map": ["--rabi-s-ghz", "--omega-s-ghz", "--gamma-mhz",
                         "--diffusion-mhz"],
         "lindblad-map": ["--omega-s-ghz", "--gamma-mhz", "--diffusion-mhz"]}
TINY = {"spectrum": ["--window-ghz", 4, "--points", 21, "--nodes", 3],
        "spectrum-map": ["--sweep-points", 2, "--window-ghz", 4,
                         "--points", 21, "--nodes", 3],
        "dressed-lines": ["--sweep-points", 3],
        "cooling-map": ["--delta-points", 2, "--rabi-points", 2,
                        "--nodes", 3],
        "lindblad-map": ["--temp-k", 0.1, "--delta-points", 2,
                         "--rabi-points", 1, "--nodes", 3]}
FREQUENCY_FLAGS = [(command, f"--{flag}")
                   for command, (_, _, flags, _) in COMMANDS.items()
                   for flag in flags if "unit" in FLAGS[flag]]
PERTURBED = {"--delta-ghz": 0.4, "--rabi-l-ghz": 1.5, "--rabi-s-ghz": 0.8,
             "--omega-s-ghz": 3.0, "--gamma-mhz": 300, "--diffusion-mhz": 250,
             "--etalon-mhz": 300, "--fsr-ghz": 7}


def assert_succeeds_or_exits_2(args, out):
    """The run exits 0 and writes out, or exits 2 with a message and
    writes nothing."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([*args, "--out", out])
    assert code in (0, 2)
    assert (code == 2) == bool(err.getvalue().strip())
    assert (code == 0) == out.exists()


class TestSelftest:
    def test_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("flag", ["--out", "--format", "--config"])
    def test_output_flags_are_rejected(self, tmp_path, flag):
        """selftest writes no file, so it takes no output flags."""
        value = {"--out": tmp_path / "x.csv", "--format": "json",
                 "--config": tmp_path / "run.cfg"}[flag]
        (tmp_path / "run.cfg").write_text("")
        with pytest.raises(SystemExit) as exc:
            run(["selftest", flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()


class TestImportCost:
    def test_cli_import_leaves_unused_scipy_packages_unloaded(self):
        """ODE integration, least squares and Bessel functions serve commands
        that need them; importing the CLI must not pay for them."""
        src = os.path.dirname(os.path.dirname(sawmollow.__file__))
        code = ("import sys, sawmollow.cli; print(sorted(m for m in ("
                "'scipy.integrate', 'scipy.optimize', 'scipy.special') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


class TestSpectrumCommand:
    def test_writes_csv_with_metadata(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(["spectrum", "--rabi-l-ghz", 3.5299, "--rabi-s-ghz", 1.75,
                    "--window-ghz", 6, "--points", 301, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("gamma_mhz" in l for l in meta)
        assert any("hbar" in l for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "freq_offset_GHz,intensity"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 301

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["spectrum", "--rabi-l-ghz", 3.5299, "--rabi-s-ghz", 1.75,
                "--window-ghz", 6, "--points", 201]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rabi-l-ghz = 2.0\nwindow-ghz = 5.0\npoints = 101\n")
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--config", cfg, "--points", 51,
                    "--out", out]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 51  # flag wins over the file
        meta = out.read_text()
        assert "rabi_l_ghz = 2" in meta

    def test_json_writes_non_finite_values_as_strings(self, tmp_path):
        """--tol inf is accepted; the JSON output stays strict JSON."""
        out = tmp_path / "map.json"
        assert run(["cooling-map", "--tol", "inf", "--delta-points", 2,
                    "--rabi-points", 1, "--nodes", 3, "--format", "json",
                    "--out", out]) == 0
        assert strict_json(out)["meta"]["tol"] == "inf"

    def test_json_format_parses_with_sorted_keys(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--rabi-l-ghz", 2.0, "--window-ghz", 4,
                    "--points", 51, "--format", "json", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["freq_offset_GHz", "intensity"]
        assert len(payload["rows"]) == 51
        keys = list(payload["meta"])
        assert keys == sorted(keys)

    def test_bad_physics_flag_exits_2(self, tmp_path, capsys):
        """The library rejects each input before any solve."""
        out = tmp_path / "x.csv"
        for args, message in [
                (["spectrum", "--gamma-mhz", -1], "gamma must be positive"),
                (["spectrum", "--gamma-mhz", 0], "gamma must be positive"),
                (["spectrum", "--rabi-s-ghz", -1],
                 "rabi_S must be non-negative"),
                (["spectrum", "--etalon-mhz", -1],
                 "instrument widths must be non-negative"),
                (["lindblad-map", "--temp-k", 0],
                 "temperature must be positive"),
                (["cooling-map", "--delta-points", 0],
                 "grid must be nonempty")]:
            assert run([*args, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and message in err
            assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--diffusion-mhz", 100]])
    @pytest.mark.parametrize("fsr", ["nan", -1, 0])
    @pytest.mark.parametrize("command", ["spectrum", "spectrum-map"])
    def test_bad_fsr_exits_2_with_or_without_instrument(
            self, tmp_path, capsys, command, fsr, extra):
        """--fsr-ghz is checked even when no etalon or diffusion acts."""
        out = tmp_path / "x.csv"
        assert run([command, *TINY[command], *extra, "--fsr-ghz", fsr,
                    "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", FREQUENCY_FLAGS,
                             ids=[f"{c}{f}" for c, f in FREQUENCY_FLAGS])
    def test_non_finite_frequency_flag_exits_2_naming_it(
            self, tmp_path, capsys, recwarn, command, flag, value):
        """nan or inf in any frequency flag, grid and sweep bounds
        included, is refused before any solve with a message that names the
        flag and its unit."""
        out = tmp_path / "x.csv"
        data = ["--data", tmp_path / "absent.txt"] if "fit" in command else []
        assert run([command, *data, f"{flag}={value}", "--out", out]) == 2
        unit = FLAGS[flag[2:]]["unit"]
        assert capsys.readouterr().err == (
            f"config error: {flag} must be a finite frequency in {unit}, "
            f"got {float(value)}\n")
        assert not recwarn.list and not out.exists()

    def test_grid_and_sweep_bounds_are_frequency_flags(self):
        assert {f for _, f in FREQUENCY_FLAGS} >= {
            "--delta-start", "--delta-stop", "--rabi-start", "--rabi-stop",
            "--sweep-start", "--sweep-stop"}

    def test_missing_out_exits_2(self, capsys):
        assert run(["spectrum"]) == 2

    def test_etalon_window_beyond_fsr_exits_2(self, tmp_path, capsys):
        """The default +-12 GHz window exceeds the 20 GHz FSR: a config
        error, reported before any spectrum is computed."""
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--etalon-mhz", 525, "--out", out]) == 2
        assert "free spectral range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fwhm", ["1e-200", "1e-300"])
    def test_underflowing_etalon_width_exits_2(self, tmp_path, capsys, fwhm):
        """An etalon half-width whose square underflows would turn every
        row into nan; it is rejected before any spectrum is computed."""
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--window-ghz", 4, "--points", 11,
                    "--etalon-mhz", fwhm, "--out", out]) == 2
        assert "underflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [["--points", 1], ["--window-ghz", 0],
                                      ["--window-ghz", -3]],
                             ids=["points=1", "window=0", "window=-3"])
    def test_invalid_grid_exits_2(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert run(["spectrum", *grid, "--out", out]) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_even_node_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--diffusion-mhz", 678, "--nodes", 4,
                    "--window-ghz", 5, "--out", out]) == 2
        assert "n_nodes must be odd" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_tolerance_exits_3_with_every_failure(self, tmp_path,
                                                              capsys):
        """--tol reaches the cooling map's Floquet solves; the error names
        the first failure and a note lists them all."""
        assert run(["cooling-map", "--delta-points", 2, "--rabi-points", 1,
                    "--diffusion-mhz", 0, "--tol", 1e-20,
                    "--out", tmp_path / "x.csv"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("numerical error: harmonic balance")
        assert err[1].startswith("2 of 2 sweep point(s) failed: "
                                 "index 0, node 0:")

    def test_diffused_failure_names_every_point_and_node(self, tmp_path,
                                                          capsys):
        assert run(["cooling-map", "--delta-points", 2, "--rabi-points", 1,
                    "--diffusion-mhz", 400, "--nodes", 3, "--tol", 1e-20,
                    "--out", tmp_path / "x.csv"]) == 3
        note = capsys.readouterr().err.splitlines()[1]
        assert note.startswith("6 of 6 sweep point(s) failed: ")
        for i in (0, 1):
            for k in (0, 1, 2):
                assert f"index {i}, node {k}: harmonic balance" in note

    @pytest.mark.parametrize("command", [
        ["dressed-lines"], ["fit-absorption", "--data", "d.txt"],
        ["fit-lorentzian", "--data", "d.txt"], ["fit-linear", "--data", "d.txt"],
        ["background", "--data", "d.txt", "--target", 0.5], ["selftest"],
        ["lindblad-map"]])
    def test_flags_a_command_does_not_use_are_rejected(self, command,
                                                       tmp_path):
        flags = [["--tol", 1e-9]]
        if command[0] != "lindblad-map":
            flags.append(["--jobs", 2])
        else:
            flags.append(["--adaptive"])    # every solve sizes its Fock space
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                run(command + flag + ["--out", tmp_path / "x.csv"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,swept", [
        *[(c, f, False) for c in TAKES for f in PHYSICS],
        *[(c, f, True) for c in ("spectrum-map", "dressed-lines")
          for f in ("--rabi-l-ghz", "--delta-ghz")]])
    def test_physics_flag_acts_or_is_rejected(self, command, flag, swept,
                                              tmp_path):
        """A physics flag that a command takes changes its data rows; any
        other exits 2.  A sweep command sweeps the drive quantity the flag
        does not set, unless swept: then the flag sets the swept axis, which
        it cannot, and exits 2.  --fsr-ghz enters only through the etalon,
        whose window it must cover: at 7 GHz it rejects the 8 GHz window."""
        args = [command, *TINY[command]]
        if command in ("spectrum-map", "dressed-lines"):
            sweep = "delta" if flag == "--rabi-l-ghz" else "rabi-l"
            if swept:
                sweep = "rabi-l" if flag == "--rabi-l-ghz" else "delta"
            args += ["--sweep", sweep, "--sweep-start", 0.5,
                     "--sweep-stop", 2.5]
        if swept:
            changed = tmp_path / "changed.csv"
            assert run(args + [flag, PERTURBED[flag], "--out", changed]) == 2
            assert not changed.exists()
            return
        if flag not in TAKES[command]:
            with pytest.raises(SystemExit) as exc:
                run(args + [flag, PERTURBED[flag], "--out", tmp_path / "x"])
            assert exc.value.code == 2
            return
        if flag == "--fsr-ghz":
            args += ["--etalon-mhz", 300]
        base, changed = tmp_path / "base.csv", tmp_path / "changed.csv"
        assert run(args + ["--out", base]) == 0
        code = run(args + [flag, PERTURBED[flag], "--out", changed])
        if flag == "--fsr-ghz":
            assert code == 2 and not changed.exists()
        else:
            assert code == 0
            assert data_rows(base) != data_rows(changed)

    @pytest.mark.parametrize("extra", [[], ["--diffusion-mhz", 678,
                                            "--nodes", 5]])
    def test_undriven_spectrum_has_no_negative_zero(self, tmp_path, extra):
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--rabi-l-ghz", 0, "--window-ghz", 4,
                    "--points", 41, *extra, "--out", out]) == 0
        intensities = [row.split(",")[1] for row in data_rows(out)[1:]]
        assert len(intensities) == 41
        assert set(intensities) == {"0"}

    @given(command=st.sampled_from(["spectrum", "cooling-map"]),
           nodes=st.integers(-1, 8),
           diffusion=st.floats(0.0, 1000.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_node_and_width_inputs_succeed_or_exit_2(
            self, tmp_path_factory, command, nodes, diffusion):
        grid = {"spectrum": ["--window-ghz", 5, "--points", 11],
                "cooling-map": ["--delta-points", 2, "--rabi-points", 1]}
        assert_succeeds_or_exits_2(
            [command, *grid[command], "--nodes", nodes,
             "--diffusion-mhz", repr(diffusion)],
            tmp_path_factory.mktemp("prop") / "x.csv")

    @given(temp=st.floats(math.log(1e-6), math.log(0.2)).map(math.exp),
           m_max=st.integers(-1, 4))
    @settings(max_examples=40, deadline=None)
    def test_temperature_and_truncation_inputs_succeed_or_exit_2(
            self, tmp_path_factory, temp, m_max):
        assert_succeeds_or_exits_2(
            ["lindblad-map", "--delta-points", 1, "--rabi-points", 1,
             "--diffusion-mhz", 0, "--temp-k", repr(temp), "--m-max", m_max],
            tmp_path_factory.mktemp("prop") / "x.csv")

    @given(command=st.sampled_from(["spectrum-map", "dressed-lines"]),
           sweep=st.sampled_from(["rabi-l", "delta"]),
           ends=st.tuples(st.floats(-1.0, 6.0), st.floats(-1.0, 6.0)),
           drive=st.tuples(st.floats(-6.0, 6.0), st.floats(-0.1, 6.0),
                           st.floats(-0.1, 3.0),
                           st.floats(1.0, 6.0) | st.just(0.0)),
           instrument=st.tuples(st.floats(1.0, 1000.0) | st.just(0.0),
                                st.floats(-1.0, 1000.0),
                                st.floats(-1.0, 1000.0),
                                st.floats(0.0, 30.0)))
    @settings(max_examples=40, deadline=None)
    def test_sweep_physics_inputs_succeed_or_exit_2(
            self, tmp_path_factory, command, sweep, ends, drive, instrument):
        """Random physics values on tiny sweeps.  Where the acoustic
        frequency and the linewidth are positive they are at least 1 GHz and
        1 MHz, so the harmonic balance converges and exit 3 cannot occur."""
        # Values as separate arguments: "-1e-3" must read as a value.
        args = [command, "--sweep", sweep, "--sweep-start", repr(ends[0]),
                "--sweep-stop", repr(ends[1]), "--sweep-points", 2]
        values = drive + instrument if command == "spectrum-map" else drive
        axis = "--rabi-l-ghz" if sweep == "rabi-l" else "--delta-ghz"
        for flag, value in zip(PHYSICS, values):
            if flag != axis:    # the swept axis's own flag exits 2
                args += [flag, repr(value)]
        if command == "spectrum-map":
            args += ["--window-ghz", 4, "--points", 11, "--nodes", 3]
        assert_succeeds_or_exits_2(
            args, tmp_path_factory.mktemp("prop") / "x.csv")

    @pytest.mark.parametrize("command, args", [
        ("spectrum-map", ["--sweep", "delta", "--sweep-start", "-1e-3",
                          "--sweep-stop", "-9.8e-08", *TINY["spectrum-map"]]),
        ("dressed-lines", ["--delta-ghz", "-1.5e0", *TINY["dressed-lines"]]),
        ("cooling-map", ["--delta-start", "-5e0", "--delta-stop", "-.5e-1",
                         *TINY["cooling-map"]]),
    ])
    def test_negative_exponent_values_as_separate_arguments(
            self, tmp_path, command, args):
        assert run([command, *args, "--out", tmp_path / "x.csv"]) == 0

    @pytest.mark.parametrize("gamma_mhz, code", [("1e-300", 2), ("1e-200", 0)])
    def test_overflowing_linewidth_is_a_config_error(self, tmp_path, capsys,
                                                     gamma_mhz, code):
        """A linewidth too small for double precision exits 2 naming gamma,
        without doubling the truncation; 1e-200 MHz still converges."""
        assert run(["cooling-map", "--delta-points", 2, "--rabi-points", 1,
                    "--gamma-mhz", gamma_mhz,
                    "--out", tmp_path / "x.csv"]) == code
        if code:
            assert "overflows at gamma" in capsys.readouterr().err

    def test_truncation_past_the_cap_exits_3_quickly(self, tmp_path, capsys):
        """A modulation index of 5.7e5 asks for more harmonics than the
        cap; the solve stops at the cap instead of assembling them all."""
        start = time.perf_counter()
        assert run(["spectrum", "--rabi-s-ghz", 1e6,
                    "--out", tmp_path / "x.csv"]) == 3
        assert time.perf_counter() - start < 30.0
        assert "not converged at n_harmonics = 768" in capsys.readouterr().err

    def test_removed_n_phase_flag_rejected(self, tmp_path):
        for command in ("spectrum", "spectrum-map"):
            with pytest.raises(SystemExit) as exc:
                run([command, "--n-phase", 16, "--out", tmp_path / "x.csv"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("prefix", ["--nod", "--poi"])
    def test_flag_prefixes_are_rejected(self, tmp_path, capsys, prefix):
        """A prefix of --nodes or --points is not taken for the flag, as the
        same key in a --config file is not."""
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", *TINY["spectrum"][:4], prefix, 3, "--out", out])
        assert exc.value.code == 2 and not out.exists()
        assert f"unrecognized arguments: {prefix} 3" in capsys.readouterr().err

    def test_runaway_fock_growth_exits_3(self, tmp_path, capsys):
        """A mode heated past every Fock size the solve may try."""
        out = tmp_path / "x.csv"
        assert run(["lindblad-map", "--temp-k", 0.1, "--g0-mhz", 50,
                    "--delta-start", 2, "--delta-stop", 2,
                    "--delta-points", 1, "--rabi-start", 2.6,
                    "--rabi-stop", 2.6, "--rabi-points", 1,
                    "--diffusion-mhz", 0, "--out", out]) == 3
        assert "numerical error: Fock tail" in capsys.readouterr().err
        assert not out.exists()

    ONE_POINT = ["--delta-points", 1, "--rabi-points", 1, "--nodes", 3]

    @pytest.mark.parametrize("g0, message", [
        ("1e20", "is far from positive"),
        pytest.param("1e5", "passes its work limit", marks=pytest.mark.slow)])
    def test_coupling_beyond_the_band_exits_3_quickly(self, tmp_path, capsys,
                                                      g0, message):
        """A coupling for which m_ss never settles in the band K: the search
        stops at a band state far from positive, or at its work limit,
        instead of trying every band of every Fock size."""
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert run(["lindblad-map", "--g0-mhz", g0, *self.ONE_POINT,
                    "--out", out]) == 3
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err.startswith("numerical error: Lindblad steady state")
        assert message in err and not out.exists()

    @pytest.mark.parametrize("args, code, message", [
        (["cooling-map", "--omega-s-ghz", "1e-320", *ONE_POINT], 2,
         "config error: omega_S = 1.000e-320 GHz is too small"),
        (["spectrum", "--omega-s-ghz", "1e-320", "--nodes", 3], 2,
         "config error: omega_S = 1.000e-320 GHz is too small"),
        (["lindblad-map", "--temp-k", "1e17", *ONE_POINT], 2,
         "config error: temperature 1.000e+17 K"),
        (["lindblad-map", "--temp-k", "inf", *ONE_POINT], 2,
         "config error: temperature must be finite"),
        (["lindblad-map", "--q", "1e-300", *ONE_POINT], 2,
         "config error: quality factor 1.000e-300: the dissipation"),
        (["lindblad-map", "--g0-mhz", "1e300", *ONE_POINT], 3,
         "numerical error: Lindblad steady state"),
    ], ids=["tiny-saw-map", "tiny-saw-spectrum", "hot-mode", "infinite-temp",
            "overdamped-mode", "singular"])
    def test_extreme_values_exit_with_a_message(self, tmp_path, capsys,
                                                recwarn, args, code, message):
        """An omega_S whose truncation order is not finite, an occupation
        too large for a Fock truncation or not finite, or a dissipation
        omega_S / Q that is not finite, is a configuration error; a
        coupling that leaves the Liouvillian singular is a numerical
        error.  Neither writes a file, nor raises a numpy warning."""
        out = tmp_path / "x.csv"
        assert run([*args, "--out", out]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Warning" not in err and not recwarn.list
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["cooling-map", *ONE_POINT], ["spectrum", "--nodes", 3]],
        ids=["cooling-map", "spectrum"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_nonpositive_tol_exits_2(self, tmp_path, capsys, command, tol):
        """A --tol that no residual can meet is refused before any harmonic
        balance runs to its cap."""
        out = tmp_path / "x.csv"
        assert run([*command, f"--tol={tol}", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: tol must be positive")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, codes", [
        pytest.param(flag, value, codes, id=f"{flag[2:]}={value}")
        for flag, value, codes in [
            *(("--g0-mhz", g0, (3,))
              for g0 in ("1e50", "1e120", "1e150", "1e200", "1e300")),
            ("--q", "1e300", (0,)),
            ("--gamma-mhz", "1e-300", (0,)),
            ("--gamma-mhz", "1e300", (0,)),
            ("--q", "1e-250", (0, 3))]])   # condition number near 1e250
    def test_extreme_lindblad_inputs(self, tmp_path, capsys, recwarn, flag,
                                     value, codes):
        """Extreme couplings, quality factors and linewidths end quickly:
        with a result, or with exit 3 and a message; never with a numpy
        warning.  A linewidth of 1e300 MHz leaves the mode thermal."""
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code = run(["lindblad-map", flag, value, *self.ONE_POINT,
                    "--out", out])
        assert time.perf_counter() - start < 10.0
        assert code in codes
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") if code else not err
        assert "Warning" not in err and not recwarn.list
        assert out.exists() == (code == 0)
        if (flag, value) == ("--gamma-mhz", "1e300"):
            assert abs(float(data_rows(out)[1].split(",")[3])) < 1e-6

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 51\nn_phase = 16\n")
        assert run(["spectrum", "--config", cfg,
                    "--out", tmp_path / "x.csv"]) == 2
        assert "n_phase" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, flag", [
        ("spectrum", "format = xml", "--format"),
        ("spectrum-map", "sweep = foo", "--sweep"),
        ("spectrum", "nodes = 3.0", "--nodes"),
        ("cooling-map", "delta-start = inf", "--delta-start"),
        ("fit-linear", "intercept = maybe", "intercept")])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys,
                                                  command, line, flag):
        """A config value meets the type, choices and unit checks of its
        flag: exit 2, a message naming the flag, no file."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_text(line + "\n")
        try:
            code = run([command, "--config", cfg, "--out", out])
        except SystemExit as exc:
            code = exc.code
        assert code == 2 and not out.exists()
        assert flag in capsys.readouterr().err

    def test_config_key_of_another_command_rejected(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        args = ["cooling-map", "--config", cfg, "--delta-points", 2,
                "--rabi-points", 1, "--out", out]
        cfg.write_text("nodes = 3\netalon_mhz = 525\n")
        assert run(args) == 2
        assert ("cooling-map does not take etalon_mhz"
                in capsys.readouterr().err)
        assert not out.exists()
        cfg.write_text("nodes = 3\n")
        assert run(args) == 0
        assert "# nodes = 3\n" in out.read_text()


class TestMapsAndLines:
    def test_dressed_lines_table(self, tmp_path):
        out = tmp_path / "lines.csv"
        assert run(["dressed-lines", "--sweep", "rabi-l", "--sweep-start", 1,
                    "--sweep-stop", 5, "--sweep-points", 5, "--delta-ghz", 0,
                    "--out", out]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 5 * 9
        weights = np.array([float(r[4]) for r in rows]).reshape(5, 9)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_cooling_map_long_form(self, tmp_path):
        out = tmp_path / "cool.csv"
        assert run(["cooling-map", "--delta-start", -3, "--delta-stop", 3,
                    "--delta-points", 5, "--rabi-start", 1, "--rabi-stop", 3,
                    "--rabi-points", 3, "--diffusion-mhz", 0,
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "delta_GHz,rabiL_GHz,rate_per_s,rho_ee"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 15

    @pytest.mark.parametrize("diffusion", [["--diffusion-mhz", 0], []])
    def test_cooling_map_through_the_undriven_resonance(self, tmp_path,
                                                        diffusion):
        """At rabi_L = 0 the emitter emits nothing (rho_ee = 0), so the
        rate is 0, also at the zero-detuning point (and diffusion node)
        that has no cooling axis."""
        out = tmp_path / "cool.csv"
        assert run(["cooling-map", "--rabi-start", 0, "--rabi-stop", 1,
                    "--delta-points", 3, "--rabi-points", 2, *diffusion,
                    "--out", out]) == 0
        rows = [[float(v) for v in row.split(",")]
                for row in data_rows(out)[1:]]
        assert [row[2:] for row in rows if row[1] == 0.0] == [[0.0, 0.0]] * 3
        assert all(row[3] > 0.0 for row in rows if row[1] == 1.0)

    def test_lindblad_map_small(self, tmp_path):
        out = tmp_path / "lind.csv"
        assert run(["lindblad-map", "--temp-k", 0.1, "--m-max", 12,
                    "--delta-start", -3, "--delta-stop", 3,
                    "--delta-points", 3, "--rabi-start", 1.5, "--rabi-stop",
                    2.5, "--rabi-points", 2, "--diffusion-mhz", 0,
                    "--nodes", 3, "--out", out]) == 0
        text = out.read_text()
        assert "m_th" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 6

    def test_spectrum_map_sweep(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["spectrum-map", "--sweep", "delta", "--sweep-start", -1,
                    "--sweep-stop", 1, "--sweep-points", 3, "--rabi-l-ghz", 2,
                    "--rabi-s-ghz", 1.75, "--window-ghz", 4, "--points", 41,
                    "--jobs", 1, "--out", out]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 3 * 41


class TestFitCommands:
    def test_fit_absorption_roundtrip(self, tmp_path):
        model = AbsorptionModel(Frequency.from_ghz(3.5299),
                                Frequency.from_ghz(1.75),
                                Frequency.from_ghz(0.678))
        deltas = np.linspace(-10, 10, 301) * GHZ
        y = absorption_spectrum(model, deltas)
        data = tmp_path / "abs.txt"
        data.write_text("\n".join(f"{d / GHZ},{v}"
                                  for d, v in zip(deltas, y)))
        out = tmp_path / "fit.json"
        assert run(["fit-absorption", "--data", data, "--init-rabi-s-ghz", 1.2,
                    "--init-linewidth-ghz", 0.4, "--format", "json",
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert abs(payload["params"]["rabi_s_ghz"] - 1.75) < 1e-6

    def test_fit_lorentzian_and_linear(self, tmp_path):
        center, q = 3.5299, 12562.0
        fwhm = center / q
        f = np.linspace(center - 8 * fwhm, center + 8 * fwhm, 201)
        y = 1.0 - 0.7 * (fwhm / 2) ** 2 / ((f - center) ** 2 + (fwhm / 2) ** 2)
        data = tmp_path / "dip.txt"
        data.write_text("\n".join(f"{a} {b}" for a, b in zip(f, y)))
        out = tmp_path / "lor.json"
        assert run(["fit-lorentzian", "--data", data, "--format", "json",
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["params"]["q"] - q) / q < 1e-6

        lin = tmp_path / "lin.txt"
        lin.write_text("\n".join(f"{v} {4.77 * v}" for v in
                                 np.linspace(0.1, 0.5, 9)))
        out2 = tmp_path / "lin.json"
        assert run(["fit-linear", "--data", lin, "--format", "json",
                    "--out", out2]) == 0
        payload = json.loads(out2.read_text())
        assert abs(payload["params"]["slope"] - 4.77) < 1e-12

    def test_background_command(self, tmp_path):
        biases = np.array([-1.0, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.8, 1.0])
        counts = 120.0 + 18.0 * biases + 55.0 * biases ** 2
        data = tmp_path / "bias.txt"
        data.write_text("\n".join(f"{a} {b}" for a, b in zip(biases, counts)))
        out = tmp_path / "bg.json"
        assert run(["background", "--data", data, "--target", 0.6,
                    "--format", "json", "--out", out]) == 0
        payload = json.loads(out.read_text())
        expected = 120.0 + 18.0 * 0.6 + 55.0 * 0.36
        assert abs(payload["value"] - expected) < 1e-9
        # the scalar stderr is a plain row of the CSV, not a group
        csv = tmp_path / "bg.csv"
        assert run(["background", "--data", data, "--target", 0.6,
                    "--out", csv]) == 0
        rows = dict(row.split(",") for row in data_rows(csv)[1:])
        assert rows.keys() == {"stderr", "target", "value"}
        assert abs(float(rows["value"]) - expected) < 1e-9

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf", "1e308",
                                        "config nan"])
    def test_background_target_without_finite_value_exits_2(
            self, tmp_path, capsys, recwarn, target):
        """A non-finite target, or one whose extrapolation overflows, is a
        config error naming --target: no numpy warning, no file."""
        data, out = tmp_path / "bias.txt", tmp_path / "bg.csv"
        data.write_text("\n".join(f"{v} {120.0 + 18.0 * v + 55.0 * v * v}"
                                  for v in np.linspace(-1.0, 1.0, 10)))
        if target == "config nan":
            (tmp_path / "run.cfg").write_text("target = nan\n")
            flags = ["--config", tmp_path / "run.cfg"]
        else:
            flags = [f"--target={target}"]
        assert run(["background", "--data", data, *flags,
                    "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: --target")
        assert not recwarn.list and not out.exists()

    def test_missing_data_file_exits_4(self, tmp_path, capsys):
        code = run(["fit-linear", "--data", tmp_path / "absent.txt",
                    "--out", tmp_path / "o.json"])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err


def _clean_data(command, noise):
    """Rows of a well-posed data file for command, scaled by 1 + noise[i]."""
    if command == "fit-absorption":
        x = np.linspace(-10.0, 10.0, 41)
        model = AbsorptionModel(Frequency.from_ghz(3.5299),
                                Frequency.from_ghz(1.75),
                                Frequency.from_ghz(0.678))
        y = absorption_spectrum(model, x * GHZ)
    elif command == "fit-lorentzian":
        x = np.linspace(3.5299 - 2e-3, 3.5299 + 2e-3, 41)
        y = 1.0 - 0.7 * 1e-8 / ((x - 3.5299) ** 2 + 1e-8)
    elif command == "fit-linear":
        x = np.linspace(0.1, 0.5, 41)
        y = 4.77 * x + 0.05
    else:
        x = np.linspace(-1.0, 1.0, 41)
        y = 120.0 + 18.0 * x + 55.0 * x * x
    return [[a, b * (1.0 + e)] for a, b, e in zip(x, y, noise)]


class TestDataFiles:
    """The data commands read a two-column file; a value that is not a
    finite number is a configuration error that names its line."""

    EXTRA = {"fit-absorption": [], "fit-lorentzian": [], "fit-linear": [],
             "background": ["--target", 0.6]}

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("command", list(EXTRA))
    def test_non_finite_row_exits_2_naming_its_line(self, tmp_path, capsys,
                                                    command, bad):
        rows = _clean_data(command, np.zeros(41))
        rows[4][1] = bad
        data, out = tmp_path / "d.txt", tmp_path / "o.csv"
        data.write_text("# x y\n" + "\n".join(f"{a} {b}" for a, b in rows))
        assert run([command, "--data", data, *self.EXTRA[command],
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        reason = ("could not convert string to float: 'abc'" if bad == "abc"
                  else "values must be finite")
        assert f"{data}:6: {reason}" in err
        assert not out.exists()

    @given(command=st.sampled_from(["fit-absorption", "fit-lorentzian",
                                    "fit-linear", "background"]),
           intercept=st.booleans(),
           noise=st.lists(st.floats(-0.01, 0.01), min_size=41, max_size=41),
           bad=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1),
                                  st.sampled_from(["nan", "NaN", "inf",
                                                   "-inf", "1e999"])),
                        max_size=3),
           fmt=st.sampled_from(["csv", "json"]),
           in_config=st.sets(st.sampled_from(["data", "format", "intercept",
                                              "target"])))
    @settings(max_examples=60, deadline=None)
    def test_data_commands_succeed_or_exit_2(self, tmp_path_factory, command,
                                             intercept, noise, bad, fmt,
                                             in_config):
        """Any data file, option set and config-file split: exit 0 with an
        output file, or exit 2 naming the first non-finite line and writing
        nothing; never a traceback."""
        tmp = tmp_path_factory.mktemp("data")
        rows = _clean_data(command, noise)
        for i, col, value in bad:
            rows[i][col] = value
        data, out = tmp / "d.txt", tmp / "o"
        data.write_text("\n".join(f"{a},{b}" for a, b in rows) + "\n")
        options = {"data": data, "format": fmt}
        if command == "background":
            options["target"] = 0.6
        if command == "fit-linear" and intercept:
            options["intercept"] = "true"
        flags = [command]
        for key, value in options.items():
            if key not in in_config:
                flags += [f"--{key}"] + ([] if key == "intercept" else [value])
        config = {k: v for k, v in options.items() if k in in_config}
        if config:
            (tmp / "run.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in config.items()))
            flags += ["--config", tmp / "run.cfg"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([*flags, "--out", out])
        if bad:
            line = min(i for i, _, _ in bad) + 1
            assert code == 2 and not out.exists()
            assert f"{data}:{line}: values must be finite" in err.getvalue()
        else:
            assert code == 0 and out.exists()


class TestConfigRoundTrip:
    def test_resolved_metadata_reproduces_the_run(self, tmp_path):
        """Reparsing the resolved-config header as a config file yields an
        identical data section."""
        first = tmp_path / "a.csv"
        assert run(["spectrum", "--rabi-l-ghz", 2.4, "--rabi-s-ghz", 1.1,
                    "--delta-ghz", -0.7, "--window-ghz", 5, "--points", 101,
                    "--out", first]) == 0
        knob_keys = {"delta_ghz", "rabi_l_ghz", "rabi_s_ghz", "omega_s_ghz",
                     "gamma_mhz", "diffusion_mhz", "etalon_mhz", "fsr_ghz",
                     "window_ghz", "points", "nodes", "tol"}
        cfg_lines = []
        for line in first.read_text().splitlines():
            if not line.startswith("# "):
                continue
            key, _, value = line[2:].partition(" = ")
            if key in knob_keys:
                cfg_lines.append(f"{key} = {value}")
        cfg = tmp_path / "resolved.cfg"
        cfg.write_text("\n".join(cfg_lines) + "\n")
        second = tmp_path / "b.csv"
        assert run(["spectrum", "--config", cfg, "--out", second]) == 0
        assert data_rows(first) == data_rows(second)

    def test_config_path_does_not_change_output_bytes(self, tmp_path):
        """The same inputs by flags and by two config files."""
        flags = ["--delta-points", 2, "--rabi-points", 2, "--nodes", 3]
        outs = [tmp_path / f"{name}.csv" for name in ("flags", "a", "b")]
        assert run(["cooling-map", *flags, "--out", outs[0]]) == 0
        for out in outs[1:]:
            cfg = tmp_path / f"{out.stem}.cfg"
            cfg.write_text("delta-points = 2\nrabi-points = 2\nnodes = 3\n")
            assert run(["cooling-map", "--config", cfg, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() \
            == outs[2].read_bytes()

    @pytest.mark.parametrize("args", [["fit-linear", "--intercept"],
                                      ["background", "--target", 0.6]])
    def test_data_path_does_not_change_output_bytes(self, tmp_path, args):
        """One data file's bytes under two directories, by flag and by
        --config: identical outputs."""
        outs = []
        for name in ("a", "b"):
            data = tmp_path / name / "cal.txt"
            data.parent.mkdir()
            data.write_text("\n".join(f"{v} {1.0 + 2.0 * v + v * v}"
                                      for v in (-0.5, 0.1, 0.2, 0.3, 0.9)))
            outs.append(tmp_path / f"{name}.csv")
            assert run([*args, "--data", data, "--out", outs[-1]]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data}\n")
        outs.append(tmp_path / "cfg.csv")
        assert run([*args, "--config", cfg, "--out", outs[-1]]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() \
            == outs[2].read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the process pool by one that records its size and runs its
    tasks inline; returns the list of recorded sizes."""
    started = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started


class TestJobsEnvironment:
    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        args = ["spectrum-map", "--sweep", "delta", "--sweep-start", -1,
                "--sweep-stop", 1, "--sweep-points", 3, "--rabi-l-ghz", 2,
                "--window-ghz", 4, "--points", 41]
        serial, parallel = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert run(args + ["--jobs", 1, "--out", serial]) == 0
        assert run(args + ["--jobs", 2, "--out", parallel]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("args", [
        ["cooling-map", "--delta-points", 3, "--rabi-points", 2, "--nodes", 3],
        ["lindblad-map", "--temp-k", 0.1, "--m-max", 10, "--delta-points", 2,
         "--rabi-points", 2, "--nodes", 3],
        ["spectrum", "--diffusion-mhz", 678, "--nodes", 5, "--window-ghz", 4,
         "--points", 41]])
    def test_jobs_do_not_change_cooling_map_bytes(self, tmp_path, args):
        serial, parallel = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert run(args + ["--jobs", 1, "--out", serial]) == 0
        assert run(args + ["--jobs", 2, "--out", parallel]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("affinity, cpu_count, workers", [
        ({0, 1}, 8, [2]), (None, 3, [3]), (None, None, [])])
    def test_workers_are_capped_at_usable_cpus(self, tmp_path, monkeypatch,
                                               pool_sizes, affinity,
                                               cpu_count, workers):
        """--jobs 3000 starts no more workers than the CPUs the process
        may use (one CPU: no pool), and writes the serial run's bytes.  The
        pool is replaced by one that records its size and runs inline."""
        args = ["cooling-map", "--delta-points", 3, "--rabi-points", 2,
                "--nodes", 3]
        serial, capped = tmp_path / "j1.csv", tmp_path / "j3000.csv"
        assert run(args + ["--jobs", 1, "--out", serial]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        assert run(args + ["--jobs", 3000, "--out", capped]) == 0
        assert pool_sizes == workers
        assert serial.read_bytes() == capped.read_bytes()

    def test_one_drive_spectrum_spreads_its_nodes(self, tmp_path, monkeypatch,
                                                  pool_sizes):
        """--jobs 2 on two CPUs spreads the diffusion nodes of a single
        spectrum over two workers, in batches, and writes the serial bytes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        args = ["spectrum", "--diffusion-mhz", 678, "--window-ghz", 4,
                "--points", 41]
        serial, parallel = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert run(args + ["--jobs", 1, "--out", serial]) == 0
        assert run(args + ["--jobs", 2, "--out", parallel]) == 0
        assert pool_sizes == [2]
        assert serial.read_bytes() == parallel.read_bytes()

    def test_nonpositive_jobs_rejected(self, tmp_path, capsys):
        """The library rejects jobs < 1 before any solve."""
        out = tmp_path / "x.csv"
        for jobs in (0, -1):
            assert run(["cooling-map", "--delta-points", 2, "--rabi-points", 1,
                        "--jobs", jobs, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error")
            assert f"jobs must be >= 1, got {jobs}" in err
            assert not out.exists()


class TestOutputEscaping:
    def test_json_strings_with_control_characters_round_trip(self, tmp_path):
        obj = {"data": "a\tb\nc", 'k"\x01\\': "\x7f end"}
        out = tmp_path / "x.json"
        emit([], ["x"], out, "json", obj)
        assert json.loads(out.read_text())["meta"] == obj

    def test_json_writes_non_finite_row_values_as_strings(self, tmp_path):
        """Rows follow the rule of meta and reports: nan, inf and -inf are
        strings, never bare constants or null."""
        out = tmp_path / "x.json"
        emit([(math.nan, math.inf), (np.float64(-np.inf), np.float64(1.5))],
             ("a", "b"), out, "json", {"tol": math.inf})
        payload = strict_json(out)
        assert payload["rows"] == [["nan", "inf"], ["-inf", 1.5]]
        assert payload["columns"] == ["a", "b"]
        assert payload["meta"] == {"tol": "inf"}

    def test_fit_json_report_carries_covariance(self, tmp_path):
        """The CSV report leaves the covariance out; the JSON report keeps
        it beside params, stderr and meta."""
        data = tmp_path / "cal.txt"
        data.write_text("\n".join(f"{v} {2.0 * v + 0.1}"
                                  for v in np.linspace(0.1, 0.5, 9)))
        out = tmp_path / "fit.json"
        assert run(["fit-linear", "--data", data, "--intercept",
                    "--format", "json", "--out", out]) == 0
        payload = strict_json(out)
        assert np.shape(payload["covariance"]) == (2, 2)
        assert set(payload["params"]) == set(payload["stderr"]) \
            == {"slope", "intercept"}
        assert payload["params"]["slope"] == pytest.approx(2.0)
        assert payload["meta"]["intercept"] is True

    def test_header_value_with_newline_stays_one_line(self, tmp_path):
        out = tmp_path / "x.csv"
        emit([], ["x"], out, "csv", {"note": "cal\nx.txt"})
        assert out.read_text().split("\n") == ["# note = cal\\nx.txt", "x", ""]

    def test_fit_report_header_formats_like_emit(self, tmp_path):
        data = tmp_path / "cal.txt"
        data.write_text("\n".join(f"{v} {2.0 * v + 0.1}"
                                  for v in np.linspace(0.1, 0.5, 9)))
        out, ref = tmp_path / "fit.csv", tmp_path / "ref.csv"
        assert run(["fit-linear", "--data", data, "--intercept",
                    "--out", out]) == 0
        emit([], ["x"], ref, "csv", {"intercept": True, "k_B_J_per_K": KB})
        expected = ref.read_text().splitlines()[:2]
        assert expected == ["# intercept = true",
                            "# k_B_J_per_K = 1.3806490000000001e-23"]
        assert set(expected) <= set(out.read_text().splitlines())

    def test_plain_header_unchanged(self, tmp_path):
        """The data file enters the header by the digest of its bytes."""
        data = tmp_path / "cal.txt"
        data.write_text("\n".join(f"{v} {2.0 * v}" for v in (0.1, 0.2, 0.3)))
        out = tmp_path / "fit.csv"
        assert run(["fit-linear", "--data", data, "--out", out]) == 0
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert f"# data_sha256 = {digest}\n" in out.read_text()
        assert str(data) not in out.read_text()


class TestParserPerCommand:
    """main builds the flags of the chosen command only; what argparse
    prints, and how it exits, stays that of the parser of every command."""

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("tail", [["--help"], ["--no-such-flag"],
                                      ["--out"], ["--format", "xml"]])
    def test_command_matches_the_full_parser(self, command, tail):
        argv = [command, *tail]
        full = self.outcome(build_parser().parse_args, argv)
        assert self.outcome(build_parser(command).parse_args, argv) == full
        assert self.outcome(main, argv) == full
        if tail == ["--help"]:
            assert full[0] == 0 and full[1].startswith("usage: sawmollow ")

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"],
                                      ["no-such-command"],
                                      ["--out", "x", "spectrum"]])
    def test_top_level_matches_the_full_parser(self, argv):
        assert self.outcome(main, argv) == \
            self.outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_other_commands_get_no_flags(self, command):
        other = "cooling-map" if command == "spectrum" else "spectrum"
        code, _, err = self.outcome(build_parser(command).parse_args,
                                    [other, "--out", "x.csv"])
        assert code == 2 and "unrecognized arguments: --out x.csv" in err


class TestReadme:
    def test_command_line_examples_parse(self):
        """Every `sawmollow ...` line of README's command-line block, with
        backslash continuations joined, parses with the CLI's parser."""
        readme = Path(__file__).parents[1] / "README.md"
        text = readme.read_text().split("## Command line", 1)[1]
        block = text.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(l)[1:] for l in lines
                    if l.startswith("sawmollow ")]
        assert len(examples) >= 10
        parser = build_parser()
        for argv in examples:
            assert parser.parse_args(argv).command == argv[0]
