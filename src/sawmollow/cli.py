"""Command-line front end: figure-style pipelines with bit-stable outputs.

Subcommands map onto the library: `spectrum` / `spectrum-map` (emission
spectra over drive sweeps), `dressed-lines` (the nine predicted line
positions), `cooling-map` (closed-form phonon rate over a detuning x Rabi
grid), `lindblad-map` (quantized cooling performance), the `fit-*` and
`background` calibration commands, and `selftest`.

Outputs are deterministic: repeated runs of the same resolved config are
byte-identical.  Every file embeds the resolved configuration, physical
constants, and solver tolerances in its header.  Exit codes: 0 success,
2 configuration error, 3 numerical non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bloch import (
    BlochGenerator,
    BlochState,
    ConvergenceError,
    DegenerateSystemError,
    IntegrationError,
    floquet_steady_state,
    monodromy,
    propagate,
)
from .cooling import (
    AcousticCavity,
    LindbladConfig,
    band_deviation,
    cooling_map,
    cooling_performance_map,
    cooling_rate_closed_form,
    cooling_rate_from_table,
    lindblad_steady_state,
)
from .dressed import overlay_lines, table_from_angles
from .fitting import (
    AbsorptionModel,
    background_extrapolate,
    fit_absorption,
    fit_linear_through_origin,
    fit_lorentzian,
    load_two_column,
)
from .model import (
    GHZ,
    HBAR,
    KB,
    DEVICE_DIFFUSION_GHZ,
    DEVICE_ETALON_FSR_GHZ,
    DEVICE_G0_GHZ,
    DEVICE_GAMMA_GHZ,
    DEVICE_OMEGA_S_GHZ,
    DEVICE_Q_FACTOR,
    DomainError,
    DriveConfig,
    EmitterParams,
    Frequency,
    Spectrum,
    thermal_occupation,
)
from .spectrum import InstrumentModel, spectrum_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Bad command-line or config-file input."""


# Control characters (C0, DEL, C1, line/paragraph separators) are escaped
# in written CSV strings, so no value can break a header line or a row.
_ESCAPES = {c: f"\\u{c:04x}"
            for c in [*range(0x20), *range(0x7f, 0xa0), 0x2028, 0x2029]}
_ESCAPES.update({8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r"})


def _fmt(x) -> str:
    """A value as locale-independent text: full double precision, escaped
    control characters."""
    if isinstance(x, float):   # np.float64 too; nan, inf and -inf as such
        return format(x, ".17g")
    if isinstance(x, str):
        return x.translate(_ESCAPES)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _plain(obj):
    """obj with numpy values as Python ones and every non-finite float as
    its _fmt string, so that the strict JSON encoder takes it."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _metadata(args, extra=None) -> dict:
    """Resolved physics and numerics inputs; settings such as --jobs and the
    --config path stay out, and a --data file enters by the SHA-256 of its
    bytes, so that only the inputs' contents set the output bytes."""
    meta = {"version": __version__, "hbar_J_s": HBAR, "k_B_J_per_K": KB}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "out", "format", "jobs", "config") or value is None:
            continue
        meta[key] = value
    if "data" in meta:
        with open(meta.pop("data"), "rb") as fh:
            meta["data_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if extra:
        meta.update(extra)
    return meta


def _report_rows(report: dict) -> list:
    """key,value rows of a report: its params and stderr dicts first, as
    group.key rows, then its other entries but the covariance."""
    groups = [g for g in ("params", "stderr")
              if isinstance(report.get(g), dict)]
    rows = [(f"{g}.{k}", v) for g in groups
            for k, v in sorted(report[g].items())]
    return rows + sorted(item for item in report.items()
                         if item[0] not in (*groups, "covariance"))


def emit(rows, columns, path, fmt, meta):
    """Write records as CSV (metadata in '#' header lines) or JSON.

    rows may instead be a report dict, written as key,value CSV rows (see
    _report_rows) or as JSON with meta added.  Non-finite numbers are
    written as nan, inf and -inf, in JSON as strings.
    """
    if isinstance(rows, dict):
        payload = {**rows, "meta": meta}
        rows, columns = _report_rows(rows), ("key", "value")
    else:
        rows = list(rows)
        payload = {"meta": meta, "columns": columns, "rows": rows}
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                for key, v in sorted(meta.items()):
                    fh.write(f"# {key} = {_fmt(v)}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(map(_fmt, row)) + "\n")
            else:
                json.dump(_plain(payload), fh, sort_keys=True, allow_nan=False)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------

_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")   # a value, also -9.8e-08

# Every flag once: its argparse keywords, a frequency's unit and a count's or
# window's floor, `above`.  COMMANDS lists each command's flags and defaults.
FLAGS = {
    "config": dict(help="key = value file; flags override it"),
    "out": dict(help="output file path"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "data": dict(required=True),
    "delta-ghz": dict(type=float, default=0.0, unit="GHz"),
    "rabi-l-ghz": dict(type=float, default=2.625, unit="GHz"),
    "rabi-s-ghz": dict(type=float, default=1.75, unit="GHz"),
    "omega-s-ghz": dict(type=float, default=DEVICE_OMEGA_S_GHZ, unit="GHz"),
    "gamma-mhz": dict(type=float, default=DEVICE_GAMMA_GHZ * 1e3, unit="MHz"),
    "diffusion-mhz": dict(type=float, default=0.0, unit="MHz"),
    "etalon-mhz": dict(type=float, default=0.0, unit="MHz"),
    "fsr-ghz": dict(type=float, default=DEVICE_ETALON_FSR_GHZ, unit="GHz"),
    "temp-k": dict(type=float, default=0.1),
    "g0-mhz": dict(type=float, default=DEVICE_G0_GHZ * 1e3, unit="MHz"),
    "q": dict(type=float, default=DEVICE_Q_FACTOR),
    "m-max": dict(type=int, default=0,
                  help="floor of the Fock truncation; each solve grows it "
                       "until the phonon tail is negligible"),
    "sweep": dict(choices=("rabi-l", "delta"), default="rabi-l"),
    "sweep-start": dict(type=float, default=0.5, unit="GHz"),
    "sweep-stop": dict(type=float, default=5.5, unit="GHz"),
    "sweep-points": dict(type=int, above=0),
    "delta-start": dict(type=float, default=-5.0, unit="GHz"),
    "delta-stop": dict(type=float, default=5.0, unit="GHz"),
    "delta-points": dict(type=int, above=0),
    "rabi-start": dict(type=float, unit="GHz"),
    "rabi-stop": dict(type=float, unit="GHz"),
    "rabi-points": dict(type=int, above=0),
    "window-ghz": dict(type=float, default=12.0, unit="GHz", above=0,
                       help="half-width of the frequency window"),
    "points": dict(type=int, default=2001, above=1),
    "nodes": dict(type=int,
                  help="Gauss-Hermite nodes for the diffusion average"),
    "jobs": dict(type=int, default=1, help="threads, up to the usable CPUs"),
    "tol": dict(type=float,
                help="harmonic-balance (Floquet) residual tolerance"),
    "init-rabi-s-ghz": dict(type=float, default=1.0, unit="GHz"),
    "init-linewidth-ghz": dict(type=float, default=0.5, unit="GHz"),
    "intercept": dict(action="store_true"),
    "target": dict(type=float, required=True),
}
_OUTPUT = ["config", "out", "format"]
_PHYSICS = ["delta-ghz", "rabi-l-ghz", "rabi-s-ghz", "omega-s-ghz",
            "gamma-mhz", "diffusion-mhz", "etalon-mhz", "fsr-ghz"]
_SWEEP = ["sweep", "sweep-start", "sweep-stop", "sweep-points"]
_GRID = ["delta-start", "delta-stop", "delta-points",
         "rabi-start", "rabi-stop", "rabi-points"]
_MAP = ["nodes", "jobs", "tol"]
_SPECTRUM = ["window-ghz", "points", *_MAP]


def _emitter(args) -> EmitterParams:
    return EmitterParams.from_ghz(args.gamma_mhz / 1e3)


def _drive(args, delta=None, rabi_l=None) -> DriveConfig:
    return DriveConfig.from_ghz(
        args.delta_ghz if delta is None else delta,
        args.rabi_l_ghz if rabi_l is None else rabi_l,
        args.rabi_s_ghz, args.omega_s_ghz)


def _spectra(args, sweep) -> list:
    """spectrum_map of sweep on the --window-ghz, --points grid."""
    emitter = _emitter(args)
    instrument = InstrumentModel(Frequency.from_ghz(args.diffusion_mhz / 1e3),
                                 Frequency.from_ghz(args.etalon_mhz / 1e3),
                                 Frequency.from_ghz(args.fsr_ghz))
    freqs = np.linspace(Frequency.from_ghz(-args.window_ghz).rad,
                        Frequency.from_ghz(args.window_ghz).rad, args.points)
    return spectrum_map(sweep, emitter, freqs, instrument, args.nodes,
                        args.tol, jobs=args.jobs)


def _drive_sweep(args):
    """Swept values, their drive configs and the swept column's name.  The
    swept axis's own flag would set nothing, so it is rejected; the other
    drive flag takes its FLAGS default when not given."""
    swept, fixed = "rabi_l_ghz", "delta_ghz"
    if args.sweep == "delta":
        swept, fixed = fixed, swept
    if getattr(args, swept) is not None:
        raise ConfigError(f"--{swept.replace('_', '-')} is the swept axis of "
                          f"--sweep {args.sweep}; set --sweep-start and "
                          "--sweep-stop instead")
    if getattr(args, fixed) is None:
        setattr(args, fixed, FLAGS[fixed.replace("_", "-")]["default"])
    values = np.linspace(args.sweep_start, args.sweep_stop, args.sweep_points)
    if args.sweep == "rabi-l":
        return values, [_drive(args, rabi_l=v) for v in values], "rabiL_GHz"
    return values, [_drive(args, delta=v) for v in values], "delta_GHz"


def _spectrum_rows(spec: Spectrum, prefix=()) -> list:
    """(*prefix, offset in GHz, intensity per GHz) rows as Python floats."""
    return [(*prefix, f_ghz, inten) for f_ghz, inten in
            zip(spec.freqs_ghz.tolist(), (spec.intensity * GHZ).tolist())]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    (spec,) = _spectra(args, [_drive(args)])
    extra = {"rho_ee_bar": spec.meta.get("rho_ee_bar", math.nan),
             "coherent_total": spec.coherent_total}
    for f, w in zip(spec.coherent_freqs, spec.coherent_weights):
        extra[f"coherent_weight_at_{f / GHZ:+.6f}_GHz"] = w
    emit(_spectrum_rows(spec), ["freq_offset_GHz", "intensity"],
         args.out, args.format, _metadata(args, extra))
    return EXIT_OK


def cmd_spectrum_map(args):
    values, sweep, col = _drive_sweep(args)
    rows = [row for v, spec in zip(values, _spectra(args, sweep))
            for row in _spectrum_rows(spec, prefix=(v,))]
    emit(rows, [col, "freq_offset_GHz", "intensity"], args.out, args.format,
         _metadata(args))
    return EXIT_OK


def cmd_dressed_lines(args):
    values, sweep, col = _drive_sweep(args)
    rows = []
    for v, (_, lines) in zip(values, overlay_lines(sweep)):
        for line in lines:
            rows.append((v, line.group, line.branch, line.offset.ghz,
                         line.weight))
    emit(rows, [col, "group", "branch", "freq_offset_GHz", "weight"],
         args.out, args.format, _metadata(args))
    return EXIT_OK


def _grid(args):
    """The map grid in GHz and as Frequency axes."""
    deltas = np.linspace(args.delta_start, args.delta_stop, args.delta_points)
    rabis = np.linspace(args.rabi_start, args.rabi_stop, args.rabi_points)
    return deltas, rabis, ([Frequency.from_ghz(d) for d in deltas],
                           [Frequency.from_ghz(r) for r in rabis])


def _grid_rows(deltas, rabis, *fields):
    """(delta, rabi_L, values...) rows of [i_delta, j_rabi] maps, Rabi-major."""
    return [(d, r, *(f[i, j] for f in fields))
            for j, r in enumerate(rabis) for i, d in enumerate(deltas)]


def cmd_cooling_map(args):
    deltas_ghz, rabis_ghz, axes = _grid(args)
    # The grid sets delta and rabi_L of every drive built on this template.
    template = DriveConfig.from_ghz(0.0, 0.0, args.rabi_s_ghz, args.omega_s_ghz)
    cmap = cooling_map(*axes, _emitter(args), template,
                       diffusion_fwhm=Frequency.from_ghz(args.diffusion_mhz / 1e3),
                       n_nodes=args.nodes, floquet_tol=args.tol,
                       jobs=args.jobs)
    emit(_grid_rows(deltas_ghz, rabis_ghz, cmap.rate, cmap.rho_ee),
         ["delta_GHz", "rabiL_GHz", "rate_per_s", "rho_ee"],
         args.out, args.format, _metadata(args))
    return EXIT_OK


def cmd_lindblad_map(args):
    emitter = _emitter(args)
    deltas_ghz, rabis_ghz, axes = _grid(args)
    cavity = AcousticCavity(Frequency.from_ghz(args.omega_s_ghz), args.q,
                            Frequency.from_ghz(args.g0_mhz / 1e3))
    # The Liouvillian reads only the grid's delta and rabi_L of the drive.
    template = DriveConfig.from_ghz(0.0, 0.0, 0.0, args.omega_s_ghz)
    cfg = LindbladConfig(emitter, template, cavity, args.temp_k,
                         m_max=args.m_max)
    lmap = cooling_performance_map(
        *axes, cfg, diffusion_fwhm=Frequency.from_ghz(args.diffusion_mhz / 1e3),
        n_nodes=args.nodes, jobs=args.jobs)
    emit(_grid_rows(deltas_ghz, rabis_ghz, lmap.m_ss, lmap.cooling_C),
         ["delta_GHz", "rabiL_GHz", "m_ss", "cooling_C"],
         args.out, args.format,
         _metadata(args, {"m_th": cfg.m_th,
                          "worst_trace_error": lmap.worst_trace_error,
                          "worst_min_eigenvalue": lmap.worst_min_eigenvalue}))
    return EXIT_OK


def cmd_fit_absorption(args):
    data = load_two_column(args.data)
    # Data columns: detuning in GHz, counts.
    data = np.column_stack([data[:, 0] * GHZ, data[:, 1]])
    omega_s = Frequency.from_ghz(args.omega_s_ghz)
    init = AbsorptionModel(omega_s, Frequency.from_ghz(args.init_rabi_s_ghz),
                           Frequency.from_ghz(args.init_linewidth_ghz))
    report = fit_absorption(data, omega_s, init)
    if not report.converged:
        raise ConvergenceError(f"absorption fit did not converge: "
                               f"{report.message}", residual=report.residual_rms)
    emit(asdict(report), None, args.out, args.format, _metadata(args))
    return EXIT_OK


def cmd_fit_lorentzian(args):
    report = fit_lorentzian(load_two_column(args.data))
    if not report.converged:
        raise ConvergenceError(f"Lorentzian fit did not converge: "
                               f"{report.message}", residual=report.residual_rms)
    emit(asdict(report), None, args.out, args.format, _metadata(args))
    return EXIT_OK


def cmd_fit_linear(args):
    report = fit_linear_through_origin(load_two_column(args.data),
                                       intercept=args.intercept)
    emit(asdict(report), None, args.out, args.format, _metadata(args))
    return EXIT_OK


def cmd_background(args):
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        value, stderr = background_extrapolate(load_two_column(args.data),
                                               args.target)
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise ConfigError(f"--target must be a finite bias whose extrapolation "
                          f"is finite, got {args.target}")
    emit({"value": value, "stderr": stderr, "target": args.target}, None,
         args.out, args.format, _metadata(args))
    return EXIT_OK


def cmd_selftest(args):
    """Quick invariant suite; prints one line per check."""
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        if not ok:
            failures.append(name)

    m1 = thermal_occupation(Frequency.from_ghz(3.5299), 1.0)
    m2 = thermal_occupation(Frequency.from_ghz(3.5299), 0.1)
    check("thermal occupation (1 K, 0.1 K)",
          abs(m1 - 5.4) < 0.1 and abs(m2 - 0.2) < 0.05,
          f"m_th = {m1:.3f}, {m2:.3f}")

    rng = np.random.default_rng(20260808)
    worst_sum = worst_id = 0.0
    for _ in range(200):
        tl, ts = rng.uniform(0.0, math.pi / 2, 2)
        rows = table_from_angles(tl, ts, 1.0, 0.3)
        worst_sum = max(worst_sum,
                        abs(sum(r.dipole_weight for r in rows) - 1.0))
        total = sum(r.delta_n_phonon * r.dipole_weight for r in rows)
        part = 2.0 * sum(r.delta_n_phonon * r.dipole_weight
                         for r in rows if r.index in (1, 4, 9, 12))
        worst_id = max(worst_id, abs(total - part))
    check("transition weights sum to 1", worst_sum < 1e-12, f"{worst_sum:.2e}")
    check("sideband-pair identity", worst_id < 1e-12, f"{worst_id:.2e}")

    emitter = EmitterParams.from_ghz(DEVICE_GAMMA_GHZ)
    drive = DriveConfig.from_ghz(0.0, 3.5299, 1.75, DEVICE_OMEGA_S_GHZ)
    gen = BlochGenerator(drive, emitter)
    fs = floquet_steady_state(gen)
    traj = propagate(gen, BlochState.ground(), 0.0, 40.0 / emitter.gamma.rad,
                     tol=1e-10)
    dev = np.max(np.abs(traj.values[-1] - fs.evaluate(traj.times[-1])))
    check("Floquet limit cycle matches direct integration", dev < 1e-6,
          f"max dev {dev:.2e}")

    eigs = np.linalg.eigvals(monodromy(gen))
    check("monodromy strictly stable", np.max(np.abs(eigs)) < 1.0,
          f"spectral radius {np.max(np.abs(eigs)):.6f}")

    worst_rate = 0.0
    for _ in range(200):
        d = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
        cfg = DriveConfig.from_ghz(d, rng.uniform(0.1, 6.0),
                                   rng.uniform(0.05, 3.0), rng.uniform(1.0, 6.0))
        a = cooling_rate_closed_form(cfg, emitter, 0.25)
        b = cooling_rate_from_table(cfg, emitter, 0.25)
        worst_rate = max(worst_rate,
                         abs(a - b) / max(abs(a), abs(b), 1e-300))
    check("closed-form rate equals table sum", worst_rate < 1e-10,
          f"{worst_rate:.2e}")

    cavity = AcousticCavity(Frequency.from_ghz(DEVICE_OMEGA_S_GHZ),
                            DEVICE_Q_FACTOR, Frequency.from_ghz(DEVICE_G0_GHZ))
    red, off = (LindbladConfig(emitter, DriveConfig.from_ghz(
        -2.9, rabi_l, 0.0, DEVICE_OMEGA_S_GHZ), cavity, 0.1)
        for rabi_l in (2.0, 0.0))
    band, dev = band_deviation(red, 10)
    check("Lindblad band solve equals full Liouvillian (m_max = 10)",
          dev < 1e-10, f"K = {band}, |dm_ss|/m_th = {dev:.1e}")
    dev = abs(lindblad_steady_state(off).cooling_C)  # |m_ss - m_th| / m_th
    check("laser-off Lindblad state is thermal (0.1 K)", dev < 1e-6,
          f"|m_ss - m_th|/m_th = {dev:.1e}")

    if failures:
        raise ConvergenceError(f"selftest failed: {', '.join(failures)}",
                               residual=float("nan"))
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Each command: its function, its help, the flags it takes in help order,
# and by flag name its own defaults, or argparse keywords as a dict.  A
# sweep command tells a given drive flag from an absent one (_drive_sweep).
_UNSET_DRIVE = {"delta-ghz": None, "rabi-l-ghz": None}
COMMANDS = {
    "spectrum": (cmd_spectrum, "one emission spectrum",
                 [*_OUTPUT, *_PHYSICS, *_SPECTRUM],
                 {"nodes": 21, "tol": 1e-10}),
    "spectrum-map": (cmd_spectrum_map, "spectra over a drive sweep",
                     [*_OUTPUT, *_PHYSICS, *_SWEEP, *_SPECTRUM],
                     {**_UNSET_DRIVE, "sweep-points": 11, "nodes": 21,
                      "tol": 1e-10}),
    "dressed-lines": (cmd_dressed_lines, "predicted line table",
                      [*_OUTPUT, *_PHYSICS[:4], *_SWEEP],
                      {**_UNSET_DRIVE, "sweep-points": 21}),
    "cooling-map": (cmd_cooling_map, "closed-form phonon rate map",
                    [*_OUTPUT, *_PHYSICS[2:6], *_GRID, *_MAP],
                    {"diffusion-mhz": DEVICE_DIFFUSION_GHZ * 1e3,
                     "rabi-start": 0.5, "rabi-stop": 5.5, "delta-points": 41,
                     "rabi-points": 41, "nodes": 9, "tol": 1e-9}),
    "lindblad-map": (cmd_lindblad_map, "quantized cooling performance map",
                     [*_OUTPUT, *_PHYSICS[3:6], "temp-k", "g0-mhz", "q",
                      "m-max", *_GRID, *_MAP[:2]],
                     {"diffusion-mhz": DEVICE_DIFFUSION_GHZ * 1e3,
                      "rabi-start": 0.25, "rabi-stop": 5.25, "delta-points": 21,
                      "rabi-points": 21, "nodes": 5}),
    "fit-absorption": (cmd_fit_absorption, "fit sideband absorption data",
                       [*_OUTPUT, "data", "omega-s-ghz", "init-rabi-s-ghz",
                        "init-linewidth-ghz"],
                       {"data": {"help": "two-column file: detuning_GHz, "
                                         "counts"}}),
    "fit-lorentzian": (cmd_fit_lorentzian, "fit a Lorentzian resonance",
                       [*_OUTPUT, "data"], {}),
    "fit-linear": (cmd_fit_linear, "linear calibration slope",
                   [*_OUTPUT, "data", "intercept"], {}),
    "background": (cmd_background, "quadratic background extrapolation",
                   [*_OUTPUT, "data", "target"],
                   {"data": {"help": "two-column file: bias_V, counts"}}),
    "selftest": (cmd_selftest, "run the quick invariant suite", [], {}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given one, only its flags are added."""
    parser = argparse.ArgumentParser(
        prog="sawmollow",
        description=("Resonance fluorescence, dressed-state lines, and "
                     "phonon cooling of an acoustically modulated two-level "
                     "emitter"), allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, own) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(func=func)
        for flag in flags if command in (None, name) else ():
            kw = {k: v for k, v in FLAGS[flag].items()
                  if k not in ("unit", "above")}
            value = own.get(flag, {})
            kw.update(value if isinstance(value, dict) else {"default": value})
            p.add_argument(f"--{flag}", **kw)
    return parser


def _with_config(argv: list) -> list:
    """argv with the `key = value` lines of the command's --config file
    inserted as --key=value flags right after the command, so that argparse
    converts and checks them as flags and the command line wins."""
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("command", nargs="?")
    # nargs="?": build_parser's parser reports a missing value, with usage.
    probe.add_argument("--config", nargs="?")
    known, _ = probe.parse_known_args(argv)
    takes = COMMANDS[known.command][2] if known.command in COMMANDS else []
    if not known.config or "config" not in takes:
        return argv
    values = {}
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                key, eq, value = raw.split("#", 1)[0].partition("=")
                if eq:
                    values[key.strip().replace("_", "-")] = value.strip()
                elif key.strip():
                    raise ConfigError(
                        f"{known.config}:{lineno}: expected key = value")
    except OSError as exc:
        raise ConfigError(f"cannot read config {known.config}: {exc}") from exc
    unknown = sorted(k.replace("-", "_") for k in values
                     if k not in takes or k == "config")
    if unknown:
        raise ConfigError(f"{known.config}: {known.command} does not take "
                          f"{', '.join(unknown)}")
    flags = []
    for key, value in values.items():
        if FLAGS[key].get("action") != "store_true":
            flags.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no"):
            raise ConfigError(f"config value {key} = {value!r}: not a boolean")
    at = argv.index(known.command) + 1
    return [*argv[:at], *flags, *argv[at:]]


def _check_flags(args) -> None:
    """Every frequency flag's value must be finite and every count or window
    above its floor; an error names the flag."""
    for dest, value in vars(args).items():
        flag = dest.replace("_", "-")
        unit, above = (FLAGS.get(flag, {}).get(k) for k in ("unit", "above"))
        if unit and value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag} must be a finite frequency in {unit}, "
                              f"got {value}")
        if above is not None and value is not None and not value > above:
            raise ConfigError(f"--{flag} must be above {above}, got {value}")


def _report(kind: str, exc: BaseException) -> None:
    """Print an error, then each note attached to it on its own line."""
    print(f"{kind}: {exc}", *getattr(exc, "__notes__", ()), sep="\n",
          file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(_with_config(argv))
        _check_flags(args)
        if "out" in args and not args.out:
            raise ConfigError("--out is required for this command")
        return args.func(args)
    except (ConvergenceError, IntegrationError, DegenerateSystemError) as exc:
        _report("numerical error", exc)
        return EXIT_NUMERICS
    except (ConfigError, DomainError, ValueError) as exc:
        _report("config error", exc)
        return EXIT_CONFIG
    except OSError as exc:
        _report("i/o error", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
