"""Command-line front end.

Subcommands: pmm, spectrum, density, dyson, validate, reproduce-figure.
Every run loads one scenario config (default: the bundled pentacene
two-state scenario), logs the derived beat period and mean wave-packet
energy (map and spectrum runs also the channel table of their first
result), and writes deterministic text artifacts to --out. The figure
targets of reproduce-figure write through the same loops as pmm, spectrum
and density.

Time-valued options accept either numbers (fs) or tokens in units of the
wave-packet beat period T, e.g. "T/4", "3T/4", "0.5T".
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import density as density_mod
from . import io as io_mod
from . import signal as signal_mod
from .algebra import PRUNE_THRESHOLD, AlgebraError, dyson_matrices
from .model import SPIN_NAMES, ModelError, offset_label
from .momentum import _SAMPLE_BLOCK, MomentumError

log = logging.getLogger("attopmm.cli")

_HANDLED = (io_mod.ConfigError, io_mod.TableFormatError, io_mod.CubeFormatError,
            io_mod.ExportFormatError, signal_mod.SignalError, ModelError,
            AlgebraError, MomentumError, density_mod.DensityError, OSError)

_PERIOD_TOKEN = re.compile(
    r"^(?P<coef>\d+(?:\.\d*)?)?\s*T(?:\s*/\s*(?P<div>\d+(?:\.\d*)?))?$")


def parse_time_token(token, period_fs):
    """Number in fs, or multiples of the beat period: 'T', 'T/4', '3T/4',
    '0.5T', '3T/8'."""
    text = str(token).strip()
    match = _PERIOD_TOKEN.match(text)
    if match and period_fs is None:
        raise io_mod.ConfigError(
            f"time {token!r} references the beat period, but the wave packet "
            "has a single member")
    try:
        if match:
            value = float(match.group("coef") or 1) * period_fs / float(match.group("div") or 1)
        else:
            value = float(text)
    except ValueError:
        raise io_mod.ConfigError(
            f"cannot parse time {token!r} (expected fs number or e.g. 'T/4')") from None
    except ZeroDivisionError:
        raise io_mod.ConfigError(f"time {token!r} divides the beat period by zero") from None
    if not math.isfinite(value):
        raise io_mod.ConfigError(f"time {token!r} is not finite")
    return value


def time_label(token):
    """Filename-safe tag for a time token: 'T/4' -> 'T4', 1.25 -> '1.25'."""
    text = str(token).strip().replace(" ", "")
    try:
        return "%g" % float(text)
    except ValueError:
        return text.replace("/", "").replace("*", "x")


def _add_common(sp):
    sp.add_argument("--config", type=Path, default=None,
                    help="scenario config (default: bundled pentacene)")
    sp.add_argument("--out", type=Path, default=Path("attopmm-out"),
                    help="output directory")
    sp.add_argument("--threads", default=1,
                    help="accepted for compatibility; grids are evaluated on one "
                         "thread in fixed sample blocks, so results never depend on N")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attopmm",
        description="Attosecond photoemission observables for a coherent "
                    "two-state molecular wave packet.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("pmm", help="constant-energy photoelectron momentum maps")
    _add_common(sp)
    sp.add_argument("--tp", nargs="+", default=["0"], metavar="T_P",
                    help="probe arrival times (fs or T-tokens)")
    sp.add_argument("--energy", nargs="+", type=float, default=None,
                    help="photoelectron energies (eV)")
    sp.add_argument("--tau", default=None, help="pulse FWHM (fs or T-token)")
    sp.add_argument("--grid", default=None, help="raster points per axis")
    sp.add_argument("--qmax", type=float, default=None,
                    help="raster half-width (1/Angstrom)")
    sp.add_argument("--mode", choices=("short", "long"), default="short",
                    help="sudden-limit or finite-duration pipeline")
    sp.add_argument("--average", type=float, default=None, metavar="WIDTH_EV",
                    help="average maps over an energy window of this width")
    sp.add_argument("--average-samples", default=None)

    sp = sub.add_parser("spectrum", help="angle-integrated photoelectron spectra")
    _add_common(sp)
    sp.add_argument("--tp", nargs="+", default=["0"])
    sp.add_argument("--energy", nargs="+", type=float, default=None,
                    help="explicit energy samples (eV); overrides --window")
    sp.add_argument("--window", nargs=3, type=float, default=None,
                    metavar=("LO", "HI", "N"), help="energy window (eV, eV, points)")
    sp.add_argument("--tau", default=None)
    sp.add_argument("--mode", choices=("short", "long"), default="short")
    sp.add_argument("--states", choices=("excited", "s0", "both"), default="both",
                    help="which initial-state scenario(s) to compute")

    sp = sub.add_parser("density", help="electron-density-change cube files")
    _add_common(sp)
    sp.add_argument("--tp", nargs="+", default=None,
                    help="times (fs or T-tokens); default from config")
    sp.add_argument("--spacing", type=float, default=None, help="voxel edge (Angstrom)")
    sp.add_argument("--padding", type=float, default=None,
                    help="box padding beyond the molecule (Angstrom)")

    sp = sub.add_parser("dyson", help="print assembled Dyson coefficients")
    _add_common(sp)
    sp.add_argument("--final", required=True, help="final-state index")
    sp.add_argument("--tp", default="0", help="probe time (fs or T-token)")

    sp = sub.add_parser("validate", help="validate config and print derived quantities")
    _add_common(sp)

    sp = sub.add_parser("reproduce-figure", help="write one figure's data artifacts")
    _add_common(sp)
    sp.add_argument("target", choices=("fig2", "fig3", "fig4", "fig5", "fig6"))
    sp.add_argument("--tp", nargs="+", default=None, help="override probe times")
    sp.add_argument("--energy", nargs="+", type=float, default=None)
    sp.add_argument("--tau", nargs="+", default=None,
                    help="override pulse durations (fig6 rows)")
    sp.add_argument("--grid", default=None)
    for p in (parser, *sub.choices.values()):   # read '-1e308', '-inf' as values
        p._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _load(args):
    config = args.config if args.config is not None else io_mod.default_scenario_path()
    return io_mod.load_scenario(config)


def _describe(scenario, emit):
    """Scenario summary, one emit(line) call per line."""
    wp = scenario.wave_packet
    pulse = scenario.pulse
    emit(f"scenario: {scenario.name}")
    emit(f"config digest: {scenario.digest}")
    if scenario.period_fs is not None:
        emit(f"beat period T = {scenario.period_fs:.6f} fs")
    emit(f"mean wave-packet energy <E> = {wp.mean_energy_ev:.6f} eV")
    pol = " ".join("%g" % v for v in pulse.polarization)
    emit(f"pulse: omega_in = {pulse.photon_energy_ev:g} eV, "
         f"tau = {pulse.duration_fwhm_fs:g} fs, polarization = [{pol}]")


def _channel_table(scenario, records, emit):
    """Channel table from signal.channel_records dicts (a map's or spectrum's
    "channels" metadata), one emit(line) call per line."""
    stated = {row.index: row.center_ev for row in scenario.table_rows}
    emit("F  E_F(eV)  center(eV)  stated(eV)  time-dep  |dyson|")
    for rec in records:
        given = stated.get(rec["index"])
        given_txt = f"{given:10.3f}" if given is not None else "         -"
        emit(f"{rec['index']:<2d} {rec['final_energy_ev']:7.3f}  {rec['omega_ev']:10.3f} "
             f"{given_txt}  {'yes' if rec['time_dependent'] else 'no ':<8s} "
             f"{rec['dyson_norm']:.6f}")


def _resolve_times(tokens, period_fs):
    return [(tok, parse_time_token(tok, period_fs)) for tok in tokens]


def _with_tau(pulse, tau_token, period_fs):
    if tau_token is None:
        return pulse
    return replace(pulse, duration_fwhm_fs=parse_time_token(tau_token, period_fs))


def _default(value, fallback):
    return fallback if value is None else value


def _write_maps(scenario, out, rows, tokens, resolution, q_max=None,
                mode="short", average=None):
    """One map file per (row, delay), one signal call per run of rows that
    share an energy (and so one raster's transforms, as fig6's durations);
    every row's energies, down to the lowest averaged one, are checked first.

    rows: (file tag, energy eV, pulse); average: (width eV, samples) for
    energy-averaged maps, None for plain cuts.
    """
    times = _resolve_times(tokens, scenario.period_fs)
    delays = [t for _, t in times]
    wp, finals, mos = scenario.wave_packet, scenario.finals, scenario.mos
    signal_mod.photoelectron_energies([energy for _, energy, _ in rows])
    groups = [list(group) for _, group in groupby(rows, key=lambda row: row[1])]
    n_pulses = max(map(len, groups))
    ceiling = io_mod._MAX_MAP_BYTES
    # per pulse of a group: its maps at all delays and one block's kernel
    n, block = resolution ** 2, min(resolution ** 2, max(resolution, _SAMPLE_BLOCK))
    size = n_pulses * (8 * len(delays) * n + 16 * wp.n_members ** 2 * block)
    if size > ceiling:
        raise io_mod.ConfigError(f"--grid: {resolution}^2 samples need {size:.3g} bytes, "
                                 f"more than {ceiling}")
    if average is not None:
        # per averaged energy: a row of the folded kernel's two (E, block)
        # tables and each pulse's (F, M, M) pair weights
        size = 8 * average[1] * max(2 * block, n_pulses * len(finals) * wp.n_members ** 2)
        if size > ceiling:
            raise io_mod.ConfigError(f"average samples: {average[1]} energies need "
                                     f"{size:.3g} bytes, more than {ceiling}")
        for _, energy, _ in rows:
            signal_mod.average_energies(energy, *average)
    written = []
    for group in groups:
        energy, pulses = group[0][1], [pulse for _, _, pulse in group]
        if average is None:
            results = signal_mod.pmm_cut(energy, delays, pulses, wp, finals, mos,
                                         resolution, q_max, mode)
        else:
            results = signal_mod.energy_average_pmm(
                energy, average[0], average[1], delays, pulses, wp, finals, mos,
                resolution, q_max, mode)
        if not written:
            _channel_table(scenario, results[0][0].metadata["channels"], log.info)
            out.mkdir(parents=True, exist_ok=True)
        written += [io_mod.export_pmm(out / f"pmm_{tag}_tp{time_label(token)}.dat", pmm,
                                      digest=scenario.digest)
                    for (tag, _, _), maps in zip(group, results)
                    for (token, _), pmm in zip(times, maps)]
        del results        # written: the next group's kernel runs without them
    return written


def _write_spectra(scenario, out, names, tokens, energies, pulse, mode, states):
    """One spectra file per delay (names[k] for tokens[k]), one column per
    requested initial state, one signal call per state."""
    delays = [t for _, t in _resolve_times(tokens, scenario.period_fs)]
    columns = []
    if states in ("excited", "both"):
        columns.append(signal_mod.angle_integrated_spectrum(
            energies, delays, pulse, scenario.wave_packet, scenario.finals,
            scenario.mos, mode=mode, scenario="excited"))
    if states in ("s0", "both"):
        wp0, finals0 = scenario.ground_state()
        columns.append(signal_mod.angle_integrated_spectrum(
            energies, delays, pulse, wp0, finals0, scenario.mos, mode=mode,
            scenario="s0"))
    _channel_table(scenario, columns[0][0].metadata["channels"], log.info)
    out.mkdir(parents=True, exist_ok=True)
    return [io_mod.export_spectra(out / name, [column[k] for column in columns],
                                  digest=scenario.digest)
            for k, name in enumerate(names)]


def _write_density(scenario, out, tokens, padding, spacing):
    """One cube per time; the frames share one orbital evaluation, a planar one is never 3-D."""
    times = _resolve_times(tokens, scenario.period_fs)
    grid = density_mod.default_density_grid(scenario.mos, padding, spacing)
    frames = density_mod.density_timeseries(
        scenario.wave_packet, scenario.mos, grid, [t for _, t in times])
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for (token, _), frame in zip(times, frames):
        written.append(io_mod.export_density(
            out / f"density_tp{time_label(token)}.cube", frame,
            atoms=scenario.atoms, digest=scenario.digest))
        log.info("t = %s: charge gained %.3e e, lost %.3e e (net %.1e)",
                 token, frame.charge_gained, frame.charge_lost, frame.net_charge)
    return written


def cmd_pmm(args, scenario):
    outputs = scenario.outputs
    pulse = _with_tau(scenario.pulse, args.tau, scenario.period_fs)
    energies = _default(args.energy, outputs["map_energies_ev"])
    average = None
    if args.average is not None:
        average = (args.average,
                   _default(args.average_samples, outputs["average_samples"]))
    return _write_maps(
        scenario, args.out, [(f"e{e:g}", e, pulse) for e in energies], args.tp,
        _default(args.grid, outputs["map_resolution"]), args.qmax, args.mode,
        average)


def _spectrum_energies(args, scenario):
    """Sorted --energy values, else the --window (or config) grid: its bounds
    fail as photoelectron energies (SignalError), its shape as a ConfigError."""
    if args.energy:
        return np.asarray(sorted(float(e) for e in args.energy))
    window = args.window or scenario.outputs["spectrum_window_ev"]
    signal_mod.photoelectron_energies(window[:2])
    return io_mod.window_energies(window, "--window")


def cmd_spectrum(args, scenario):
    pulse = _with_tau(scenario.pulse, args.tau, scenario.period_fs)
    names = [f"spectrum_tp{time_label(tok)}.dat" for tok in args.tp]
    return _write_spectra(scenario, args.out, names, args.tp,
                          _spectrum_energies(args, scenario), pulse, args.mode,
                          args.states)


def cmd_density(args, scenario):
    outputs = scenario.outputs
    return _write_density(
        scenario, args.out, _default(args.tp, outputs["density_times"]),
        _default(args.padding, outputs["density_padding_angstrom"]),
        _default(args.spacing, outputs["density_spacing_angstrom"]))


# the options each figure target reads, and the one of them (if any) that
# takes a single value
_FIGURE_OPTIONS = {
    "fig2": (("tp",), None),
    "fig3": (("tp",), "tp"),
    "fig4": (("tp", "energy", "grid"), None),
    "fig5": (("tp", "energy", "grid"), None),
    "fig6": (("tp", "energy", "tau", "grid"), "energy"),
}


def cmd_reproduce(args, scenario):
    reads, single = _FIGURE_OPTIONS[args.target]
    for name in ("tp", "energy", "tau", "grid"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in reads:
            raise io_mod.ConfigError(f"--{name}: not read by {args.target}")
        if name == single and len(value) > 1:
            raise io_mod.ConfigError(
                f"--{name}: {args.target} takes one value, got {len(value)}")
    outputs = scenario.outputs
    out = args.out / args.target
    tokens = args.tp or ["0", "T/4", "T/2", "3T/4"]
    resolution = _default(args.grid, outputs["map_resolution"])
    if args.target == "fig2":
        return _write_density(scenario, out, tokens,
                              outputs["density_padding_angstrom"],
                              outputs["density_spacing_angstrom"])
    if args.target == "fig3":
        return _write_spectra(scenario, out, ["spectra.dat"], args.tp or ["0"],
                              io_mod.window_energies(outputs["spectrum_window_ev"],
                                                     "outputs.spectrum_window_ev"),
                              scenario.pulse, "short", "both")
    if args.target == "fig6":
        energy = float(_default(args.energy, [99.0])[0])
        rows = [(f"tau{time_label(tau)}", energy,
                 _with_tau(scenario.pulse, tau, scenario.period_fs))
                for tau in args.tau or ["0.5", "T/4", "T/2"]]
        return _write_maps(scenario, out, rows, tokens, resolution, mode="long",
                           average=(outputs["average_width_ev"],
                                    outputs["average_samples"]))
    default = [99.0] if args.target == "fig4" else [90.0, 93.0, 96.0, 99.0]
    rows = [(f"e{e:g}", float(e), scenario.pulse)
            for e in _default(args.energy, default)]
    return _write_maps(scenario, out, rows, tokens, resolution)


def cmd_dyson(args, scenario):
    t_fs = parse_time_token(args.tp, scenario.period_fs)
    match = [s for i, s in scenario.finals if i == args.final]
    if not match:
        raise signal_mod.SignalError(
            f"no final state with index {args.final} in the table")
    wp = scenario.wave_packet
    z, = wp.phases([t_fs])
    if not np.all(np.isfinite(z)):
        raise signal_mod.SignalError("probe delay gives a non-finite wave-packet phase")
    offsets, dyson = dyson_matrices(match, wp)
    coeffs = np.einsum("i,sip->ps", z, dyson[0])
    print(f"final state {args.final} at t_p = {t_fs:.6f} fs")
    for (k, spin), c in np.ndenumerate(coeffs):
        if abs(c) >= PRUNE_THRESHOLD:
            print(f"orbital {offset_label(offsets[k]):<5s} spin {SPIN_NAMES[spin]:<4s} "
                  f"|c| = {abs(c):.12e}")
    print(f"norm = {np.linalg.norm(coeffs):.12e}")


# artifact writers: each returns the paths it wrote
_WRITERS = {
    "pmm": cmd_pmm,
    "spectrum": cmd_spectrum,
    "density": cmd_density,
    "reproduce-figure": cmd_reproduce,
}


def _dispatch(args):
    """Load the scenario; validate prints its summary and channel table,
    dyson prints coefficients, every other command logs the summary, writes
    its artifacts and prints their paths."""
    for name in ("grid", "average_samples", "final", "threads"):   # argparse left text
        text = getattr(args, name, None)
        try:
            setattr(args, name, None if text is None else int(text))
        except ValueError:
            raise io_mod.ConfigError(f"--{name.replace('_', '-')}: expected an "
                                     f"integer, got {text!r}") from None
    if args.threads < 1:
        raise io_mod.ConfigError(f"--threads: expected an integer >= 1, got {args.threads}")
    scenario = _load(args)
    if args.command == "validate":
        _describe(scenario, print)
        channels = signal_mod.build_channels(scenario.wave_packet, scenario.finals,
                                             scenario.pulse)
        _channel_table(scenario, signal_mod.channel_records(channels), print)
    elif args.command == "dyson":
        cmd_dyson(args, scenario)
    else:
        _describe(scenario, log.info)
        for path in _WRITERS[args.command](args, scenario):
            print(path)
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except _HANDLED as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
