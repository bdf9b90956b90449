"""Command-line front end.

Subcommands: pmm, spectrum, density, dyson, validate, reproduce-figure.
Every run loads one scenario config (default: the bundled pentacene
two-state scenario), logs the derived beat period, mean wave-packet energy
and channel table, and writes deterministic text artifacts to --out.

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
from pathlib import Path

import numpy as np

from . import density as density_mod
from . import io as io_mod
from . import signal as signal_mod
from .algebra import AlgebraError, assemble_dyson
from .model import DOWN, UP, ModelError, offset_label
from .momentum import MomentumError

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
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise io_mod.ConfigError(f"time {token!r} is not finite")
        return value
    match = _PERIOD_TOKEN.match(text)
    if not match:
        raise io_mod.ConfigError(
            f"cannot parse time {token!r} (expected fs number or e.g. 'T/4')")
    if period_fs is None:
        raise io_mod.ConfigError(
            f"time {token!r} references the beat period, but the wave packet "
            "has a single member")
    coef = float(match.group("coef")) if match.group("coef") else 1.0
    div = float(match.group("div")) if match.group("div") else 1.0
    return coef * period_fs / div


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
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; grids are evaluated on one "
                         "thread in fixed sample blocks, so results never depend on N")
    sp.add_argument("--validate", action="store_true",
                    help="validate the config, print derived quantities, exit")


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
    sp.add_argument("--grid", type=int, default=None, help="raster points per axis")
    sp.add_argument("--qmax", type=float, default=None,
                    help="raster half-width (1/Angstrom)")
    sp.add_argument("--mode", choices=("short", "long"), default="short",
                    help="sudden-limit or finite-duration pipeline")
    sp.add_argument("--average", type=float, default=None, metavar="WIDTH_EV",
                    help="average maps over an energy window of this width")
    sp.add_argument("--average-samples", type=int, default=None)

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
    sp.add_argument("--final", type=int, required=True, help="final-state index")
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
    sp.add_argument("--grid", type=int, default=None)
    return parser


def _load(args):
    config = args.config if args.config is not None else io_mod.default_scenario_path()
    return io_mod.load_scenario(config)


def _describe(scenario, stream=None):
    # late binding keeps output redirectable after import
    stream = stream if stream is not None else sys.stdout
    wp = scenario.wave_packet
    pulse = scenario.pulse
    period = scenario.period_fs
    print(f"scenario: {scenario.name}", file=stream)
    print(f"config digest: {scenario.digest}", file=stream)
    if period is not None:
        print(f"beat period T = {period:.6f} fs", file=stream)
    print(f"mean wave-packet energy <E> = {wp.mean_energy_ev:.6f} eV", file=stream)
    pol = " ".join("%g" % v for v in pulse.polarization)
    print(f"pulse: omega_in = {pulse.photon_energy_ev:g} eV, "
          f"tau = {pulse.duration_fwhm_fs:g} fs, polarization = [{pol}]",
          file=stream)
    channels = signal_mod.build_channels(wp, scenario.finals, pulse)
    stated = {row.index: row.center_ev for row in scenario.table_rows}
    print("F  E_F(eV)  center(eV)  stated(eV)  time-dep  |dyson|", file=stream)
    for ch in channels:
        given = stated.get(ch.index)
        given_txt = f"{given:10.3f}" if given is not None else "         -"
        print(f"{ch.index:<2d} {ch.final_energy_ev:7.3f}  {ch.omega_ev:10.3f} "
              f"{given_txt}  {'yes' if ch.time_dependent else 'no ':<8s} "
              f"{ch.dyson.norm():.6f}", file=stream)


def _log_run(scenario):
    wp = scenario.wave_packet
    log.info("scenario %s (digest %s)", scenario.name, scenario.digest[:12])
    log.info("mean wave-packet energy <E> = %.6f eV", wp.mean_energy_ev)
    if scenario.period_fs is not None:
        log.info("beat period T = %.6f fs", scenario.period_fs)
    channels = signal_mod.build_channels(wp, scenario.finals, scenario.pulse)
    for ch in channels:
        log.info("channel F=%d: E_F=%.3f eV, center=%.3f eV, time-dependent=%s",
                 ch.index, ch.final_energy_ev, ch.omega_ev, ch.time_dependent)


def _resolve_times(tokens, period_fs):
    return [(tok, parse_time_token(tok, period_fs)) for tok in tokens]


def _with_tau(pulse, tau_token, period_fs):
    if tau_token is None:
        return pulse
    return replace(pulse, duration_fwhm_fs=parse_time_token(tau_token, period_fs))


def cmd_pmm(args):
    scenario = _load(args)
    if args.validate:
        _describe(scenario)
        return 0
    _log_run(scenario)
    pulse = _with_tau(scenario.pulse, args.tau, scenario.period_fs)
    energies = args.energy or scenario.outputs["map_energies_ev"]
    resolution = args.grid or scenario.outputs["map_resolution"]
    times = _resolve_times(args.tp, scenario.period_fs)
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    for energy in energies:
        for token, t_fs in times:
            if args.average:
                n_avg = args.average_samples or scenario.outputs["average_samples"]
                pmm = signal_mod.energy_average_pmm(
                    energy, args.average, n_avg, t_fs, pulse,
                    scenario.wave_packet, scenario.finals, scenario.mos,
                    resolution, args.qmax, args.mode)
            else:
                pmm = signal_mod.pmm_cut(
                    energy, t_fs, pulse, scenario.wave_packet, scenario.finals,
                    scenario.mos, resolution, args.qmax, args.mode)
            name = f"pmm_e{energy:g}_tp{time_label(token)}.dat"
            written.append(io_mod.export_pmm(args.out / name, pmm,
                                             digest=scenario.digest))
    for path in written:
        print(path)
    return 0


def _spectrum_energies(args, scenario):
    if args.energy:
        return np.asarray(sorted(float(e) for e in args.energy))
    window = args.window or scenario.outputs["spectrum_window_ev"]
    lo, hi, n = float(window[0]), float(window[1]), int(window[2])
    return np.linspace(lo, hi, n)


def cmd_spectrum(args):
    scenario = _load(args)
    if args.validate:
        _describe(scenario)
        return 0
    _log_run(scenario)
    pulse = _with_tau(scenario.pulse, args.tau, scenario.period_fs)
    energies = _spectrum_energies(args, scenario)
    times = _resolve_times(args.tp, scenario.period_fs)
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    for token, t_fs in times:
        spectra = []
        if args.states in ("excited", "both"):
            spectra.append(signal_mod.angle_integrated_spectrum(
                energies, t_fs, pulse, scenario.wave_packet, scenario.finals,
                scenario.mos, mode=args.mode, scenario="excited"))
        if args.states in ("s0", "both"):
            wp0, finals0 = scenario.ground_state()
            spectra.append(signal_mod.angle_integrated_spectrum(
                energies, t_fs, pulse, wp0, finals0, scenario.mos,
                mode=args.mode, scenario="s0"))
        for s in spectra:
            s.metadata["t_p_fs"] = t_fs
        name = f"spectrum_tp{time_label(token)}.dat"
        written.append(io_mod.export_spectra(args.out / name, spectra,
                                             digest=scenario.digest))
    for path in written:
        print(path)
    return 0


def cmd_density(args, out_subdir=None):
    scenario = _load(args)
    if args.validate:
        _describe(scenario)
        return 0
    _log_run(scenario)
    tokens = args.tp or scenario.outputs["density_times"]
    times = _resolve_times(tokens, scenario.period_fs)
    spacing = args.spacing or scenario.outputs["density_spacing_angstrom"]
    padding = args.padding or scenario.outputs["density_padding_angstrom"]
    out = args.out if out_subdir is None else args.out / out_subdir
    out.mkdir(parents=True, exist_ok=True)
    grid = density_mod.default_density_grid(scenario.mos, padding, spacing)
    frames = density_mod.density_timeseries(
        scenario.wave_packet, scenario.mos, grid, [t for _, t in times])
    written = []
    for (token, _), frame in zip(times, frames):
        name = f"density_tp{time_label(token)}.cube"
        written.append(io_mod.export_density(out / name, frame,
                                             digest=scenario.digest))
        log.info("t = %s: charge gained %.3e e, lost %.3e e (net %.1e)",
                 token, frame.charge_gained, frame.charge_lost, frame.net_charge)
    for path in written:
        print(path)
    return 0


def cmd_dyson(args):
    scenario = _load(args)
    if args.validate:
        _describe(scenario)
        return 0
    t_fs = parse_time_token(args.tp, scenario.period_fs)
    match = [s for i, s in scenario.finals if i == args.final]
    if not match:
        raise signal_mod.SignalError(
            f"no final state with index {args.final} in the table")
    dyson = assemble_dyson(match[0], scenario.wave_packet, t_fs,
                           final_index=args.final)
    print(f"final state {args.final} at t_p = {t_fs:.6f} fs")
    spin_name = {UP: "up", DOWN: "down"}
    for coeff, orb, spin in dyson.terms:
        print(f"orbital {offset_label(orb):<5s} spin {spin_name[spin]:<4s} "
              f"|c| = {abs(coeff):.12e}")
    print(f"norm = {dyson.norm():.12e}")
    return 0


def cmd_validate(args):
    scenario = _load(args)
    _describe(scenario)
    return 0


def cmd_reproduce(args):
    scenario = _load(args)
    if args.validate:
        _describe(scenario)
        return 0
    _log_run(scenario)
    period = scenario.period_fs
    quarter_times = ["0", "T/4", "T/2", "3T/4"]
    out = args.out / args.target
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if args.target == "fig2":
        tokens = args.tp or quarter_times
        times = _resolve_times(tokens, period)
        grid = density_mod.default_density_grid(
            scenario.mos, scenario.outputs["density_padding_angstrom"],
            scenario.outputs["density_spacing_angstrom"])
        frames = density_mod.density_timeseries(
            scenario.wave_packet, scenario.mos, grid, [t for _, t in times])
        for (token, _), frame in zip(times, frames):
            written.append(io_mod.export_density(
                out / f"density_tp{time_label(token)}.cube", frame,
                digest=scenario.digest))
    elif args.target == "fig3":
        lo, hi, n = scenario.outputs["spectrum_window_ev"]
        energies = np.linspace(float(lo), float(hi), int(n))
        t_fs = parse_time_token((args.tp or ["0"])[0], period)
        excited = signal_mod.angle_integrated_spectrum(
            energies, t_fs, scenario.pulse, scenario.wave_packet,
            scenario.finals, scenario.mos, scenario="excited")
        wp0, finals0 = scenario.ground_state()
        ground = signal_mod.angle_integrated_spectrum(
            energies, t_fs, scenario.pulse, wp0, finals0, scenario.mos,
            scenario="s0")
        written.append(io_mod.export_spectra(out / "spectra.dat",
                                             [excited, ground],
                                             digest=scenario.digest))
    elif args.target in ("fig4", "fig5"):
        if args.target == "fig4":
            energies = args.energy or [99.0]
        else:
            energies = args.energy or [90.0, 93.0, 96.0, 99.0]
        resolution = args.grid or scenario.outputs["map_resolution"]
        tokens = args.tp or quarter_times
        times = _resolve_times(tokens, period)
        for energy in energies:
            for token, t_fs in times:
                pmm = signal_mod.pmm_cut(
                    float(energy), t_fs, scenario.pulse, scenario.wave_packet,
                    scenario.finals, scenario.mos, resolution)
                written.append(io_mod.export_pmm(
                    out / f"pmm_e{energy:g}_tp{time_label(token)}.dat", pmm,
                    digest=scenario.digest))
    elif args.target == "fig6":
        energy = (args.energy or [99.0])[0]
        resolution = args.grid or scenario.outputs["map_resolution"]
        tau_tokens = args.tau or ["0.5", "T/4", "T/2"]
        tokens = args.tp or quarter_times
        times = _resolve_times(tokens, period)
        width = scenario.outputs["average_width_ev"]
        n_avg = scenario.outputs["average_samples"]
        for tau_token in tau_tokens:
            pulse = _with_tau(scenario.pulse, tau_token, period)
            for token, t_fs in times:
                pmm = signal_mod.energy_average_pmm(
                    float(energy), width, n_avg, t_fs, pulse,
                    scenario.wave_packet, scenario.finals, scenario.mos,
                    resolution, mode="long")
                written.append(io_mod.export_pmm(
                    out / (f"pmm_tau{time_label(tau_token)}"
                           f"_tp{time_label(token)}.dat"),
                    pmm, digest=scenario.digest))
    for path in written:
        print(path)
    return 0


_COMMANDS = {
    "pmm": cmd_pmm,
    "spectrum": cmd_spectrum,
    "density": cmd_density,
    "dyson": cmd_dyson,
    "validate": cmd_validate,
    "reproduce-figure": cmd_reproduce,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _HANDLED as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
