"""Observable synthesis: photoelectron probabilities for sudden (short
pulse) and finite-duration probes, spectral envelopes, constant-energy
momentum maps, angle-integrated spectra, and energy-resolution averaging.

Physics conventions:
  * photoelectron probability (short pulse, sudden limit):
        P(q, t_p) = pref * |eps_in . q|^2 * sum_{F,sigma}
                    exp(-(Omega_F - eps_e)^2 tau^2 / (4 ln2))
                    * | sum_terms coeff(t_p) * F[phi](q) |^2
    with eps_e = |q|^2 / 2 and Omega_F = omega_in + <E> - E_F;
  * finite-duration probe: the per-member Gaussian envelope
    exp(-(omega_in + E_I - E_F - eps_e)^2 tau^2 / (8 ln2)) moves inside the
    coherent member sum (amplitude level), same prefactor;
  * default intensity normalization sets the overall prefactor
    tau^2 I0 / (8 pi ln2 omega_in^2 c) to one ("relative", matching
    arbitrary-unit maps); "absolute" evaluates it in atomic units;
  * angle integration uses the density-of-states measure
    S(eps) = q * Integral P dOmega with q = sqrt(2 eps).

All momenta entering ops in this module are atomic units; energies and
times cross the interface in eV/fs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, assemble_dyson
from .model import (
    BOHR_ANGSTROM,
    DOWN,
    HARTREE_EV,
    UP,
    ElectronicState,
    ProbePulse,
    WavePacket,
    ev_to_hartree,
    fs_to_au,
    occupied_offsets,
    wave_packet_phase,
)
from .momentum import MomentumGrid, build_hemisphere, build_sphere, sphere_quadrature
from . import algebra, momentum

log = logging.getLogger(__name__)

FOUR_LN2 = 4.0 * math.log(2.0)
EIGHT_LN2 = 8.0 * math.log(2.0)
DEFAULT_CHANNEL_MIN_ENVELOPE = 1e-6


class SignalError(ValueError):
    """Inconsistent observable request."""


# ---------------------------------------------------------------------------
# spectral envelopes

def envelope_short(omega_ev, energy_ev, tau_fs):
    """Gaussian energy window exp(-(Omega_F - eps)^2 tau^2 / (4 ln2))."""
    if not tau_fs > 0:
        raise SignalError("pulse duration must be positive")
    delta = ev_to_hartree(np.asarray(energy_ev, dtype=float) - omega_ev)
    tau = fs_to_au(tau_fs)
    out = np.exp(-(delta * delta) * tau * tau / FOUR_LN2)
    return float(out) if np.ndim(energy_ev) == 0 else out


def envelope_long(omega_in_ev, e_member_ev, e_final_ev, energy_ev, tau_fs):
    """Amplitude-level member envelope with the 8 ln2 denominator."""
    if not tau_fs > 0:
        raise SignalError("pulse duration must be positive")
    delta = ev_to_hartree(
        np.asarray(energy_ev, dtype=float) - (omega_in_ev + e_member_ev - e_final_ev))
    tau = fs_to_au(tau_fs)
    out = np.exp(-(delta * delta) * tau * tau / EIGHT_LN2)
    return float(out) if np.ndim(energy_ev) == 0 else out


def envelope_fwhm_ev(tau_fs, level="probability"):
    """Full width of the spectral window: 4 ln2 / tau at probability level,
    sqrt(2) times that at amplitude level."""
    width_au = FOUR_LN2 / fs_to_au(tau_fs)
    if level == "amplitude":
        width_au *= math.sqrt(2.0)
    return width_au * HARTREE_EV


# ---------------------------------------------------------------------------
# channels

@dataclass(frozen=True)
class SpectralChannel:
    """One ionic final state as seen by the probe.

    omega_ev = omega_in + <E> - E_F is the photoelectron energy the channel
    is centered at. time_dependent is True iff at least two wave-packet
    members contribute nonzero Dyson terms.
    """

    index: int
    final_energy_ev: float
    omega_ev: float
    dyson: algebra.DysonOrbital
    time_dependent: bool


def build_channels(wp: WavePacket, finals, pulse: ProbePulse):
    """SpectralChannel list for (index, ElectronicState) finals."""
    channels = []
    for index, state in finals:
        dyson = assemble_dyson(state, wp, wp.t0_fs, final_index=index)
        coupled = sum(1 for member in dyson.per_member if member)
        omega = pulse.photon_energy_ev + wp.mean_energy_ev - state.energy_ev
        channels.append(SpectralChannel(
            index=int(index), final_energy_ev=state.energy_ev, omega_ev=omega,
            dyson=dyson, time_dependent=coupled >= 2))
    if not channels:
        raise SignalError("empty final-state list")
    return channels


def _orbital_lookup(mos):
    table = {}
    for mo in mos:
        table[mo.offset] = mo
    return table


class _GridAmplitudes:
    """Per (channel, spin, member) complex amplitude rows on one grid.

    row[c][spin][i] = sum over the member-i Dyson terms of that spin of
    coeff * F[orbital](q); None when the member does not feed the spin.
    """

    def __init__(self, channels, mos, grid: MomentumGrid):
        table = _orbital_lookup(mos)
        needed = sorted({orb for ch in channels
                         for member in ch.dyson.per_member
                         for _, orb, _ in member})
        missing = [o for o in needed if o not in table]
        if missing:
            raise SignalError(f"no orbital supplied for offsets {missing}")
        ft = dict(zip(needed, momentum.orbital_ft([table[o] for o in needed], grid)))
        self.rows = []
        for ch in channels:
            by_spin = {}
            for spin in (UP, DOWN):
                members = []
                hit = False
                for member in ch.dyson.per_member:
                    terms = [(c, orb) for c, orb, s in member if s == spin]
                    if terms:
                        row = np.zeros(grid.n_samples, dtype=complex)
                        for c, orb in terms:
                            row += c * ft[orb]
                        members.append(row)
                        hit = True
                    else:
                        members.append(None)
                if hit:
                    by_spin[spin] = members
            self.rows.append(by_spin)


def _prefactor(pulse: ProbePulse, normalization):
    if normalization == "relative":
        return 1.0
    if normalization == "absolute":
        tau = fs_to_au(pulse.duration_fwhm_fs)
        omega = ev_to_hartree(pulse.photon_energy_ev)
        return (tau * tau * pulse.peak_intensity
                / (8.0 * math.pi * math.log(2.0) * omega * omega * 137.036))
    raise SignalError(f"unknown normalization mode {normalization!r}")


def _member_phases(wp: WavePacket, t_p_fs):
    return [wave_packet_phase(wp, i, t_p_fs) for i in range(wp.n_members)]


def _evaluate_on_samples(channels, amps: _GridAmplitudes, samples, wp, pulse,
                         t_p_fs, mode, normalization, skip=None):
    """Probability at each sample row. skip: boolean per channel."""
    eps_au = 0.5 * np.einsum("ij,ij->i", samples, samples)
    eps_ev = eps_au * HARTREE_EV
    proj = (samples @ pulse.polarization) ** 2
    phases = _member_phases(wp, t_p_fs)
    total = np.zeros(len(samples))
    for k, (ch, by_spin) in enumerate(zip(channels, amps.rows)):
        if skip is not None and skip[k]:
            continue
        if mode == "short":
            env = envelope_short(ch.omega_ev, eps_ev, pulse.duration_fwhm_fs)
            for spin in sorted(by_spin):
                amp = np.zeros(len(samples), dtype=complex)
                for i, row in enumerate(by_spin[spin]):
                    if row is not None:
                        amp += phases[i] * row
                total += env * (amp.real ** 2 + amp.imag ** 2)
        elif mode == "long":
            member_env = [envelope_long(pulse.photon_energy_ev, wp.members[i][1],
                                        ch.final_energy_ev, eps_ev,
                                        pulse.duration_fwhm_fs)
                          for i in range(wp.n_members)]
            for spin in sorted(by_spin):
                amp = np.zeros(len(samples), dtype=complex)
                for i, row in enumerate(by_spin[spin]):
                    if row is not None:
                        amp += phases[i] * member_env[i] * row
                total += amp.real ** 2 + amp.imag ** 2
        else:
            raise SignalError(f"unknown probe mode {mode!r}")
    return total * proj * _prefactor(pulse, normalization)


def _free_grid(q):
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    return MomentumGrid(mode="free-samples", samples=q,
                        valid=np.ones(len(q), dtype=bool))


def probability_short(q, t_p_fs, pulse, wp, finals, mos, normalization="relative"):
    """Sudden-limit probability at momentum q (a.u.), shape (3,) or (N,3).

    q = 0 is a degenerate input (no photoelectron): the polarization
    projection zeroes it and the value is 0.
    """
    if not list(finals):
        raise SignalError("empty final-state list")
    single = np.asarray(q, dtype=float).ndim == 1
    grid = _free_grid(q)
    channels = build_channels(wp, finals, pulse)
    amps = _GridAmplitudes(channels, mos, grid)
    out = _evaluate_on_samples(channels, amps, grid.samples, wp, pulse, t_p_fs,
                               "short", normalization)
    return float(out[0]) if single else out


def probability_long(q, t_p_fs, pulse, wp, finals, mos, normalization="relative"):
    """Finite-duration probability at momentum q (a.u.); per-member envelopes
    inside the coherent sum."""
    if not list(finals):
        raise SignalError("empty final-state list")
    single = np.asarray(q, dtype=float).ndim == 1
    grid = _free_grid(q)
    channels = build_channels(wp, finals, pulse)
    amps = _GridAmplitudes(channels, mos, grid)
    out = _evaluate_on_samples(channels, amps, grid.samples, wp, pulse, t_p_fs,
                               "long", normalization)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# maps and spectra

@dataclass(frozen=True)
class PMM:
    """Constant-energy photoelectron momentum map over an (q_x, q_y) raster.

    values[i, j] pairs with (axis_x[i], axis_y[j]) in 1/Angstrom; samples
    outside the kinematic disc are zero.
    """

    energy_ev: float
    t_p_fs: float
    values: np.ndarray
    axis_x: np.ndarray
    axis_y: np.ndarray
    metadata: dict

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise SignalError("non-finite probability in momentum map")
        if np.any(values < 0):
            raise SignalError("negative probability in momentum map")
        if values.shape != (len(self.axis_x), len(self.axis_y)):
            raise SignalError("map shape does not match axes")
        for name in ("values", "axis_x", "axis_y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Spectrum:
    """Angle-integrated spectrum S(eps) on an energy grid (eV)."""

    energies_ev: np.ndarray
    values: np.ndarray
    scenario: str
    metadata: dict

    def __post_init__(self):
        for name in ("energies_ev", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.values)):
            raise SignalError("non-finite probability in spectrum")
        if np.any(self.values < 0):
            raise SignalError("negative probability in spectrum")


def _channel_skip_mask(channels, energy_ev, pulse, mode, wp,
                       min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Channels whose envelope at the map energy stays under the threshold."""
    skip = []
    for ch in channels:
        if mode == "short":
            env = envelope_short(ch.omega_ev, energy_ev, pulse.duration_fwhm_fs)
        else:
            env = max(envelope_long(pulse.photon_energy_ev, e_i,
                                    ch.final_energy_ev, energy_ev,
                                    pulse.duration_fwhm_fs) ** 2
                      for _, e_i, _ in wp.members)
        skip.append(env < min_envelope)
    return skip


def _channel_records(channels, skip, energy_ev, pulse):
    recs = []
    for ch, s in zip(channels, skip):
        recs.append({
            "index": ch.index,
            "final_energy_ev": ch.final_energy_ev,
            "omega_ev": ch.omega_ev,
            "envelope": envelope_short(ch.omega_ev, energy_ev,
                                       pulse.duration_fwhm_fs),
            "time_dependent": ch.time_dependent,
            "skipped": bool(s),
        })
    return recs


def pmm_cut(energy_ev, t_p_fs, pulse, wp, finals, mos, resolution=201,
            q_max_inv_angstrom=None, mode="short", normalization="relative",
            channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Hemispherical constant-energy cut at photoelectron energy eps (eV)."""
    channels = build_channels(wp, finals, pulse)
    return _hemisphere_cut(energy_ev, t_p_fs, pulse, wp, channels, mos,
                           resolution, q_max_inv_angstrom, mode, normalization,
                           channel_min_envelope)


def _hemisphere_cut(energy_ev, t_p_fs, pulse, wp, channels, mos, resolution,
                    q_max_inv_angstrom, mode, normalization, channel_min_envelope):
    grid = build_hemisphere(energy_ev, resolution, resolution, q_max_inv_angstrom)
    skip = _channel_skip_mask(channels, energy_ev, pulse, mode, wp,
                              channel_min_envelope)
    skipped = [ch.index for ch, s in zip(channels, skip) if s]
    if skipped:
        log.info("map at %.3f eV skips channels %s (envelope < %g)",
                 energy_ev, skipped, channel_min_envelope)
    amps = _GridAmplitudes(channels, mos, grid)
    vals = _evaluate_on_samples(channels, amps, grid.samples, wp, pulse,
                                t_p_fs, mode, normalization, skip=skip)
    vals = np.where(grid.valid, vals, 0.0).reshape(grid.shape)
    meta = {
        "tau_fs": pulse.duration_fwhm_fs,
        "omega_in_ev": pulse.photon_energy_ev,
        "polarization": tuple(pulse.polarization),
        "mode": mode,
        "normalization": normalization,
        "t0_fs": wp.t0_fs,
        "q_disc_inv_angstrom": math.sqrt(2.0 * ev_to_hartree(energy_ev))
                               / BOHR_ANGSTROM,
        "channels": _channel_records(channels, skip, energy_ev, pulse),
    }
    return PMM(energy_ev=float(energy_ev), t_p_fs=float(t_p_fs), values=vals,
               axis_x=grid.axis_x, axis_y=grid.axis_y, metadata=meta)


def energy_average_pmm(energy_center_ev, width_ev, n_energies, t_p_fs, pulse,
                       wp, finals, mos, resolution=201, q_max_inv_angstrom=None,
                       mode="short", normalization="relative",
                       channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Uniform average of pmm_cut over [center - w/2, center + w/2].

    Every energy keeps its own hemisphere (its own q_z), all sharing one
    (q_x, q_y) raster; raster samples outside a given energy's kinematic
    disc contribute zero at that energy.
    """
    if not width_ev > 0:
        raise SignalError("averaging width must be positive")
    if n_energies < 2:
        raise SignalError("energy averaging needs at least 2 samples")
    if q_max_inv_angstrom is None:
        e_au = ev_to_hartree(energy_center_ev)
        q_max_inv_angstrom = math.sqrt(2.0 * e_au) / BOHR_ANGSTROM
    energies = np.linspace(energy_center_ev - 0.5 * width_ev,
                           energy_center_ev + 0.5 * width_ev, int(n_energies))
    channels = build_channels(wp, finals, pulse)
    acc = None
    base = None
    for e in energies:
        m = _hemisphere_cut(float(e), t_p_fs, pulse, wp, channels, mos,
                            resolution, q_max_inv_angstrom, mode, normalization,
                            channel_min_envelope)
        acc = m.values.copy() if acc is None else acc + m.values
        base = m
    vals = acc / float(len(energies))
    meta = dict(base.metadata)
    meta["energy_average"] = {"center_ev": float(energy_center_ev),
                              "width_ev": float(width_ev),
                              "n_energies": int(n_energies)}
    meta["q_disc_inv_angstrom"] = (math.sqrt(2.0 * ev_to_hartree(energies[-1]))
                                   / BOHR_ANGSTROM)
    return PMM(energy_ev=float(energy_center_ev), t_p_fs=float(t_p_fs),
               values=vals, axis_x=base.axis_x, axis_y=base.axis_y,
               metadata=meta)


def angle_integrated_spectrum(energies_ev, t_p_fs, pulse, wp, finals, mos,
                              n_polar=48, n_azimuth=96, mode="short",
                              normalization="relative",
                              scenario="excited",
                              channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """S(eps) = q * Integral P dOmega on the listed photoelectron energies."""
    energies = np.asarray(energies_ev, dtype=float).reshape(-1)
    if not len(energies) or np.any(energies <= 0):
        raise SignalError("photoelectron energies must be positive")
    channels = build_channels(wp, finals, pulse)
    quadrature = sphere_quadrature(n_polar, n_azimuth)
    out = np.zeros(len(energies))
    for k, e in enumerate(energies):
        grid = build_sphere(float(e), n_polar, n_azimuth, quadrature)
        skip = _channel_skip_mask(channels, float(e), pulse, mode, wp,
                                  channel_min_envelope)
        if all(skip):
            continue
        amps = _GridAmplitudes(channels, mos, grid)
        p = _evaluate_on_samples(channels, amps, grid.samples, wp, pulse,
                                 t_p_fs, mode, normalization, skip=skip)
        q_au = math.sqrt(2.0 * ev_to_hartree(float(e)))
        out[k] = q_au * float(np.dot(grid.weights, p))
    meta = {
        "tau_fs": pulse.duration_fwhm_fs,
        "omega_in_ev": pulse.photon_energy_ev,
        "polarization": tuple(pulse.polarization),
        "t_p_fs": float(t_p_fs),
        "mode": mode,
        "quadrature": (int(n_polar), int(n_azimuth)),
        "normalization": normalization,
    }
    return Spectrum(energies_ev=energies, values=out, scenario=scenario,
                    metadata=meta)


# ---------------------------------------------------------------------------
# ground-state (Koopmans) scenario

def ground_state_scenario(mos, binding_energies_ev):
    """Single-member 'wave packet' = closed-shell ground state, plus one-hole
    Koopmans finals at the given binding energies (eV).

    Channel envelopes then center at eps = omega_in - binding energy.
    """
    if not binding_energies_ev:
        raise SignalError("missing binding energies for ground-state channels")
    occupied = occupied_offsets(mos)
    if not occupied:
        raise SignalError("no occupied orbitals supplied")
    ground = ElectronicState(
        energy_ev=0.0,
        expansion=((1.0, algebra.closed_shell_state(occupied)),))
    wp = WavePacket(members=((1.0 + 0.0j, 0.0, ground),), t0_fs=0.0)
    finals = []
    items = sorted(binding_energies_ev.items(),
                   key=lambda kv: (float(kv[1]), str(kv[0])))
    for rank, (label, be) in enumerate(items, start=1):
        from .model import orbital_offset
        off = orbital_offset(label)
        if off not in occupied:
            raise SignalError(f"binding energy given for unoccupied orbital {label!r}")
        state = ElectronicState(
            energy_ev=float(be),
            expansion=((1.0, algebra.one_hole_csf(occupied, off)),))
        finals.append((rank, state))
    return wp, finals
