"""Observable synthesis: photoelectron probabilities for sudden (short
pulse) and finite-duration (long) probes, spectral envelopes,
constant-energy momentum maps, angle-integrated spectra, and
energy-resolution averaging.

Physics conventions:
  * the probe delay t_p enters only through the wave-packet member phases
    z_I(t_p) = C_I exp(-i E_I (t_p - t0)) of WavePacket.phases, formed once
    per call, so every probability is the bilinear form (model.at_delays)
        P(q, t_p) = sum_IJ Re[z_I*(t_p) z_J(t_p) K_IJ(q)],
        K_IJ(q)   = |eps_in . q|^2 sum_{F,sigma} W_FIJ(eps_e)
                    conj(R_FsigmaI(q)) R_FsigmaJ(q),
    with eps_e the nominal energy of a hemisphere or sphere grid (one weight
    per channel and energy) and |q|^2 / 2 only for the free samples of
    probability(), and R_FsigmaI = D_FsigmaI @ F[orbitals](q) the
    transform of member I's un-phased Dyson orbital, D[F, sigma, I, p] =
    <F| a_{p sigma} |Psi_I> from one algebra.dyson_matrices call per packet
    (each SpectralChannel holds its D[sigma, I, p] slice). A delay series
    costs one kernel per grid, then M^2 products per sample and delay;
  * hemisphere maps of a planar basis (LCAO primitives of one shape, every
    center at one height z0; momentum.planar_basis) fold the energies: the
    transforms are shape_factor(q) exp(-i q_z z0) S(q_x, q_y) with the
    in-plane structure factor S the same at every energy of the shared
    raster, the z0 phase cancels in conj(R_I) R_J, and
        K_IJ = sum_{F,sigma} conj(D S)_I (D S)_J P_FIJ,
        P_FIJ = sum_e W_FIJ(e) T_e,
        T_e = |eps_in . q_e|^2 |shape_factor(q_e)|^2,
    so a cut (one energy) or an energy average forms S once per sample
    block of the raster's disc, T per axis (momentum.structure_factors) and
    its member-pair products once per channel and spin. Other orbital sets
    add one orbital_ft kernel per energy on each block, lifted to it;
  * pair weights: short pulse (sudden limit) W_FIJ = envelope_short, the
    probability-level window exp(-(Omega_F - eps_e)^2 tau^2 / (4 ln2)) with
    Omega_F = omega_in + <E> - E_F, for every member pair; finite-duration
    probe W_FIJ = g_FI g_FJ with the amplitude-level member envelope
    g_FI = envelope_long = exp(-(omega_in + E_I - E_F - eps_e)^2 tau^2
    / (8 ln2)), i.e. the envelopes sit inside the coherent member sum.
    One _weights call forms W for all pulses, channels and energies as one
    array W[p, F, I, J, e] (one shared pair in short mode); the kernels take
    W, not the pulse, so pulses that differ only in duration (fig6's rows)
    share every transform and member row;
  * a channel whose largest diagonal weight max_I W_FII at the map or
    spectrum energy is below the threshold gets W_F = 0 there, and a
    channel whose weight profile is all zero is left out of a kernel;
  * probabilities are relative, as in arbitrary-unit maps: the intensity
    prefactor tau^2 I0 / (8 pi ln2 omega_in^2 c) is one;
  * angle integration uses the density-of-states measure
    S(eps) = q * Integral P dOmega with q = sqrt(2 eps), so each energy's
    kernel is integrated over the sphere into one M x M matrix. For LCAO
    orbitals over s and p primitives that integral is exact: with G = D C^T
    the member rows over the shared primitives, it is
    sum_{F,sigma} W_FIJ (conj(G) A(q) G^T)_IJ, where the primitive pair
    matrix A_ab(q) = Integral dOmega (eps_in . q)^2 conj(B_a) B_b is a sum of
    spherical Bessel functions j_0..j_4 of q |R_a - R_b|
    (momentum.sphere_pair_matrices; it matches a 96 x 192 quadrature to
    2e-14 of the peak), formed for a block of energies from one Bessel
    evaluation on the distinct distances. Grid-backed orbitals, and
    primitives beyond p, are integrated on an n_polar x n_azimuth
    Gauss-Legendre x uniform-azimuth sphere quadrature instead.

All momenta entering ops in this module are atomic units; energies and
times cross the interface in eV/fs. Map, spectrum and probability
functions take one delay t_p_fs (one result) or a 1-D sequence of delays
(a list with one result per delay).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .model import (
    BOHR_ANGSTROM,
    HARTREE_EV,
    ElectronicState,
    ProbePulse,
    Record,
    WavePacket,
    at_delays,
    ev_to_hartree,
    fs_to_au,
    held,
    inv_angstrom_to_au,
    occupied_offsets,
    orbital_offset,
    read_only,
)
from .momentum import (
    MomentumError,
    MomentumGrid,
    build_hemisphere,
    build_sphere,
    sphere_quadrature,
)
from . import algebra, momentum

log = logging.getLogger(__name__)

FOUR_LN2 = 4.0 * math.log(2.0)
EIGHT_LN2 = 8.0 * math.log(2.0)
DEFAULT_CHANNEL_MIN_ENVELOPE = 1e-6
# Closed-form spectra take this many energies per pair_matrix call (next to
# momentum._SAMPLE_BLOCK): the (5, block, P, P) Bessel gather stays small.
_ENERGY_BLOCK = 16


class SignalError(ValueError):
    """Inconsistent observable request."""


# ---------------------------------------------------------------------------
# spectral envelopes

def envelope_short(omega_ev, energy_ev, tau_fs):
    """Gaussian energy window exp(-(Omega_F - eps)^2 tau^2 / (4 ln2)), broadcast."""
    if not np.all(np.greater(tau_fs, 0)):
        raise SignalError("pulse duration must be positive")
    delta = ev_to_hartree(np.asarray(energy_ev, dtype=float) - omega_ev)
    tau = fs_to_au(tau_fs)
    with np.errstate(over="ignore"):      # an overflowing detuning gives 0
        out = np.exp(-(delta * delta) * tau * tau / FOUR_LN2)
    return float(out) if np.ndim(out) == 0 else out


def envelope_long(omega_in_ev, e_member_ev, e_final_ev, energy_ev, tau_fs):
    """Amplitude-level member envelope with the 8 ln2 denominator; member
    and photoelectron energies and durations broadcast against each other."""
    if not np.all(np.greater(tau_fs, 0)):
        raise SignalError("pulse duration must be positive")
    delta = ev_to_hartree(
        np.asarray(energy_ev, dtype=float) - (omega_in_ev + e_member_ev - e_final_ev))
    tau = fs_to_au(tau_fs)
    with np.errstate(over="ignore"):      # an overflowing detuning gives 0
        out = np.exp(-(delta * delta) * tau * tau / EIGHT_LN2)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# channels

class SpectralChannel(Record):
    """One ionic final state as seen by the probe.

    omega_ev = omega_in + <E> - E_F is the photoelectron energy the channel
    is centered at. dyson[sigma, I, p] = <F| a_{p sigma} |Psi_I> over the
    orbital offsets (algebra.dyson_matrices); time_dependent is True iff at
    least two wave-packet members have a nonzero entry; dyson_norm is the
    norm of the Dyson orbital at t0, |sum_I C_I dyson[sigma, I, p]|.
    """

    __slots__ = ("index", "final_energy_ev", "omega_ev", "dyson", "offsets",
                 "time_dependent", "dyson_norm")

    def __init__(self, index, final_energy_ev, omega_ev, dyson, offsets,
                 time_dependent, dyson_norm):
        self._set(index, final_energy_ev, omega_ev, dyson, offsets, time_dependent,
                  dyson_norm)


def build_channels(wp: WavePacket, finals, pulse: ProbePulse):
    """SpectralChannel list for (index, ElectronicState) finals."""
    if not finals:
        raise SignalError("empty final-state list")
    offsets, dyson = algebra.dyson_matrices([state for _, state in finals], wp)
    read_only(dyson)
    weights = np.array([c for c, _, _ in wp.members])
    channels = []
    for (index, state), d in zip(finals, dyson):
        coupled = np.count_nonzero(np.any(d != 0.0, axis=(0, 2)))
        omega = pulse.photon_energy_ev + wp.mean_energy_ev - state.energy_ev
        channels.append(SpectralChannel(
            index=int(index), final_energy_ev=state.energy_ev, omega_ev=omega,
            dyson=d, offsets=offsets, time_dependent=bool(coupled >= 2),
            dyson_norm=float(np.linalg.norm(np.einsum("i,sip->sp", weights, d)))))
    return channels


def channel_records(channels):
    """Plain-dict summary per channel: index, final and center energies
    (eV), time dependence and Dyson norm."""
    return [{"index": ch.index, "final_energy_ev": ch.final_energy_ev,
             "omega_ev": ch.omega_ev, "time_dependent": ch.time_dependent,
             "dyson_norm": ch.dyson_norm} for ch in channels]


# ---------------------------------------------------------------------------
# member-pair coherence kernels

def _weights(channels, energies_ev, pulses, wp, mode, min_envelope):
    """Pair weights of pulses that differ only in duration at the
    photoelectron energies energies_ev (1-D, eV), from one envelope call over
    leading pulse and channel axes: W of shape (P, F, M, M, E), or
    (P, F, 1, 1, E) in short mode where all pairs share the window, zero
    where a channel is skipped; peaks[p, e, F] = max_I W_pFII; and
    skip[p, e, F] = peaks[p, e, F] < min_envelope."""
    tau = np.array([p.duration_fwhm_fs for p in pulses])
    if mode == "short":
        omegas = np.array([ch.omega_ev for ch in channels])
        env = envelope_short(omegas[:, None], energies_ev, tau[:, None, None])
        w = env[:, :, None, None, :]
    elif mode == "long":
        members = np.array([e_i for _, e_i, _ in wp.members])
        finals = np.array([ch.final_energy_ev for ch in channels])
        env = envelope_long(pulses[0].photon_energy_ev, members[None, :, None],
                            finals[:, None, None], energies_ev, tau[:, None, None, None])
        w = env[:, :, :, None] * env[:, :, None, :]
    else:
        raise SignalError(f"unknown probe mode {mode!r}")
    peaks = np.max(np.diagonal(w, axis1=2, axis2=3), axis=-1).swapaxes(1, 2)
    skip = peaks < min_envelope
    return w * ~skip.swapaxes(1, 2)[:, :, None, None, :], peaks, skip


def _dyson_matrices(channels, mos):
    """The orbitals the channels ionize, and per channel the un-phased Dyson
    coefficient matrices D[member, orbital] of each spin it feeds."""
    offsets = channels[0].offsets
    used = np.flatnonzero(np.any([ch.dyson != 0.0 for ch in channels], axis=(0, 1, 2)))
    table = {mo.offset: mo for mo in mos}
    missing = [offsets[k] for k in used if offsets[k] not in table]
    if missing:
        raise SignalError(f"no orbital supplied for offsets {missing}")
    matrices = [[d[:, used].astype(complex) for d in ch.dyson if np.any(d)]
                for ch in channels]
    return [table[offsets[k]] for k in used], matrices


def _accumulate(out, matrices, transforms, profiles):
    """out[p, I, J] += sum_{F,sigma} conj(R_I) R_J profile_pFIJ with the
    member rows R = D_Fsigma @ transforms, for each pulse p and channel
    whose profile is not all zero (it broadcasts to out's shape). One member
    pair of one channel-spin term is held at a time; returns out."""
    for mats, profile in zip(matrices, profiles):
        live = [p for p, w in enumerate(profile) if w.any()]
        if not live:
            continue
        profile = np.broadcast_to(profile, out.shape)
        for d in mats:
            rows = d @ transforms
            for p in live:
                for i, j in np.ndindex(out.shape[1:3]):
                    out[p, i, j] += rows[i].conj() * (rows[j] * profile[p, i, j])
    return out


def _kernel(out, grid: MomentumGrid, weights, basis, matrices, polarization):
    """Add K[p, I, J, n] at the grid samples (module docstring) to `out`,
    shape (P, M, M, n_samples), and return it. weights: W at the grid's
    nominal energy (a length-1 energy axis), or per sample for free samples;
    a channel whose W is zero adds nothing, and so do invalid samples."""
    if not weights.any():
        return out
    ft = momentum.orbital_ft(basis, grid)
    scale = (grid.samples @ polarization) ** 2 * grid.valid
    return _accumulate(out, matrices, ft, (w * scale for w in weights.swapaxes(0, 1)))


def _folded_kernel(shape, raster: MomentumGrid, planar, energies, weights, matrices,
                   polarization):
    """Yield (runs, K) per block of the raster's disc: its raster line runs
    (momentum.line_runs) and K, shape + (n,) = (P, M, M, n), the sum over
    `energies` of each pulse's hemisphere kernels there, for a planar basis
    (momentum.planar_basis), folded as in the module docstring with S and T
    from momentum.structure_factors: each block's profiles are one product
    W_F @ T, and its member rows D S run once per channel and spin for all
    pulses. Off the disc every T, and so every map, is 0."""
    live = weights.any(axis=(0, 1, 2, 3))     # energies where some W is not 0
    for runs, factors, kinematic in momentum.structure_factors(
            raster, planar, energies[live], polarization):
        table = kinematic
        if not live.all():
            table = np.zeros((len(energies), kinematic.shape[1]))
            table[live] = kinematic
        yield runs, _accumulate(np.zeros(shape + (table.shape[1],), dtype=complex), matrices,
                                factors.T, (w @ table for w in weights.swapaxes(0, 1)))


def _lifted_kernel(shape, raster, energies, weights, basis, matrices, polarization):
    """_folded_kernel's (runs, K) blocks for any orbital set: the block,
    lifted to each energy's hemisphere in turn (momentum.lift), adds one _kernel."""
    qx, qy = inv_angstrom_to_au(raster.axis_x), inv_angstrom_to_au(raster.axis_y)
    for runs, i, j in momentum.raster_blocks(raster):
        kernel = np.zeros(shape + (len(i),), dtype=complex)
        for k, e in enumerate(energies):
            grid = MomentumGrid(*momentum.lift(ev_to_hartree(e), qx[i], qy[j]))
            _kernel(kernel, grid, weights[..., k:k + 1], basis, matrices, polarization)
        yield runs, kernel


def photoelectron_energies(energies_ev):
    """Photoelectron energies (eV) as a 1-D float array, each positive and
    finite."""
    energies = np.asarray(energies_ev, dtype=float).reshape(-1)
    if not len(energies):
        raise SignalError("no photoelectron energies given")
    bad = energies[~((energies > 0) & (energies < math.inf))]
    if len(bad):
        raise SignalError(
            f"photoelectron energy must be positive and finite, got {bad[0]}")
    return energies


def _delays(t_p_fs, wp):
    """Delays as a 1-D float array, their member phases (wp.phases), and
    whether a single number was given; every phase must be finite."""
    times = np.asarray(t_p_fs, dtype=float)
    if times.ndim > 1 or not times.size:
        raise SignalError("probe delay must be a number or a non-empty 1-D sequence")
    phases = wp.phases(times)
    if not np.all(np.isfinite(phases)):
        raise SignalError("probe delay gives a non-finite wave-packet phase")
    return times.reshape(-1), phases, times.ndim == 0


def probability(q, t_p_fs, pulse, wp, finals, mos, mode="short"):
    """Photoelectron probability at momentum q (a.u.), shape (3,) -> float
    or (N, 3) -> (N,) array; mode "short" (sudden limit) or "long"
    (per-member envelopes inside the coherent sum).

    q = 0 is a degenerate input (no photoelectron): the polarization
    projection zeroes it and the value is 0.
    """
    _, phases, single = _delays(t_p_fs, wp)
    q = np.asarray(q, dtype=float)
    samples = q.reshape(-1, 3)
    grid = MomentumGrid(samples=samples, valid=np.ones(len(samples), dtype=bool))
    channels = build_channels(wp, finals, pulse)
    basis, matrices = _dyson_matrices(channels, mos)
    eps_ev = 0.5 * np.einsum("ij,ij->i", samples, samples) * HARTREE_EV
    weights, _, _ = _weights(channels, eps_ev, [pulse], wp, mode, 0.0)
    kernel, = _kernel(np.zeros((1, wp.n_members, wp.n_members, len(samples)), complex),
                      grid, weights, basis, matrices, pulse.polarization)
    out = list(at_delays(kernel, phases))
    if q.ndim == 1:
        out = [float(v[0]) for v in out]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# maps and spectra

class PMM(Record):
    """Constant-energy photoelectron momentum map over an (q_x, q_y) raster.

    values[i, j] pairs with (axis_x[i], axis_y[j]) in 1/Angstrom; samples
    outside the kinematic disc are zero.
    """

    __slots__ = ("energy_ev", "t_p_fs", "values", "axis_x", "axis_y", "metadata")

    def __init__(self, energy_ev, t_p_fs, values, axis_x, axis_y, metadata):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise SignalError("non-finite probability in momentum map")
        if np.any(values < 0):
            raise SignalError("negative probability in momentum map")
        if values.shape != (len(axis_x), len(axis_y)):
            raise SignalError("map shape does not match axes")
        self._set(energy_ev, t_p_fs, *(held(np.asarray(a, dtype=float))
                                       for a in (values, axis_x, axis_y)), metadata)


class Spectrum(Record):
    """Angle-integrated spectrum S(eps) on an energy grid (eV)."""

    __slots__ = ("energies_ev", "values", "scenario", "metadata")

    def __init__(self, energies_ev, values, scenario, metadata):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise SignalError("non-finite probability in spectrum")
        if np.any(values < 0):
            raise SignalError("negative probability in spectrum")
        self._set(held(np.asarray(energies_ev, float)), held(values), scenario, metadata)


def _hemisphere_maps(energy_ev, energies, t_p_fs, pulse, wp, finals, mos,
                     resolution, q_max_inv_angstrom, mode, min_envelope,
                     average=None):
    """Maps labeled energy_ev, averaged uniformly over the hemisphere cuts
    at `energies` (one energy: a plain cut), one per delay; for a sequence
    of pulses that differ only in duration, one such result per pulse.

    The cuts share one (q_x, q_y) raster; a raster sample outside a given
    energy's kinematic disc contributes zero at that energy, so the maps
    are zero outside the disc of the last, highest energy. Each block of its
    whole raster lines (_folded_kernel for a planar basis, _lifted_kernel
    otherwise) becomes every delay's map values before the next is formed.
    Channel records and the disc radius are those of the last energy.
    """
    energies = photoelectron_energies(energies)
    times, phases, single = _delays(t_p_fs, wp)
    pulses = [pulse] if isinstance(pulse, ProbePulse) else list(pulse)
    if not pulses or len({(p.photon_energy_ev, *p.polarization) for p in pulses}) > 1:
        raise SignalError("the pulses of a map call may differ only in duration")
    channels = build_channels(wp, finals, pulses[0])
    basis, matrices = _dyson_matrices(channels, mos)
    weights, peaks, skips = _weights(channels, energies, pulses, wp, mode, min_envelope)
    grid = build_hemisphere(energies[-1], resolution, resolution, q_max_inv_angstrom)
    shape, polarization = (len(pulses), wp.n_members, wp.n_members), pulses[0].polarization
    planar = momentum.planar_basis(basis)
    if planar is None:
        blocks = _lifted_kernel(shape, grid, energies, weights, basis, matrices, polarization)
    else:
        blocks = _folded_kernel(shape, grid, planar, energies, weights, matrices, polarization)
    values = [[np.zeros(grid.shape) for _ in times] for _ in pulses]
    for runs, kernel in blocks:
        kernel /= float(len(energies))
        for rasters, pulse_kernel in zip(values, kernel):
            for raster, v in zip(rasters, at_delays(pulse_kernel, phases)):
                for i, cols, part in runs:
                    raster[i, cols] = v[part]
    disc = math.sqrt(2.0 * ev_to_hartree(energies[-1])) / BOHR_ANGSTROM
    results = []
    for p, rasters, peak, skip in zip(pulses, values, peaks, skips):
        for e, skipped in zip(energies, skip):
            if skipped.any():
                log.info("map at %.3f eV skips channels %s (envelope < %g)", e,
                         [ch.index for ch, s in zip(channels, skipped) if s], min_envelope)
        meta = {"tau_fs": p.duration_fwhm_fs, "omega_in_ev": p.photon_energy_ev,
                "polarization": tuple(p.polarization), "mode": mode,
                "q_disc_inv_angstrom": disc,
                "channels": [dict(rec, envelope=float(pk), skipped=bool(s)) for rec, pk, s
                             in zip(channel_records(channels), peak[-1], skip[-1])]}
        if average is not None:
            meta["energy_average"] = average
        maps = [PMM(energy_ev=float(energy_ev), t_p_fs=float(t), values=read_only(v),
                    axis_x=grid.axis_x, axis_y=grid.axis_y, metadata=dict(meta))
                for t, v in zip(times, rasters)]
        results.append(maps[0] if single else maps)
    return results[0] if isinstance(pulse, ProbePulse) else results


def pmm_cut(energy_ev, t_p_fs, pulse, wp, finals, mos, resolution=201,
            q_max_inv_angstrom=None, mode="short",
            channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Hemispherical constant-energy cut at photoelectron energy eps (eV):
    a PMM for one delay t_p_fs, a list of PMMs for a 1-D delay sequence;
    for pulses that differ only in duration, one such result per pulse."""
    return _hemisphere_maps(energy_ev, [float(energy_ev)], t_p_fs, pulse, wp,
                            finals, mos, resolution, q_max_inv_angstrom, mode,
                            channel_min_envelope)


def average_energies(center_ev, width_ev, n_energies):
    """The n_energies photoelectron energies (eV) that energy_average_pmm
    averages over, evenly spaced on [center - w/2, center + w/2]; the
    center, the width, the count and the lowest energy are all checked."""
    photoelectron_energies(center_ev)
    if not 0 < width_ev < math.inf:
        raise SignalError(f"averaging width must be positive and finite, got {width_ev}")
    if n_energies < 2:
        raise SignalError("energy averaging needs at least 2 samples")
    return photoelectron_energies(np.linspace(center_ev - 0.5 * width_ev,
                                              center_ev + 0.5 * width_ev, int(n_energies)))


def energy_average_pmm(energy_center_ev, width_ev, n_energies, t_p_fs, pulse,
                       wp, finals, mos, resolution=201, q_max_inv_angstrom=None,
                       mode="short", channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Uniform average of pmm_cut over [center - w/2, center + w/2], with
    pmm_cut's results for one pulse or a sequence of them.

    Every energy keeps its own hemisphere (its own q_z), all sharing one
    (q_x, q_y) raster; raster samples outside a given energy's kinematic
    disc contribute zero at that energy. The average is taken over the
    kernels, so a delay series costs one (folded) kernel.
    """
    energies = average_energies(energy_center_ev, width_ev, n_energies)
    if q_max_inv_angstrom is None:
        e_au = ev_to_hartree(energy_center_ev)
        q_max_inv_angstrom = math.sqrt(2.0 * e_au) / BOHR_ANGSTROM
    average = {"center_ev": float(energy_center_ev), "width_ev": float(width_ev),
               "n_energies": int(n_energies)}
    return _hemisphere_maps(energy_center_ev, [float(e) for e in energies],
                            t_p_fs, pulse, wp, finals, mos, resolution,
                            q_max_inv_angstrom, mode, channel_min_envelope, average)


def _sphere_kernels(out, energies, weights, basis, matrices, polarization, n_polar,
                    n_azimuth):
    """Write Integral K dOmega at each energy into `out` (zeros), shape
    (M, M, n_energies), and return the angular method used: "closed-form"
    for LCAO orbitals over s and p primitives, the (n_polar, n_azimuth)
    sphere quadrature otherwise.

    Closed form: with G = D C^T the member rows over the shared primitives
    and A(k) their angle-integrated pair matrix from
    momentum.sphere_pair_matrices, Integral K_IJ dOmega =
    sum_{F,sigma} W_FIJ (conj(G) A G^T)_IJ, taken _ENERGY_BLOCK energies
    at a time: one pair_matrix call per block, and per channel and spin one
    batched product. Energies at which every W is zero stay 0.
    """
    live = np.flatnonzero(weights.any(axis=(0, 1, 2, 3)))
    closed = momentum.sphere_pair_matrices(basis, polarization)
    if closed is None:
        quadrature = sphere_quadrature(n_polar, n_azimuth)
        for k in live:
            grid = build_sphere(energies[k], n_polar, n_azimuth, quadrature)
            kernel, = _kernel(np.zeros((1,) + out.shape[:2] + (grid.n_samples,), complex),
                              grid, weights[..., k:k + 1], basis, matrices, polarization)
            out[..., k] = (kernel * grid.weights).sum(axis=-1)
        return (int(n_polar), int(n_azimuth))
    coeffs, pair_matrix = closed
    rows = [[d @ coeffs.T for d in mats] for mats in matrices]
    for start in range(0, len(live), _ENERGY_BLOCK):
        block = live[start:start + _ENERGY_BLOCK]
        a = pair_matrix(energies[block])
        for w, chrows in zip(weights[0], rows):
            if w[..., block].any():
                for g in chrows:
                    term = np.moveaxis(g.conj() @ a @ g.T, 0, -1)
                    out[..., block] += w[..., block] * term
    return "closed-form"


def angle_integrated_spectrum(energies_ev, t_p_fs, pulse, wp, finals, mos,
                              n_polar=48, n_azimuth=96, mode="short",
                              scenario="excited",
                              channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """S(eps) = q * Integral P dOmega on the listed photoelectron energies:
    a Spectrum for one delay t_p_fs, a list for a 1-D delay sequence.

    LCAO orbitals over s and p primitives are integrated over angles in
    closed form; other orbitals on the n_polar x n_azimuth sphere
    quadrature. The order is checked on both paths; metadata["angular"]
    names the method used.
    """
    energies = photoelectron_energies(energies_ev)
    if n_polar < 2 or n_azimuth < 4:
        raise MomentumError(f"unsupported quadrature order ({n_polar}, {n_azimuth})")
    times, phases, single = _delays(t_p_fs, wp)
    channels = build_channels(wp, finals, pulse)
    basis, matrices = _dyson_matrices(channels, mos)
    weights = _weights(channels, energies, [pulse], wp, mode, channel_min_envelope)[0]
    integrated = np.zeros((wp.n_members, wp.n_members, len(energies)), dtype=complex)
    angular = _sphere_kernels(integrated, energies, weights, basis, matrices,
                              pulse.polarization, n_polar, n_azimuth)
    integrated *= np.sqrt(2.0 * ev_to_hartree(energies))
    meta = {
        "tau_fs": pulse.duration_fwhm_fs,
        "omega_in_ev": pulse.photon_energy_ev,
        "polarization": tuple(pulse.polarization),
        "mode": mode,
        "angular": angular,
        "channels": channel_records(channels),
    }
    values = at_delays(integrated, phases)
    spectra = [Spectrum(energies_ev=energies, values=v, scenario=scenario,
                        metadata=dict(meta, t_p_fs=float(t)))
               for t, v in zip(times, values)]
    return spectra[0] if single else spectra


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
        off = orbital_offset(label)
        if off not in occupied:
            raise SignalError(f"binding energy given for unoccupied orbital {label!r}")
        state = ElectronicState(
            energy_ev=float(be),
            expansion=((1.0, algebra.one_hole_csf(occupied, off)),))
        finals.append((rank, state))
    return wp, finals
