"""Observable synthesis: photoelectron probabilities for sudden (short
pulse) and finite-duration (long) probes, spectral envelopes,
constant-energy momentum maps, angle-integrated spectra, and
energy-resolution averaging.

Physics conventions:
  * the probe delay t_p enters only through the wave-packet member phases
    z_I(t_p) = C_I exp(-i E_I (t_p - t0)), so every probability is the
    bilinear form
        P(q, t_p) = sum_IJ Re[z_I*(t_p) z_J(t_p) K_IJ(q)],
        K_IJ(q)   = |eps_in . q|^2 sum_{F,sigma} W_FIJ(eps_e)
                    conj(R_FsigmaI(q)) R_FsigmaJ(q),
    with eps_e = |q|^2 / 2 and R_FsigmaI = D_FsigmaI @ F[orbitals](q) the
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
        P_FIJ = sum_e W_FIJ(eps) |eps_in . q_e|^2 |shape_factor(q_e)|^2,
    so a cut (one energy) or an energy average forms S once per sample
    block and its member-pair products once per channel and spin. Other
    orbital sets build one kernel per energy from momentum.orbital_ft;
  * pair weights: short pulse (sudden limit) W_FIJ = envelope_short, the
    probability-level window exp(-(Omega_F - eps_e)^2 tau^2 / (4 ln2)) with
    Omega_F = omega_in + <E> - E_F, for every member pair; finite-duration
    probe W_FIJ = g_FI g_FJ with the amplitude-level member envelope
    g_FI = envelope_long = exp(-(omega_in + E_I - E_F - eps_e)^2 tau^2
    / (8 ln2)), i.e. the envelopes sit inside the coherent member sum;
  * a channel whose largest diagonal weight max_I W_FII at the map or
    spectrum energy is below the threshold is left out of that kernel;
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
    2e-14 of the peak). Grid-backed orbitals, and primitives beyond p, are
    integrated on an n_polar x n_azimuth Gauss-Legendre x uniform-azimuth
    sphere quadrature instead.

All momenta entering ops in this module are atomic units; energies and
times cross the interface in eV/fs. Map, spectrum and probability
functions take one delay t_p_fs (one result) or a 1-D sequence of delays
(a list with one result per delay).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BOHR_ANGSTROM,
    HARTREE_EV,
    ElectronicState,
    ProbePulse,
    WavePacket,
    at_delays,
    ev_to_hartree,
    fs_to_au,
    occupied_offsets,
    phases_finite,
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
    """Amplitude-level member envelope with the 8 ln2 denominator; member
    and photoelectron energies broadcast against each other."""
    if not tau_fs > 0:
        raise SignalError("pulse duration must be positive")
    delta = ev_to_hartree(
        np.asarray(energy_ev, dtype=float) - (omega_in_ev + e_member_ev - e_final_ev))
    tau = fs_to_au(tau_fs)
    out = np.exp(-(delta * delta) * tau * tau / EIGHT_LN2)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# channels

@dataclass(frozen=True)
class SpectralChannel:
    """One ionic final state as seen by the probe.

    omega_ev = omega_in + <E> - E_F is the photoelectron energy the channel
    is centered at. dyson[sigma, I, p] = <F| a_{p sigma} |Psi_I> over the
    orbital offsets (algebra.dyson_matrices); time_dependent is True iff at
    least two wave-packet members have a nonzero entry; dyson_norm is the
    norm of the Dyson orbital at t0, |sum_I C_I dyson[sigma, I, p]|.
    """

    index: int
    final_energy_ev: float
    omega_ev: float
    dyson: np.ndarray
    offsets: tuple
    time_dependent: bool
    dyson_norm: float


def build_channels(wp: WavePacket, finals, pulse: ProbePulse):
    """SpectralChannel list for (index, ElectronicState) finals."""
    if not finals:
        raise SignalError("empty final-state list")
    offsets, dyson = algebra.dyson_matrices([state for _, state in finals], wp)
    dyson.flags.writeable = False
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

def _pair_weights(ch, eps_ev, pulse, wp, mode):
    """W_IJ of one channel at photoelectron energies eps_ev (eV), shape
    (M, M) + shape(eps_ev) in long mode. The short-mode window is shared by
    all pairs and kept once, shape (1, 1) + shape(eps_ev)."""
    tau = pulse.duration_fwhm_fs
    if mode == "short":
        env = envelope_short(ch.omega_ev, eps_ev, tau)
        return np.reshape(env, (1, 1) + np.shape(env))
    if mode == "long":
        members = np.array([e_i for _, e_i, _ in wp.members])
        env = envelope_long(pulse.photon_energy_ev,
                            members.reshape((-1,) + (1,) * np.ndim(eps_ev)),
                            ch.final_energy_ev, eps_ev, tau)
        return env[:, None] * env[None, :]
    raise SignalError(f"unknown probe mode {mode!r}")


def _screen(channels, energies_ev, pulse, wp, mode, min_envelope):
    """peaks[e, F] = max_I W_FII at energies_ev[e], and skip[e, F]: whether
    that peak is under min_envelope (channel F is then left out at energy e)."""
    peaks = np.array([np.max(np.diagonal(_pair_weights(ch, energies_ev, pulse, wp, mode)),
                             axis=-1) for ch in channels]).T
    return peaks, peaks < min_envelope


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


def _sample_factors(q, valid, pulse):
    """Photoelectron energy eps = |q|^2 / 2 (eV) of each sample (N, 3), and
    the polarization projection |eps_in . q|^2, zero where not valid."""
    eps_ev = 0.5 * np.einsum("ij,ij->i", q, q) * HARTREE_EV
    return eps_ev, (q @ pulse.polarization) ** 2 * valid


def _kernel(grid: MomentumGrid, basis, channels, matrices, skip, pulse, wp, mode,
            out=None):
    """K[I, J, n] at the grid samples (module docstring), shape
    (M, M, n_samples), added to `out` when given. Invalid samples and the
    channels flagged in skip add nothing; one member pair of one
    channel-spin term is held at a time, and a new kernel is allocated only
    after the orbital transforms."""
    n_members = wp.n_members
    shape = (n_members, n_members, grid.n_samples)
    if all(skip):
        return np.zeros(shape, dtype=complex) if out is None else out
    ft = momentum.orbital_ft(basis, grid)
    eps_ev, scale = _sample_factors(grid.samples, grid.valid, pulse)
    if out is None:
        out = np.zeros(shape, dtype=complex)
    for ch, mats, s in zip(channels, matrices, skip):
        if s:
            continue
        weights = np.broadcast_to(_pair_weights(ch, eps_ev, pulse, wp, mode),
                                  shape)
        for d in mats:
            rows = d @ ft
            for i, j in np.ndindex(n_members, n_members):
                out[i, j] += rows[i].conj() * rows[j] * weights[i, j] * scale
    return out


def _folded_kernel(raster: MomentumGrid, planar, energies, skips, channels,
                   matrices, pulse, wp, mode):
    """Sum over `energies` of the hemisphere kernels on one (q_x, q_y)
    raster for a planar basis (momentum.planar_basis), shape
    (M, M, n_samples), and the union of the energies' kinematic discs.

    Each transform is shape_factor(q) exp(-i q_z z0) S(q_x, q_y), and the z0
    phase cancels in conj(R_I) R_J, so with the energy-independent
    structure factors S

        sum_e K_IJ = sum_{F,sigma} conj(D S)_I (D S)_J P_FIJ,
        P_FIJ = sum_e W_FIJ(eps_e) |eps_in . q_e|^2 |shape_factor(q_e)|^2 valid_e,

    with q_e the raster point lifted to energy e and eps_e = |q_e|^2 / 2.
    The member-pair products run once per channel and spin, not once per
    energy. skips[e][F] leaves channel F out of energy e. Work is done
    block by block, so only the kernel is held at full size.
    """
    centers, coeffs, exponent, powers = planar
    n_members = wp.n_members
    out = np.zeros((n_members, n_members, raster.n_samples), dtype=complex)
    valid = np.zeros(raster.n_samples, dtype=bool)
    for start, stop, factors in momentum.structure_factors(raster, centers, coeffs):
        profiles = [None] * len(channels)
        for e, skip in zip(energies, skips):
            q, inside = momentum.lift_raster(raster, e, start, stop)
            valid[start:stop] |= inside
            if all(skip):
                continue
            eps_ev, scale = _sample_factors(q, inside, pulse)
            shape = momentum.shape_factor(exponent, powers, q)
            scale *= shape.real ** 2 + shape.imag ** 2
            for k, (ch, s) in enumerate(zip(channels, skip)):
                if not s:
                    term = _pair_weights(ch, eps_ev, pulse, wp, mode) * scale
                    profiles[k] = term if profiles[k] is None else profiles[k] + term
        for mats, profile in zip(matrices, profiles):
            if profile is None:
                continue
            profile = np.broadcast_to(profile, (n_members, n_members, stop - start))
            for d in mats:
                rows = d @ factors.T
                for i, j in np.ndindex(n_members, n_members):
                    out[i, j, start:stop] += rows[i].conj() * rows[j] * profile[i, j]
    return out, valid


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
    """Delays as a 1-D float array, and whether a single number was given;
    every member phase at every delay must be finite."""
    times = np.asarray(t_p_fs, dtype=float)
    if times.ndim > 1 or not times.size:
        raise SignalError("probe delay must be a number or a non-empty 1-D sequence")
    if not phases_finite(wp, times.reshape(-1)):
        raise SignalError("probe delay gives a non-finite wave-packet phase")
    return times.reshape(-1), times.ndim == 0


def probability(q, t_p_fs, pulse, wp, finals, mos, mode="short"):
    """Photoelectron probability at momentum q (a.u.), shape (3,) -> float
    or (N, 3) -> (N,) array; mode "short" (sudden limit) or "long"
    (per-member envelopes inside the coherent sum).

    q = 0 is a degenerate input (no photoelectron): the polarization
    projection zeroes it and the value is 0.
    """
    times, single = _delays(t_p_fs, wp)
    q = np.asarray(q, dtype=float)
    samples = q.reshape(-1, 3)
    grid = MomentumGrid(samples=samples, valid=np.ones(len(samples), dtype=bool))
    channels = build_channels(wp, finals, pulse)
    basis, matrices = _dyson_matrices(channels, mos)
    kernel = _kernel(grid, basis, channels, matrices, [False] * len(channels),
                     pulse, wp, mode)
    out = at_delays(kernel, wp, times)
    if q.ndim == 1:
        out = [float(v[0]) for v in out]
    return out[0] if single else out


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


def _hemisphere_maps(energy_ev, energies, t_p_fs, pulse, wp, finals, mos,
                     resolution, q_max_inv_angstrom, mode, min_envelope,
                     average=None):
    """Maps labeled energy_ev, averaged uniformly over the hemisphere cuts
    at `energies` (one energy: a plain cut), one per delay.

    The cuts share one (q_x, q_y) raster; a raster sample outside a given
    energy's kinematic disc contributes zero at that energy. A planar basis
    takes the folded kernel (one structure factor per raster), any other
    orbital set one _kernel per energy. Channel records and the disc radius
    are those of the last energy.
    """
    energies = photoelectron_energies(energies)
    times, single = _delays(t_p_fs, wp)
    channels = build_channels(wp, finals, pulse)
    basis, matrices = _dyson_matrices(channels, mos)
    peaks, skips = _screen(channels, energies, pulse, wp, mode, min_envelope)
    for e, skip in zip(energies, skips):
        skipped = [ch.index for ch, s in zip(channels, skip) if s]
        if skipped:
            log.info("map at %.3f eV skips channels %s (envelope < %g)",
                     e, skipped, min_envelope)
    planar = momentum.planar_basis(basis)
    if planar is None:
        total, valid = None, False
        for e, skip in zip(energies, skips):
            grid = build_hemisphere(e, resolution, resolution, q_max_inv_angstrom)
            valid = valid | grid.valid
            total = _kernel(grid, basis, channels, matrices, skip, pulse, wp, mode,
                            total)
    else:
        grid = build_hemisphere(energies[-1], resolution, resolution, q_max_inv_angstrom)
        total, valid = _folded_kernel(grid, planar, energies, skips, channels,
                                      matrices, pulse, wp, mode)
    total /= float(len(energies))
    records = [dict(rec, envelope=float(peak), skipped=bool(s))
               for rec, peak, s in zip(channel_records(channels), peaks[-1], skips[-1])]
    meta = {
        "tau_fs": pulse.duration_fwhm_fs,
        "omega_in_ev": pulse.photon_energy_ev,
        "polarization": tuple(pulse.polarization),
        "mode": mode,
        "q_disc_inv_angstrom": math.sqrt(2.0 * ev_to_hartree(energies[-1])) / BOHR_ANGSTROM,
        "channels": records,
    }
    if average is not None:
        meta["energy_average"] = average
    values = at_delays(total, wp, times)
    maps = [PMM(energy_ev=float(energy_ev), t_p_fs=float(t),
                values=np.where(valid, v, 0.0).reshape(grid.shape),
                axis_x=grid.axis_x, axis_y=grid.axis_y, metadata=dict(meta))
            for t, v in zip(times, values)]
    return maps[0] if single else maps


def pmm_cut(energy_ev, t_p_fs, pulse, wp, finals, mos, resolution=201,
            q_max_inv_angstrom=None, mode="short",
            channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Hemispherical constant-energy cut at photoelectron energy eps (eV):
    a PMM for one delay t_p_fs, a list of PMMs for a 1-D delay sequence."""
    return _hemisphere_maps(energy_ev, [float(energy_ev)], t_p_fs, pulse, wp,
                            finals, mos, resolution, q_max_inv_angstrom, mode,
                            channel_min_envelope)


def energy_average_pmm(energy_center_ev, width_ev, n_energies, t_p_fs, pulse,
                       wp, finals, mos, resolution=201, q_max_inv_angstrom=None,
                       mode="short", channel_min_envelope=DEFAULT_CHANNEL_MIN_ENVELOPE):
    """Uniform average of pmm_cut over [center - w/2, center + w/2].

    Every energy keeps its own hemisphere (its own q_z), all sharing one
    (q_x, q_y) raster; raster samples outside a given energy's kinematic
    disc contribute zero at that energy. The average is taken over the
    kernels, so a delay series costs one (folded) kernel.
    """
    photoelectron_energies(energy_center_ev)
    if not width_ev > 0:
        raise SignalError("averaging width must be positive")
    if n_energies < 2:
        raise SignalError("energy averaging needs at least 2 samples")
    if q_max_inv_angstrom is None:
        e_au = ev_to_hartree(energy_center_ev)
        q_max_inv_angstrom = math.sqrt(2.0 * e_au) / BOHR_ANGSTROM
    energies = np.linspace(energy_center_ev - 0.5 * width_ev,
                           energy_center_ev + 0.5 * width_ev, int(n_energies))
    average = {"center_ev": float(energy_center_ev), "width_ev": float(width_ev),
               "n_energies": int(n_energies)}
    return _hemisphere_maps(energy_center_ev, [float(e) for e in energies],
                            t_p_fs, pulse, wp, finals, mos, resolution,
                            q_max_inv_angstrom, mode, channel_min_envelope, average)


def _sphere_kernels(energies, channels, basis, matrices, pulse, wp, mode,
                    min_envelope, n_polar, n_azimuth):
    """q * Integral K dOmega at each energy, shape (M, M, n_energies), and
    the angular method used: "closed-form" for LCAO orbitals over s and p
    primitives, the (n_polar, n_azimuth) sphere quadrature otherwise.

    Closed form: with G = D C^T the member rows over the shared primitives
    and A(k) their angle-integrated pair matrix from
    momentum.sphere_pair_matrices, Integral K_IJ dOmega =
    sum_{F,sigma} W_FIJ (conj(G) A G^T)_IJ, a few M x P products per energy.
    """
    integrated = np.zeros((wp.n_members, wp.n_members, len(energies)), dtype=complex)
    _, skips = _screen(channels, energies, pulse, wp, mode, min_envelope)
    closed = momentum.sphere_pair_matrices(basis, pulse.polarization)
    if closed is None:
        quadrature = sphere_quadrature(n_polar, n_azimuth)
        for k, (e, skip) in enumerate(zip(energies, skips)):
            if not all(skip):
                grid = build_sphere(e, n_polar, n_azimuth, quadrature)
                kernel = _kernel(grid, basis, channels, matrices, skip, pulse, wp, mode)
                integrated[..., k] = (kernel * grid.weights).sum(axis=-1)
        angular = (int(n_polar), int(n_azimuth))
    else:
        coeffs, pair_matrix = closed
        weights = [_pair_weights(ch, energies, pulse, wp, mode) for ch in channels]
        rows = [[d @ coeffs.T for d in mats] for mats in matrices]
        for k, (e, skip) in enumerate(zip(energies, skips)):
            if all(skip):
                continue
            a = pair_matrix(e)
            for w, chrows, s in zip(weights, rows, skip):
                if not s:
                    for g in chrows:
                        integrated[..., k] += w[..., k] * (g.conj() @ a @ g.T)
        angular = "closed-form"
    return integrated * np.sqrt(2.0 * ev_to_hartree(energies)), angular


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
    times, single = _delays(t_p_fs, wp)
    channels = build_channels(wp, finals, pulse)
    basis, matrices = _dyson_matrices(channels, mos)
    integrated, angular = _sphere_kernels(
        energies, channels, basis, matrices, pulse, wp, mode,
        channel_min_envelope, n_polar, n_azimuth)
    meta = {
        "tau_fs": pulse.duration_fwhm_fs,
        "omega_in_ev": pulse.photon_energy_ev,
        "polarization": tuple(pulse.polarization),
        "mode": mode,
        "angular": angular,
        "channels": channel_records(channels),
    }
    values = at_delays(integrated, wp, times)
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
        from .model import orbital_offset
        off = orbital_offset(label)
        if off not in occupied:
            raise SignalError(f"binding energy given for unoccupied orbital {label!r}")
        state = ElectronicState(
            energy_ev=float(be),
            expansion=((1.0, algebra.one_hole_csf(occupied, off)),))
        finals.append((rank, state))
    return wp, finals
