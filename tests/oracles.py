"""Independent reference implementations used to cross-check the library.

Deliberately written in a different formalism from the package code:
numeric Gauss-Legendre quadrature instead of closed-form transforms,
angle integrals summed on a sphere quadrature instead of spherical-Bessel
pair matrices,
occupation-number (bitstring) second quantization instead of ordered
spin-orbital tuples, the general pairwise primitive overlap instead of the
closed-form p_z overlap matrix, the two-state density change expanded by
hand instead of contracted from member-pair density matrices, text writers
that call '%' once per value instead of formatting blocks of digits with
numpy, probabilities squared from phased member amplitudes one delay at a
time instead of member-pair kernels, and the folded map kernel's kinematic
factor from one lift and one shape_factor per energy instead of per-axis
factors, so agreement is evidence rather than tautology.
"""

import cmath
import math

import numpy as np

from attopmm import momentum, signal
from attopmm.model import (
    ATOMIC_TIME_FS,
    DOWN,
    HARTREE_EV,
    UP,
    GaussianPrimitive,
    ModelError,
    SlaterDeterminant,
    WavePacket,
    _double_factorial,
    at_delays,
    evaluate_orbital,
)
from attopmm.momentum import MomentumGrid, build_sphere, sphere_quadrature
from attopmm.signal import SignalError, envelope_long, envelope_short

TWO_PI = 2.0 * np.pi


def quadrature_ft(prim, q, n=None):
    """(2 pi)^{-3/2} * integral of e^{-i q.r} g(r) d^3r for one Cartesian
    Gaussian, by per-axis Gauss-Legendre quadrature on [-L, L] around the
    center with L = 8 / sqrt(alpha)."""
    q = np.asarray(q, dtype=float).reshape(3)
    alpha = prim.exponent
    half = 8.0 / np.sqrt(alpha)
    out = prim.norm * TWO_PI ** -1.5 + 0.0j
    for axis in range(3):
        order = n or max(60, int(abs(q[axis]) * half) + 40)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        u = nodes * half
        integrand = (u ** prim.powers[axis] * np.exp(-alpha * u * u)
                     * np.exp(-1j * q[axis] * u))
        out *= np.exp(-1j * q[axis] * prim.center[axis]) * half * np.dot(
            weights, integrand)
    return out


def gaussian_ft(prim, q):
    """Closed-form transform of a normalized primitive at q (a.u.), one
    primitive at a time with its own phase, where the package transforms
    every primitive of a basis at once.

    q has shape (3,) -> complex scalar, or (N, 3) -> complex (N,) array.
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    qs = q.reshape(-1, 3)
    out = np.full(len(qs), prim.norm * TWO_PI ** -1.5, dtype=complex)
    out *= np.exp(-1j * (qs @ prim.center))
    for axis, l in enumerate(prim.powers):
        out *= momentum._axis_factor(l, qs[:, axis], prim.exponent)
    return out[0] if single else out


def _overlap_1d(l1, l2, pa, pb, gamma):
    """1D overlap sum for Gaussians sharing product center offset pa, pb."""
    total = 0.0
    for i in range(l1 + 1):
        for j in range(l2 + 1):
            if (i + j) % 2:
                continue
            term = (math.comb(l1, i) * math.comb(l2, j)
                    * pa ** (l1 - i) * pb ** (l2 - j)
                    * _double_factorial(i + j - 1)
                    / (2.0 * gamma) ** ((i + j) // 2))
            total += term
    return total * math.sqrt(math.pi / gamma)


def primitive_overlap(p1: GaussianPrimitive, p2: GaussianPrimitive):
    """Analytic overlap integral of two normalized Cartesian primitives of
    any powers and exponents, one pair at a time."""
    gamma = p1.exponent + p2.exponent
    ab = p1.center - p2.center
    pre = math.exp(-p1.exponent * p2.exponent / gamma * float(ab @ ab))
    prod_center = (p1.exponent * p1.center + p2.exponent * p2.center) / gamma
    s = pre * p1.norm * p2.norm
    for axis in range(3):
        s *= _overlap_1d(p1.powers[axis], p2.powers[axis],
                         prod_center[axis] - p1.center[axis],
                         prod_center[axis] - p2.center[axis], gamma)
    return s


def orbital_overlap(mo1, mo2):
    """Analytic <mo1|mo2> = c1^T S c2 for LCAO orbitals, with S the
    primitive overlap matrix."""
    if not (mo1.is_lcao and mo2.is_lcao):
        raise ModelError("analytic overlap needs LCAO orbitals on both sides")
    s = np.array([[primitive_overlap(p1, p2) for p2 in mo2.primitives]
                  for p1 in mo1.primitives])
    return float(mo1.coefficients @ s @ mo2.coefficients)


# ---------------------------------------------------------------------------
# occupation-number second quantization

def _bits(det, spin_orbital_order):
    """Determinant -> occupation tuple over a fixed global spin-orbital list.

    Canonical determinant order coincides with the sorted global order, so
    the creation-operator string needs no extra reordering sign.
    """
    index = {so: k for k, so in enumerate(spin_orbital_order)}
    bits = [0] * len(spin_orbital_order)
    for so in det.spin_orbitals:
        bits[index[so]] = 1
    return tuple(bits)


def annihilate(det: SlaterDeterminant, orbital, spin):
    """Apply a_{orbital,spin} to a canonical determinant, one determinant at
    a time: (sign, determinant), or None when the spin-orbital is not
    occupied. The annihilation table of attopmm.algebra applies the same
    rule, the sign (-1)^k for position k of the canonical tuple, inline."""
    so = det.spin_orbitals
    try:
        k = so.index((int(orbital), int(spin)))
    except ValueError:
        return None
    return (-1 if k % 2 else 1), SlaterDeterminant(so[:k] + so[k + 1:])


def bit_annihilate(bits, k):
    """a_k on an occupation vector: (sign, new bits) or None if empty."""
    if not bits[k]:
        return None
    sign = -1 if sum(bits[:k]) % 2 else 1
    new = list(bits)
    new[k] = 0
    return sign, tuple(new)


def _state_bits(state, spin_orbital_order):
    table = {}
    for coeff, csf in state.expansion:
        for c_det, det in csf.expansion:
            key = _bits(det, spin_orbital_order)
            table[key] = table.get(key, 0.0) + float(coeff) * float(c_det)
    return table


def spin_orbital_basis(*states):
    """Sorted global spin-orbital list covering every determinant."""
    seen = set()
    for state in states:
        for _, csf in state.expansion:
            for _, det in csf.expansion:
                seen.update(det.spin_orbitals)
    return sorted(seen)


def dense_annihilation_map(final, initial):
    """<final| a_{orb,spin} |initial> for every spin-orbital, via occupation
    vectors. Returns {(orbital, spin): amplitude} without pruning."""
    order = spin_orbital_basis(final, initial)
    f_bits = _state_bits(final, order)
    i_bits = _state_bits(initial, order)
    out = {}
    for k, so in enumerate(order):
        amp = 0.0
        for bits, c_i in i_bits.items():
            hit = bit_annihilate(bits, k)
            if hit is None:
                continue
            sign, reduced = hit
            amp += f_bits.get(reduced, 0.0) * sign * c_i
        out[so] = amp
    return out


def dense_one_particle_matrix(bra, ket):
    """sum_sigma <bra| a+_{p sigma} a_{q sigma} |ket> for every orbital pair,
    as <a_{p sigma} bra | a_{q sigma} ket> over occupation vectors.
    Returns {(p, q): amplitude} without pruning."""
    order = spin_orbital_basis(bra, ket)
    reduced = []
    for state in (bra, ket):
        rows = {}  # k -> {reduced occupation vector: amplitude of a_k state}
        for bits, c in _state_bits(state, order).items():
            for k in range(len(order)):
                hit = bit_annihilate(bits, k)
                if hit is not None:
                    row = rows.setdefault(k, {})
                    row[hit[1]] = row.get(hit[1], 0.0) + hit[0] * c
        reduced.append(rows)
    out = {}
    for kp, (p, sp) in enumerate(order):
        for kq, (q, sq) in enumerate(order):
            if sp != sq:
                continue
            left, right = reduced[0].get(kp, {}), reduced[1].get(kq, {})
            amp = sum(c * right.get(bits, 0.0) for bits, c in left.items())
            out[(p, q)] = out.get((p, q), 0.0) + amp
    return out


def lcao_value(mo, points):
    """Direct LCAO sum, no library evaluation path."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    total = np.zeros(len(points))
    for c, prim in zip(mo.coefficients, mo.primitives):
        d = points - prim.center
        poly = np.ones(len(points))
        for axis in range(3):
            poly *= d[:, axis] ** prim.powers[axis]
        total += c * prim.norm * poly * np.exp(
            -prim.exponent * np.einsum("ij,ij->i", d, d))
    return total


# ---------------------------------------------------------------------------
# reference text writers: one '%'-formatted value at a time

def reference_write_cube(path, grid, atoms=(), comments=("", "")):
    """Gaussian cube with every value formatted by '% .8E' in a Python loop."""
    lines = []
    for c in (comments + ("", ""))[:2]:
        lines.append(str(c).replace("\n", " "))
    lines.append("%5d %12.6f %12.6f %12.6f" % ((len(atoms),) + tuple(grid.origin)))
    for ax in range(3):
        lines.append("%5d %12.6f %12.6f %12.6f"
                     % ((grid.counts[ax],) + tuple(grid.axes[ax])))
    for z, charge, pos in atoms:
        lines.append("%5d %12.6f %12.6f %12.6f %12.6f"
                     % (int(z), float(charge), pos[0], pos[1], pos[2]))
    flat = np.asarray(grid.values, dtype=float).ravel()
    for start in range(0, len(flat), 6):
        lines.append(" ".join("% .8E" % v for v in flat[start:start + 6]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_export_pmm(path, pmm, digest=None):
    """Momentum-map export with a per-sample disc test and '%.12e' loop."""
    from attopmm.io import _header_lines

    meta = {
        "format": "attopmm-pmm-1",
        "energy_ev": float(pmm.energy_ev),
        "t_p_fs": float(pmm.t_p_fs),
        "tau_fs": float(pmm.metadata.get("tau_fs", 0.0)),
        "omega_in_ev": float(pmm.metadata.get("omega_in_ev", 0.0)),
        "mode": pmm.metadata.get("mode", "short"),
        "normalization": "relative",
        "polarization": [float(v) for v in pmm.metadata.get("polarization",
                                                            (0.0, 0.0, 1.0))],
        "axis_x": [float(pmm.axis_x[0]), float(pmm.axis_x[-1]), len(pmm.axis_x)],
        "axis_y": [float(pmm.axis_y[0]), float(pmm.axis_y[-1]), len(pmm.axis_y)],
        "units": "q in 1/angstrom; probability relative",
    }
    disc = pmm.metadata.get("q_disc_inv_angstrom")
    if disc is not None:
        meta["q_disc_inv_angstrom"] = float(disc)
    avg = pmm.metadata.get("energy_average")
    if avg is not None:
        meta["energy_average"] = [avg["center_ev"], avg["width_ev"],
                                  avg["n_energies"]]
    if digest is not None:
        meta["config_digest"] = digest
    lines = _header_lines(meta)
    lines.append("# columns: q_x_inv_angstrom q_y_inv_angstrom probability")
    limit = float(disc) if disc is not None else float("inf")
    limit_sq = limit * limit * (1.0 + 1e-12)
    for i, x in enumerate(pmm.axis_x):
        for j, y in enumerate(pmm.axis_y):
            if x * x + y * y <= limit_sq:
                lines.append("\t".join("%.12e" % v for v in (x, y, pmm.values[i, j])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_export_spectra(path, spectra, digest=None):
    """Spectrum export with one '%.12e' call per table cell."""
    from attopmm.io import _header_lines

    energies = spectra[0].energies_ev
    meta = {"format": "attopmm-spectrum-1", "n_energies": len(energies)}
    if digest is not None:
        meta["config_digest"] = digest
    lines = _header_lines(meta)
    for k, s in enumerate(spectra):
        parts = [f"scenario={s.scenario}"]
        for key in ("t_p_fs", "tau_fs", "omega_in_ev", "mode"):
            if key in s.metadata:
                value = s.metadata[key]
                parts.append(f"{key}=%.12e" % value if isinstance(value, float)
                             else f"{key}={value}")
        lines.append(f"# column {k + 2}: " + " ".join(parts))
    lines.append("# columns: energy_ev "
                 + " ".join(s.scenario for s in spectra))
    for row in range(len(energies)):
        vals = [energies[row]] + [s.values[row] for s in spectra]
        lines.append("\t".join("%.12e" % v for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# probabilities one delay at a time
#
# Per channel and spin the member amplitudes are summed with explicit
# phases, then squared; the long mode puts the member envelopes inside that
# sum, one branch per mode. The package forms member-pair kernels instead.


class ReferenceAmplitudes:
    """Per (channel, spin, member) complex amplitude rows on one grid.

    row[c][spin][i] = sum over the nonzero member-i Dyson entries
    ch.dyson[spin, i, p] of that spin of coeff * F[orbital p](q); None when
    the member does not feed the spin.
    """

    def __init__(self, channels, mos, grid: MomentumGrid):
        table = {}
        for mo in mos:
            table[mo.offset] = mo
        needed = sorted({ch.offsets[p] for ch in channels
                         for _, _, p in zip(*np.nonzero(ch.dyson))})
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
                for member in ch.dyson[spin]:
                    terms = [(member[p], ch.offsets[p]) for p in np.flatnonzero(member)]
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


def _member_phases(wp: WavePacket, t_p_fs):
    """z_I = C_I e^{-i E_I (t - t0)} of each member, in complex scalars."""
    tau = (t_p_fs - wp.t0_fs) / ATOMIC_TIME_FS
    return [c * cmath.exp(-1j * (e / HARTREE_EV) * tau) for c, e, _ in wp.members]


def reference_probability(channels, amps: ReferenceAmplitudes, samples, wp, pulse,
                          t_p_fs, mode, skip=None, energy_ev=None):
    """Probability at each sample row. skip: boolean per channel. The
    envelopes are taken at energy_ev when given (the nominal energy of a
    hemisphere cut, where every sample has |q|^2 / 2 = energy_ev up to
    rounding), else at each sample's |q|^2 / 2."""
    if energy_ev is None:
        eps_ev = 0.5 * np.einsum("ij,ij->i", samples, samples) * HARTREE_EV
    else:
        eps_ev = float(energy_ev)
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
    return total * proj


# ---------------------------------------------------------------------------
# the folded map kernel's kinematic factor, one energy at a time

_structure_factors = momentum.structure_factors


def per_energy_structure_factors(grid, planar, energies_ev, polarization):
    """momentum.structure_factors with T formed per energy instead of per
    axis: for each block and energy one lift of the raster points to an
    (n, 3) stack, one complex shape_factor and one projection q @ eps."""
    _, _, exponent, powers = planar
    for index, s, _ in _structure_factors(grid, planar, energies_ev, polarization):
        qx, qy = grid.samples[index, 0], grid.samples[index, 1]
        table = np.zeros((len(energies_ev), len(index)))
        for e, row in zip(energies_ev, table):
            q, inside = momentum.lift(e / HARTREE_EV, qx, qy)
            shape = momentum.shape_factor(exponent, powers, q)
            row[:] = (q @ polarization) ** 2 * inside * (shape.real ** 2 + shape.imag ** 2)
        yield index, s, table


# ---------------------------------------------------------------------------
# angle-integrated spectra by sphere quadrature

def quadrature_spectrum(energies_ev, t_p_fs, pulse, wp, finals, mos, n_polar,
                        n_azimuth, mode="short",
                        min_envelope=signal.DEFAULT_CHANNEL_MIN_ENVELOPE):
    """S(eps) = q * sum_n w_n P(q_n) on an n_polar x n_azimuth product
    quadrature of each energy's sphere: the member-pair kernel on the
    sphere samples, summed with the quadrature weights. Returns one value
    array per delay in the 1-D sequence t_p_fs."""
    channels = signal.build_channels(wp, finals, pulse)
    basis, matrices = signal._dyson_matrices(channels, mos)
    quadrature = sphere_quadrature(n_polar, n_azimuth)
    integrated = np.zeros((wp.n_members, wp.n_members, len(energies_ev)), dtype=complex)
    weights, _, _ = signal._weights(channels, np.asarray(energies_ev, dtype=float),
                                    [pulse], wp, mode, min_envelope)
    for k, e in enumerate(energies_ev):
        grid = build_sphere(float(e), n_polar, n_azimuth, quadrature)
        kernel, = signal._kernel(
            np.zeros((1, wp.n_members, wp.n_members, grid.n_samples), dtype=complex),
            grid, weights[..., k:k + 1], basis, matrices, pulse.polarization)
        q_au = np.sqrt(2.0 * e / HARTREE_EV)
        integrated[..., k] = q_au * (kernel * grid.weights).sum(axis=-1)
    return at_delays(integrated, wp.phases(t_p_fs))


# ---------------------------------------------------------------------------
# closed-form density change of the two-state packet

def two_state_density(wp: WavePacket, mos, grid, times_fs):
    """Density-change values at each time for packets of the shape
    Psi_1 = a (h0 -> p0), Psi_2 = b1 (h0 -> p1) + b2 (h1 -> p0) (singlet
    excitations), from the hand-expanded CIS formula

        drho = |a z1 p0 + b1 z2 p1|^2 + |b2 C2|^2 p0^2 - |b1 C2|^2 h0^2
             - |a z1 h0 + b2 z2 h1|^2,     z_I = conj(C_I e^{-i E_I (t - t0)}).
    """
    (_, _, s1), (c2, _, s2) = wp.members
    ((a, csf1),) = s1.expansion
    h0, p0 = csf1.holes[0], csf1.particles[0]
    (b1, p1), = [(c, csf.particles[0]) for c, csf in s2.expansion
                 if csf.holes[0] == h0]
    (b2, h1), = [(c, csf.holes[0]) for c, csf in s2.expansion
                 if csf.particles[0] == p0]
    table = {mo.offset: mo for mo in mos}
    orb = {o: evaluate_orbital(table[o], grid) for o in (h0, p0, p1, h1)}
    out = []
    for t in times_fs:
        z1, z2 = np.conj(_member_phases(wp, t))
        particle = np.abs(a * z1 * orb[p0] + b1 * z2 * orb[p1]) ** 2
        hole = np.abs(a * z1 * orb[h0] + b2 * z2 * orb[h1]) ** 2
        out.append(particle + b2 ** 2 * abs(c2) ** 2 * orb[p0] ** 2
                   - b1 ** 2 * abs(c2) ** 2 * orb[h0] ** 2 - hole)
    return out


def block_gather_structure_factors(grid, planar):
    """S of momentum.structure_factors by the block-gather formula: per
    block of the disc, ex[i] and ey[j] gathered into two (n, P) arrays,
    multiplied elementwise, then by C; yields (index, S)."""
    centers, coeffs, _, _ = planar
    ny = grid.shape[1]
    qx, qy = grid.samples[::ny, 0], grid.samples[:ny, 1]
    ex = momentum._phases(np.outer(qx, centers[:, 0]))
    ey = momentum._phases(np.outer(qy, centers[:, 1]))
    disc = np.flatnonzero(grid.valid)
    for start in range(0, len(disc), momentum._SAMPLE_BLOCK):
        index = disc[start:start + momentum._SAMPLE_BLOCK]
        i, j = np.divmod(index, ny)
        phases = ex[i]
        phases *= ey[j]
        yield index, phases @ coeffs
