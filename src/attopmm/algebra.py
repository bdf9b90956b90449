"""Second-quantization engine: annihilation on determinants and CSFs,
N/(N-1)-electron overlap channels, and Dyson-orbital assembly.

Sign conventions (fixed, and the basis for every regression here):
  * determinants are stored canonically (orbital offset ascending, up before
    down); annihilating the spin-orbital at position k of the canonical
    tuple carries the fermionic sign (-1)^k;
  * a CSF is built as (genealogical spin function over its open shells in
    coupling order) x (parity of the permutation sorting those open
    spin-orbitals into canonical order), with doubly occupied spectators
    prepended. Coupling order is: holes in label order, then the particle.
  * genealogical doublet couplings of three open shells: "udu" couples the
    first two shells to a singlet, "uud" to a triplet; the letters are the
    +1/2 / -1/2 steps of the spin branching diagram.

Global phases of CI states are not observable; regressions assert channel
magnitudes and relative phases only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DOWN,
    UP,
    ConfigurationStateFunction,
    ElectronicState,
    ModelError,
    SlaterDeterminant,
    WavePacket,
    canonical_determinant,
    wave_packet_phase,
)

PRUNE_THRESHOLD = 1e-14  # below double-precision resolution of downstream sums


class AlgebraError(ValueError):
    """Inconsistent states handed to the overlap machinery."""


def annihilate(det: SlaterDeterminant, orbital, spin):
    """Apply a_{orbital,spin} to a canonical determinant.

    Returns (sign, determinant) or None when the spin-orbital is not
    occupied (a vacuum miss is a normal zero outcome, not an error).
    """
    target = (int(orbital), int(spin))
    so = det.spin_orbitals
    try:
        k = so.index(target)
    except ValueError:
        return None
    sign = -1 if k % 2 else 1
    return sign, SlaterDeterminant(so[:k] + so[k + 1:])


# ---------------------------------------------------------------------------
# CSF construction

_SPIN_OF = {"a": UP, "b": DOWN}

# genealogical doublet couplings for three open shells, M = +1/2
_DOUBLET_PATTERNS = {
    "udu": ((1.0 / math.sqrt(2.0), "aba"), (-1.0 / math.sqrt(2.0), "baa")),
    "uud": ((2.0 / math.sqrt(6.0), "aab"),
            (-1.0 / math.sqrt(6.0), "aba"),
            (-1.0 / math.sqrt(6.0), "baa")),
}

_SINGLET_PAIR = ((1.0 / math.sqrt(2.0), "ab"), (-1.0 / math.sqrt(2.0), "ba"))


def _expand_pattern(core_orbitals, open_orbitals, pattern):
    """Spin pattern over open shells -> canonical determinant expansion."""
    core = []
    for o in core_orbitals:
        core.append((o, UP))
        core.append((o, DOWN))
    expansion = []
    for coeff, spins in pattern:
        so = list(core) + [(o, _SPIN_OF[s]) for o, s in zip(open_orbitals, spins)]
        sign, det = canonical_determinant(so)
        expansion.append((coeff * sign, det))
    return tuple(expansion)


def closed_shell_state(occupied):
    """All listed orbitals doubly occupied: the reference configuration."""
    occupied = sorted(int(o) for o in occupied)
    sign, det = canonical_determinant(
        [(o, s) for o in occupied for s in (UP, DOWN)])
    csf = ConfigurationStateFunction(
        holes=(), particles=(), spin=0.0, projection=0.0,
        expansion=((float(sign), det),))
    return csf


def singlet_excitation_csf(occupied, hole, particle):
    """Spin-adapted single excitation hole -> particle out of a closed shell.

    Equals (1/sqrt(2)) (a^+_{p,up} a_{h,up} + a^+_{p,down} a_{h,down}) |ref>.
    """
    hole, particle = int(hole), int(particle)
    occupied = sorted(int(o) for o in occupied)
    if hole not in occupied or particle in occupied:
        raise ModelError(f"excitation {hole}->{particle} invalid for {occupied}")
    core = [o for o in occupied if o != hole]
    return ConfigurationStateFunction(
        holes=(hole,), particles=(particle,), spin=0.0, projection=0.0,
        expansion=_expand_pattern(core, (hole, particle), _SINGLET_PAIR))


def one_hole_csf(occupied, hole):
    """Doublet (M=+1/2) with a single hole: one canonical determinant."""
    hole = int(hole)
    occupied = sorted(int(o) for o in occupied)
    if hole not in occupied:
        raise ModelError(f"hole orbital {hole} not occupied in {occupied}")
    core = [o for o in occupied if o != hole]
    return ConfigurationStateFunction(
        holes=(hole,), particles=(), spin=0.5, projection=0.5,
        expansion=_expand_pattern(core, (hole,), ((1.0, "a"),)))


def two_hole_one_particle_csf(occupied, hole1, hole2, particle, coupling=""):
    """Doublet (M=+1/2) with two holes and one particle.

    hole1 == hole2 empties that orbital and leaves the single particle
    electron (no coupling tag). Distinct holes leave three open shells and
    need coupling "udu" or "uud".
    """
    hole1, hole2, particle = int(hole1), int(hole2), int(particle)
    occupied = sorted(int(o) for o in occupied)
    if hole1 not in occupied or hole2 not in occupied:
        raise ModelError(f"holes ({hole1},{hole2}) not occupied in {occupied}")
    if particle in occupied:
        raise ModelError(f"particle orbital {particle} already occupied")
    if hole1 == hole2:
        if coupling:
            raise ModelError("closed double hole takes no coupling tag")
        core = [o for o in occupied if o != hole1]
        return ConfigurationStateFunction(
            holes=(hole1, hole2), particles=(particle,), spin=0.5, projection=0.5,
            expansion=_expand_pattern(core, (particle,), ((1.0, "a"),)))
    if coupling not in _DOUBLET_PATTERNS:
        raise ModelError(
            f"two distinct holes need coupling 'udu' or 'uud', got {coupling!r}")
    core = [o for o in occupied if o not in (hole1, hole2)]
    opens = tuple(sorted((hole1, hole2))) + (particle,)
    return ConfigurationStateFunction(
        holes=tuple(sorted((hole1, hole2))), particles=(particle,),
        spin=0.5, projection=0.5, coupling=coupling,
        expansion=_expand_pattern(core, opens, _DOUBLET_PATTERNS[coupling]))


# ---------------------------------------------------------------------------
# overlaps and Dyson orbitals

def _determinant_amplitudes(state: ElectronicState):
    amp = {}
    for c_csf, csf in state.expansion:
        for c_det, det in csf.expansion:
            amp[det] = amp.get(det, 0.0) + c_csf * c_det
    return amp


def csf_overlap_map(final: ElectronicState, initial_csf: ConfigurationStateFunction):
    """All channels (orbital, spin, <final| a_{orbital,spin} |initial_csf>).

    Channels are sorted by (orbital, spin); coefficients below the pruning
    threshold are dropped.
    """
    if final.n_electrons != initial_csf.n_electrons - 1:
        raise AlgebraError(
            f"final state has {final.n_electrons} electrons, initial CSF "
            f"{initial_csf.n_electrons}; expected a difference of one")
    famp = _determinant_amplitudes(final)
    channels = {}
    for c_det, det in initial_csf.expansion:
        for orb, spin in det.spin_orbitals:
            res = annihilate(det, orb, spin)
            if res is None:
                continue
            sign, reduced = res
            bra = famp.get(reduced)
            if bra is None:
                continue
            key = (orb, spin)
            channels[key] = channels.get(key, 0.0) + bra * sign * c_det
    return [(orb, spin, c) for (orb, spin), c in sorted(channels.items())
            if abs(c) >= PRUNE_THRESHOLD]


def state_overlap_map(final: ElectronicState, initial: ElectronicState):
    """csf_overlap_map summed over the initial state's CI expansion."""
    if final.basis is not None and initial.basis is not None \
            and final.basis != initial.basis:
        raise AlgebraError(
            f"states built on different orbital bases: "
            f"{final.basis!r} vs {initial.basis!r}")
    channels = {}
    for c_csf, csf in initial.expansion:
        for orb, spin, c in csf_overlap_map(final, csf):
            key = (orb, spin)
            channels[key] = channels.get(key, 0.0) + c_csf * c
    return {k: c for k, c in sorted(channels.items()) if abs(c) >= PRUNE_THRESHOLD}


def member_pair_matrices(wp: WavePacket, orbitals=()):
    """Member-pair one-particle matrices of a wave packet.

    Returns (offsets, G) with G[I, J, p, q] = sum_sigma
    <a_{p sigma} Psi_I | a_{q sigma} Psi_J>, shape (M, M, n, n), over the
    sorted union of `orbitals` and every orbital a member determinant
    occupies. The one-particle density matrix at delay t is then
    gamma_pq(t) = sum_IJ z_I*(t) z_J(t) G[I, J, p, q].
    """
    amplitudes = [_determinant_amplitudes(state) for _, _, state in wp.members]
    offsets = sorted({int(o) for o in orbitals}
                     | {orb for amp in amplitudes for det in amp
                        for orb, _ in det.spin_orbitals})
    column = {orb: k for k, orb in enumerate(offsets)}
    rows = {}  # (spin, N-1 electron determinant) -> row of a_{p sigma} Psi_I
    entries = []
    for i, amp in enumerate(amplitudes):
        for det, c in amp.items():
            for orb, spin in det.spin_orbitals:
                sign, reduced = annihilate(det, orb, spin)
                row = rows.setdefault((spin, reduced), len(rows))
                entries.append((i, row, column[orb], sign * c))
    reduced = np.zeros((wp.n_members, len(rows), len(offsets)))
    for i, row, col, c in entries:
        reduced[i, row, col] += c
    return tuple(offsets), np.einsum("irp,jrq->ijpq", reduced, reduced)


@dataclass(frozen=True)
class DysonOrbital:
    """Overlap <final | psi-hat(r) | wave packet(t_p)> resolved on orbitals.

    terms: ((coefficient complex, orbital offset, spin), ...), one entry per
    (orbital, spin), pruned. per_member holds the un-phased decomposition
    per wave-packet member (the coefficients still to be multiplied by
    C_I e^{-i E_I (t_p - t0)}), needed by the finite-duration pipeline.
    """

    terms: tuple
    per_member: tuple  # tuple over members of ((coeff, orbital, spin), ...)
    provenance: tuple = (None, None)  # (final-state index, t_p fs)

    def norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c, _, _ in self.terms))


def assemble_dyson(final: ElectronicState, wp: WavePacket, t_p_fs,
                   final_index=None):
    """Dyson orbital of `final` against the evolved wave packet at t_p."""
    if final.n_electrons != wp.n_electrons - 1:
        raise AlgebraError("final state must have one electron fewer than "
                           "the wave packet")
    per_member = []
    for _, _, state in wp.members:
        chan = state_overlap_map(final, state)
        per_member.append(tuple((c, orb, spin) for (orb, spin), c in chan.items()))
    merged = {}
    for i in range(wp.n_members):
        phase = wave_packet_phase(wp, i, t_p_fs)
        for c, orb, spin in per_member[i]:
            key = (orb, spin)
            merged[key] = merged.get(key, 0j) + phase * c
    terms = tuple((c, orb, spin) for (orb, spin), c in sorted(merged.items())
                  if abs(c) >= PRUNE_THRESHOLD)
    return DysonOrbital(terms=terms, per_member=tuple(per_member),
                        provenance=(final_index, t_p_fs))
