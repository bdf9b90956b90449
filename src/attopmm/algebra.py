"""Second-quantization engine: CSF construction, and one annihilation table
A[I, (sigma, D), p] = <D| a_{p sigma} |Psi_I> per wave packet (D an N-1
electron determinant), the only place an annihilation sign is taken.
The member-pair density matrices are G[I, J, p, q] = sum_r A[I, r, p]
A[J, r, q]; the Dyson coefficients of a final state are its determinant
amplitudes over the same rows contracted with A.

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

import numpy as np

from .model import (
    DOWN,
    UP,
    ConfigurationStateFunction,
    ElectronicState,
    ModelError,
    WavePacket,
    canonical_determinant,
)

PRUNE_THRESHOLD = 1e-14  # below double-precision resolution of downstream sums


class AlgebraError(ValueError):
    """Inconsistent states handed to the overlap machinery."""


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
    return ConfigurationStateFunction(holes=(), particles=(),
                                      expansion=((float(sign), det),))


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
        holes=(hole,), particles=(particle,),
        expansion=_expand_pattern(core, (hole, particle), _SINGLET_PAIR))


def one_hole_csf(occupied, hole):
    """Doublet (M=+1/2) with a single hole: one canonical determinant."""
    hole = int(hole)
    occupied = sorted(int(o) for o in occupied)
    if hole not in occupied:
        raise ModelError(f"hole orbital {hole} not occupied in {occupied}")
    core = [o for o in occupied if o != hole]
    return ConfigurationStateFunction(
        holes=(hole,), particles=(),
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
            holes=(hole1, hole2), particles=(particle,),
            expansion=_expand_pattern(core, (particle,), ((1.0, "a"),)))
    if coupling not in _DOUBLET_PATTERNS:
        raise ModelError(
            f"two distinct holes need coupling 'udu' or 'uud', got {coupling!r}")
    core = [o for o in occupied if o not in (hole1, hole2)]
    opens = tuple(sorted((hole1, hole2))) + (particle,)
    return ConfigurationStateFunction(
        holes=tuple(sorted((hole1, hole2))), particles=(particle,),
        expansion=_expand_pattern(core, opens, _DOUBLET_PATTERNS[coupling]))


# ---------------------------------------------------------------------------
# annihilation table: density matrices and Dyson coefficients

def _determinant_amplitudes(state: ElectronicState):
    amp = {}
    for c_csf, csf in state.expansion:
        for c_det, det in csf.expansion:
            amp[det] = amp.get(det, 0.0) + c_csf * c_det
    return amp


def _annihilation_table(wp: WavePacket, orbitals=()):
    """(offsets, rows, A) with A[I, r, p] = <D_r| a_{p sigma_r} |Psi_I>.

    offsets: the sorted union of `orbitals` and every orbital a member
    determinant occupies (the columns p); rows: (sigma, spin-orbital tuple
    of the N-1 electron determinant D) -> row index r, over every
    determinant some a_{p sigma} reaches from a member. Removing position k
    of a canonical tuple keeps it canonical and carries the fermionic sign
    (-1)^k.
    """
    amplitudes = [_determinant_amplitudes(state) for _, _, state in wp.members]
    offsets = sorted({int(o) for o in orbitals}
                     | {orb for amp in amplitudes for det in amp
                        for orb, _ in det.spin_orbitals})
    column = {orb: k for k, orb in enumerate(offsets)}
    rows = {}
    entries = []
    for i, amp in enumerate(amplitudes):
        for det, c in amp.items():
            so = det.spin_orbitals
            for k, (orb, spin) in enumerate(so):
                row = rows.setdefault((spin, so[:k] + so[k + 1:]), len(rows))
                entries.append((i, row, column[orb], -c if k % 2 else c))
    table = np.zeros((wp.n_members, len(rows), len(offsets)))
    for i, row, col, c in entries:
        table[i, row, col] += c
    return tuple(offsets), rows, table


def member_pair_matrices(wp: WavePacket, orbitals=()):
    """Member-pair one-particle matrices of a wave packet.

    Returns (offsets, G) with G[I, J, p, q] = sum_sigma
    <a_{p sigma} Psi_I | a_{q sigma} Psi_J>, shape (M, M, n, n), over the
    sorted union of `orbitals` and every orbital a member determinant
    occupies. The one-particle density matrix at delay t is then
    gamma_pq(t) = sum_IJ z_I*(t) z_J(t) G[I, J, p, q].
    """
    offsets, _, table = _annihilation_table(wp, orbitals)
    return offsets, np.einsum("irp,jrq->ijpq", table, table)


def dyson_matrices(finals, wp: WavePacket):
    """Un-phased Dyson coefficients of N-1 electron final states.

    Returns (offsets, D) with D[F, sigma, I, p] = <F| a_{p sigma} |Psi_I>,
    shape (n_finals, 2, M, n), over the orbitals of member_pair_matrices;
    entries below PRUNE_THRESHOLD are 0. The Dyson orbital of final F at
    delay t has the coefficients sum_I z_I(t) D[F, sigma, I, p].
    """
    finals = list(finals)
    for final in finals:
        if final.n_electrons != wp.n_electrons - 1:
            raise AlgebraError(
                f"final state has {final.n_electrons} electrons, wave packet "
                f"{wp.n_electrons}; expected a difference of one")
    offsets, rows, table = _annihilation_table(wp)
    bras = np.zeros((len(finals), 2, len(rows)))
    for f, final in enumerate(finals):
        for det, c in _determinant_amplitudes(final).items():
            for spin in (UP, DOWN):
                row = rows.get((spin, det.spin_orbitals))
                if row is not None:
                    bras[f, spin, row] = c
    dyson = np.einsum("fsr,irp->fsip", bras, table)
    dyson[np.abs(dyson) < PRUNE_THRESHOLD] = 0.0
    return offsets, dyson
