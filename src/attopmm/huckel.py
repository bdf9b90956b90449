"""Tight-binding pi-orbital generator for pentacene.

Builds an idealized planar pentacene skeleton (five fused regular hexagons,
C-C 1.40 A, C-H 1.09 A) lying in the x-y plane with the long axis along x
and the short in-plane axis along y; the pi system points along z. Each
molecular orbital is an LCAO of one p_z Gaussian per carbon site.

Degenerate tight-binding eigenvalues (pentacene has pairs at +-|hopping|) are
resolved deterministically: the long-axis (x) reflection operator is
diagonalized inside every degenerate block and the block members are
ordered by (y parity, then x parity) ascending; the global sign of every
orbital makes its first coefficient above 1e-8 positive. This fixed
tie-breaking makes the output reproducible bit-for-bit.

The raw eigenvectors are orthonormal in the site (identity) metric but not
in real space, because neighboring p_z Gaussians overlap. The returned LCAO
coefficients are symmetrically orthogonalized, c_eff = S^{-1/2} c, with the
analytic p_z/p_z overlap matrix; the site-basis eigenvector is retained on
each orbital as `site_vector`. Symmetric orthogonalization commutes with
the molecular point-group permutations, so parity tags are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GaussianPrimitive,
    MolecularOrbital,
    angstrom_to_bohr,
    offset_label,
)

CC_BOND_ANGSTROM = 1.40
CH_BOND_ANGSTROM = 1.09
N_CARBON = 22
N_BOND = 26


class HuckelError(ValueError):
    """Inconsistent pi-system graph or eigenproblem."""


@dataclass(frozen=True)
class PiSystemGraph:
    """Carbon skeleton of a planar pi system.

    positions in Angstrom; adjacency as a tuple of index pairs.
    """

    positions: np.ndarray
    bonds: tuple

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3).copy()
        bonds = tuple(tuple(sorted((int(i), int(j)))) for i, j in self.bonds)
        if len(set(bonds)) != len(bonds):
            raise HuckelError("duplicate bonds in adjacency list")
        n = len(pos)
        if any(i == j or not (0 <= i < n and 0 <= j < n) for i, j in bonds):
            raise HuckelError("bond index out of range")
        # connectivity check (graph must be a single pi system)
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(n)}
        for i, j in bonds:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != n:
            raise HuckelError("pi-system graph is not connected")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "bonds", bonds)

    @property
    def n_sites(self):
        return len(self.positions)


def _pentacene_carbons():
    """22 carbon positions (Angstrom), centrosymmetric, x long / y short."""
    d = CC_BOND_ANGSTROM
    rt3 = math.sqrt(3.0)
    sites = []
    # rung pairs: vertical bonds shared between neighboring hexagons
    for k in (0.5, 1.5, 2.5):
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                sites.append((sx * k * rt3 * d, sy * d / 2.0, 0.0))
    # apex carbons on the zigzag edges
    for xk in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sy in (-1.0, 1.0):
            sites.append((xk * rt3 * d, sy * d, 0.0))
    order = sorted(range(len(sites)), key=lambda i: (round(sites[i][0], 9),
                                                     round(sites[i][1], 9)))
    return np.array([sites[i] for i in order], dtype=float)


def build_pentacene_graph():
    """Idealized planar pentacene: 22 carbons, 26 C-C bonds of 1.40 A."""
    pos = _pentacene_carbons()
    cutoff = CC_BOND_ANGSTROM * 1.05
    close = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1) < cutoff
    bonds = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(close, 1))))
    graph = PiSystemGraph(positions=pos, bonds=bonds)
    if graph.n_sites != N_CARBON or len(graph.bonds) != N_BOND:
        raise HuckelError(
            f"pentacene construction produced {graph.n_sites} sites / "
            f"{len(graph.bonds)} bonds, expected {N_CARBON}/{N_BOND}")
    return graph


def pentacene_atoms():
    """(atomic number, position Angstrom) for 22 C + 14 H (cube headers,
    density bounding boxes). Hydrogens complete the trigonal coordination."""
    graph = build_pentacene_graph()
    pos = graph.positions
    adj = {i: [] for i in range(len(pos))}
    for i, j in graph.bonds:
        adj[i].append(j)
        adj[j].append(i)
    atoms = [(6, tuple(p)) for p in pos]
    for i, neigh in adj.items():
        if len(neigh) != 2:
            continue
        u = np.zeros(3)
        for j in neigh:
            bond = pos[j] - pos[i]
            u += bond / np.linalg.norm(bond)
        direction = -u / np.linalg.norm(u)
        atoms.append((1, tuple(pos[i] + CH_BOND_ANGSTROM * direction)))
    return atoms


def _reflection_permutation(positions, axis):
    """Site permutation matrix of the reflection axis -> -axis."""
    n = len(positions)
    reflected = positions.copy()
    reflected[:, axis] *= -1.0
    perm = np.zeros((n, n))
    for i in range(n):
        dist = np.linalg.norm(positions - reflected[i], axis=1)
        j = int(np.argmin(dist))
        if dist[j] > 1e-6:
            raise HuckelError("geometry not symmetric under reflection")
        perm[j, i] = 1.0
    return perm


def _resolve_degenerate_blocks(energies, vectors, perm_x, perm_y):
    """Fixed tie-breaking inside degenerate eigenspaces (see module doc)."""
    n = len(energies)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and energies[j + 1] - energies[i] < 1e-9:
            j += 1
        if j > i:
            block = vectors[:, i:j + 1]
            mx = block.T @ perm_x @ block
            _, rot = np.linalg.eigh(mx)
            block = block @ rot
            par_y = np.diag(block.T @ perm_y @ block)
            par_x = np.diag(block.T @ perm_x @ block)
            order = np.lexsort((np.round(par_x), np.round(par_y)))
            vectors[:, i:j + 1] = block[:, order]
        i = j + 1
    return vectors


def _parity_tag(vec_or_coeff, perm):
    val = float(vec_or_coeff @ perm @ vec_or_coeff)
    if abs(abs(val) - 1.0) > 1e-6:
        return None
    return 1 if val > 0 else -1


def huckel_orbitals(p_exponent=1.0):
    """All 22 pentacene pi molecular orbitals, labeled H-10 ... H, L ... L+10.

    Returns a tuple ordered by energy (most bonding first). Each orbital is
    an LCAO of one p_z Gaussian (exponent bohr^-2) per carbon, with
    S^{-1/2}-orthogonalized coefficients, parity tags under the three
    Cartesian reflections, the tight-binding energy (on-site 0, hopping -1),
    and the raw site eigenvector.
    """
    graph = build_pentacene_graph()
    if not p_exponent > 0:
        raise HuckelError(f"p exponent must be positive, got {p_exponent}")
    n = graph.n_sites
    h = np.zeros((n, n))
    for i, j in graph.bonds:
        h[i, j] = -1.0
        h[j, i] = -1.0
    energies, vectors = np.linalg.eigh(h)

    perm_x = _reflection_permutation(graph.positions, 0)
    perm_y = _reflection_permutation(graph.positions, 1)
    vectors = _resolve_degenerate_blocks(energies, vectors, perm_x, perm_y)
    for k in range(n):
        col = vectors[:, k]
        lead = col[np.abs(col) > 1e-8]
        if len(lead) and lead[0] < 0:
            vectors[:, k] = -col

    centers_bohr = angstrom_to_bohr(graph.positions)
    prims = tuple(GaussianPrimitive(center=c, exponent=float(p_exponent),
                                    powers=(0, 0, 1)) for c in centers_bohr)
    # analytic overlap of equal-exponent parallel p_z at coplanar centers
    diff = centers_bohr[:, None, :] - centers_bohr[None, :, :]
    overlap = np.exp(-0.5 * p_exponent * np.einsum("ijk,ijk->ij", diff, diff))
    s_vals, s_vecs = np.linalg.eigh(overlap)
    if np.min(s_vals) <= 0:
        raise HuckelError("p-orbital overlap matrix not positive definite")
    s_inv_half = s_vecs @ np.diag(s_vals ** -0.5) @ s_vecs.T
    coeffs = s_inv_half @ vectors

    n_occ = n // 2
    orbitals = []
    for k in range(n):
        label = offset_label(k - (n_occ - 1))
        vec = vectors[:, k]
        parities = (_parity_tag(vec, perm_x), _parity_tag(vec, perm_y), -1)
        orbitals.append(MolecularOrbital(
            label=label, coefficients=coeffs[:, k], primitives=prims,
            parities=parities, energy=float(energies[k]), site_vector=vec))
    return tuple(orbitals)

