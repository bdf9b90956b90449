import numpy as np
import pytest

from attopmm.huckel import (
    HuckelError,
    PiSystemGraph,
    build_pentacene_graph,
    huckel_orbitals,
    pentacene_atoms,
)

from oracles import orbital_overlap


def test_pentacene_graph_counts():
    graph = build_pentacene_graph()
    assert graph.n_sites == 22
    assert len(graph.bonds) == 26
    # planar, centrosymmetric carbon frame
    assert np.allclose(graph.positions[:, 2], 0.0)
    centered = set(map(tuple, np.round(graph.positions, 9)))
    flipped = set(map(tuple, np.round(-graph.positions, 9)))
    assert centered == flipped


def test_graph_validation():
    line = np.array([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0], [2.8, 0.0, 0.0]])
    with pytest.raises(HuckelError):
        PiSystemGraph(positions=line, bonds=((0, 1), (1, 0)))
    with pytest.raises(HuckelError):
        PiSystemGraph(positions=line, bonds=((0, 1), (1, 5)))
    with pytest.raises(HuckelError):
        PiSystemGraph(positions=line, bonds=((0, 1),))  # site 2 disconnected


def test_alternant_energy_pairing():
    orbitals = huckel_orbitals()
    assert len(orbitals) == 22
    e = np.array([mo.energy for mo in orbitals])
    assert np.all(np.diff(e) >= -1e-12)
    # bipartite lattice: spectrum symmetric about the on-site energy
    assert np.allclose(e + e[::-1], 0.0, atol=1e-12)


def _reflected_sites(centers, axis):
    """Index of the site each site maps to under the reflection axis -> -axis."""
    mirrored = centers.copy()
    mirrored[:, axis] *= -1.0
    dist = np.linalg.norm(mirrored[:, None, :] - centers[None, :, :], axis=-1)
    assert np.allclose(dist.min(axis=1), 0.0, atol=1e-9)
    return np.argmin(dist, axis=1)


def test_frontier_parity_tags():
    # the parity of an orbital under a center reflection is c.P.c / c.c of
    # its own LCAO coefficients, +-1 for an eigenfunction of that reflection
    mos = {mo.label: mo for mo in huckel_orbitals()}
    centers = np.array([p.center for p in mos["H"].primitives])
    flips = [_reflected_sites(centers, axis) for axis in (0, 1)]
    expected = {
        "H-4": (1, 1), "H-3": (1, -1), "H-2": (-1, 1), "H-1": (-1, -1),
        "H": (1, -1), "L": (1, 1), "L+1": (-1, 1), "L+2": (-1, -1),
    }
    for label, want in expected.items():
        c = mos[label].coefficients
        got = [c @ c[flip] / (c @ c) for flip in flips]
        assert got == pytest.approx(want, abs=1e-12), label


def test_lcao_orthonormal_under_gaussian_metric():
    orbitals = huckel_orbitals()
    for i in (0, 7, 10, 11, 14, 21):
        for j in (0, 7, 10, 11, 14, 21):
            s = orbital_overlap(orbitals[i], orbitals[j])
            assert s == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_orbitals_deterministic():
    a = huckel_orbitals()
    b = huckel_orbitals()
    for mo_a, mo_b in zip(a, b):
        assert mo_a.coefficients.tobytes() == mo_b.coefficients.tobytes()
        assert mo_a.energy == mo_b.energy


def test_label_and_offset_lookup():
    orbitals = huckel_orbitals()
    by_label = {mo.label: mo for mo in orbitals}
    by_offset = {mo.offset: mo for mo in orbitals}
    assert by_label["H"] is by_offset[0]
    assert by_label["L"] is by_offset[1]
    assert by_label["H-10"] is by_offset[-10]
    assert by_label["L+10"] is by_offset[11]


def test_exponent_validation():
    with pytest.raises(HuckelError):
        huckel_orbitals(p_exponent=0.0)


def test_pentacene_atoms():
    atoms = pentacene_atoms()
    assert len(atoms) == 36
    zs = sorted(z for z, _ in atoms)
    assert zs.count(6) == 22 and zs.count(1) == 14
    pos = np.array([p for _, p in atoms])
    assert np.allclose(pos[:, 2], 0.0)
