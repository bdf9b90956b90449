import math

import numpy as np
import pytest

from attopmm.model import (
    ATOMIC_TIME_FS,
    BOHR_ANGSTROM,
    DOWN,
    HARTREE_EV,
    UP,
    ElectronicState,
    GaussianPrimitive,
    ModelError,
    MolecularOrbital,
    ProbePulse,
    VolumetricGrid,
    WavePacket,
    angstrom_to_bohr,
    au_to_fs,
    au_to_inv_angstrom,
    bohr_to_angstrom,
    canonical_determinant,
    ev_to_hartree,
    evaluate_orbital,
    fs_to_au,
    hartree_to_ev,
    inv_angstrom_to_au,
    orbital_offset,
    offset_label,
    primitive_overlap,
    wave_packet_phase,
)
from attopmm.algebra import closed_shell_state, singlet_excitation_csf

from oracles import lcao_value


def test_unit_round_trips():
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, size=64)
    assert np.allclose(hartree_to_ev(ev_to_hartree(x)), x, rtol=1e-15)
    assert np.allclose(au_to_fs(fs_to_au(x)), x, rtol=1e-15)
    assert np.allclose(bohr_to_angstrom(angstrom_to_bohr(x)), x, rtol=1e-15)
    assert np.allclose(au_to_inv_angstrom(inv_angstrom_to_au(x)), x, rtol=1e-15)


def test_unit_values_pinned():
    assert ev_to_hartree(HARTREE_EV) == pytest.approx(1.0, rel=1e-15)
    assert fs_to_au(ATOMIC_TIME_FS) == pytest.approx(1.0, rel=1e-15)
    assert angstrom_to_bohr(BOHR_ANGSTROM) == pytest.approx(1.0, rel=1e-15)
    # momentum conversion is the inverse-length map
    assert inv_angstrom_to_au(1.0) == pytest.approx(BOHR_ANGSTROM, rel=1e-15)


def test_orbital_labels():
    assert orbital_offset("H") == 0
    assert orbital_offset("H-2") == -2
    assert orbital_offset("L") == 1
    assert orbital_offset("L+2") == 3
    for off in range(-12, 13):
        assert orbital_offset(offset_label(off)) == off
    with pytest.raises(ModelError):
        orbital_offset("X+1")
    with pytest.raises(ModelError):
        orbital_offset("H+1")


def test_primitive_normalization():
    # <g|g> = 1 for every power combination via the analytic overlap
    for powers in [(0, 0, 0), (0, 0, 1), (1, 0, 1), (2, 1, 0)]:
        p = GaussianPrimitive(center=(0.3, -0.2, 0.9), exponent=0.8,
                              powers=powers)
        assert primitive_overlap(p, p) == pytest.approx(1.0, abs=1e-12)


def test_primitive_overlap_displaced_s():
    # two unit s Gaussians, equal exponents: S = exp(-alpha |d|^2 / 2)
    alpha = 1.3
    d = np.array([0.4, -1.1, 0.25])
    a = GaussianPrimitive(center=(0, 0, 0), exponent=alpha, powers=(0, 0, 0))
    b = GaussianPrimitive(center=d, exponent=alpha, powers=(0, 0, 0))
    assert primitive_overlap(a, b) == pytest.approx(
        math.exp(-alpha * float(d @ d) / 2.0), rel=1e-12)


def test_primitive_overlap_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pa = GaussianPrimitive(center=rng.uniform(-1, 1, 3),
                               exponent=rng.uniform(0.4, 2.0),
                               powers=tuple(rng.integers(0, 3, 3)))
        pb = GaussianPrimitive(center=rng.uniform(-1, 1, 3),
                               exponent=rng.uniform(0.4, 2.0),
                               powers=tuple(rng.integers(0, 3, 3)))
        nodes, weights = np.polynomial.legendre.leggauss(90)
        half = 9.0
        x = nodes * half
        w = weights * half
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        wt = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        num = float(np.dot(wt, pa(pts) * pb(pts)))
        assert primitive_overlap(pa, pb) == pytest.approx(num, abs=5e-9)


def test_canonical_determinant_parity():
    sign, det = canonical_determinant([(1, DOWN), (0, UP)])
    assert sign == -1
    assert det.spin_orbitals == ((0, UP), (1, DOWN))
    sign2, det2 = canonical_determinant([(0, UP), (1, DOWN)])
    assert sign2 == 1 and det2 == det
    # odd permutation of three entries
    sign3, _ = canonical_determinant([(2, UP), (0, UP), (1, UP)])
    assert sign3 == 1  # cyclic = even
    sign4, _ = canonical_determinant([(1, UP), (0, UP), (2, UP)])
    assert sign4 == -1
    with pytest.raises(ModelError):
        canonical_determinant([(0, UP), (0, UP)])


def test_volumetric_grid_and_trilinear():
    prim = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=0.9,
                             powers=(0, 0, 1))
    mo = MolecularOrbital(label="pz", coefficients=np.array([1.0]),
                          primitives=(prim,))
    step = 0.08
    n = 121
    origin = [-(n - 1) / 2 * step] * 3
    grid = VolumetricGrid(origin=origin, axes=np.diag([step] * 3),
                          counts=(n, n, n))
    sampled = MolecularOrbital(
        label="pz-grid", grid=grid.with_values(
            evaluate_orbital(mo, grid.points()).reshape(grid.counts)))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.5, 2.5, size=(200, 3))
    exact = evaluate_orbital(mo, pts)
    approx = evaluate_orbital(sampled, pts)
    assert np.max(np.abs(exact - approx)) < 5e-3
    # outside the box the interpolant is zero by contract
    assert evaluate_orbital(sampled, np.array([[60.0, 0.0, 0.0]]))[0] == 0.0


def test_evaluate_orbital_matches_direct_sum():
    rng = np.random.default_rng(5)
    prims = tuple(GaussianPrimitive(center=rng.uniform(-2, 2, 3),
                                    exponent=float(rng.uniform(0.5, 1.5)),
                                    powers=(0, 0, 1)) for _ in range(6))
    mo = MolecularOrbital(label="t", coefficients=rng.uniform(-1, 1, 6),
                          primitives=prims)
    pts = rng.uniform(-3, 3, size=(50, 3))
    assert np.allclose(evaluate_orbital(mo, pts), lcao_value(mo, pts),
                       rtol=0, atol=1e-13)


def test_grid_evaluation_matches_direct_sum():
    # per-axis factors on a non-cubic diagonal grid against evaluate_orbital
    # at the same points; mixed shapes and off-grid centers
    rng = np.random.default_rng(9)
    prims = tuple(GaussianPrimitive(center=rng.uniform(-2, 2, 3),
                                    exponent=float(rng.uniform(0.5, 1.5)),
                                    powers=tuple(rng.integers(0, 3, size=3)))
                  for _ in range(7))
    mo = MolecularOrbital(label="t", coefficients=rng.uniform(-1, 1, 7),
                          primitives=prims)
    grid = VolumetricGrid(origin=(-3.1, -2.4, -1.7), axes=np.diag([0.21, 0.17, 0.29]),
                          counts=(31, 29, 13))
    direct = evaluate_orbital(mo, grid.points()).reshape(grid.counts)
    got = evaluate_orbital(mo, grid)
    assert got.shape == grid.counts
    assert np.max(np.abs(got - direct)) <= 1e-14 * np.max(np.abs(direct))
    # sheared axes have no per-axis factorization: the direct sum is used
    sheared = VolumetricGrid(origin=grid.origin, axes=[[0.2, 0.05, 0.0], [0.0, 0.2, 0.0],
                                                       [0.0, 0.0, 0.2]], counts=(9, 8, 7))
    assert np.array_equal(evaluate_orbital(mo, sheared),
                          evaluate_orbital(mo, sheared.points()).reshape(sheared.counts))


def _two_state_packet():
    occ = range(-10, 1)
    s1 = ElectronicState(energy_ev=3.539125, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    s2 = ElectronicState(energy_ev=4.260875, expansion=(
        (1 / math.sqrt(2), singlet_excitation_csf(occ, 0, 3)),
        (-1 / math.sqrt(2), singlet_excitation_csf(occ, -2, 1)),))
    c = 1 / math.sqrt(2)
    return WavePacket(members=((c, 3.539125, s1), (c, 4.260875, s2)), t0_fs=0.0)


def test_wave_packet_invariants():
    wp = _two_state_packet()
    assert wp.mean_energy_ev == pytest.approx(3.9, abs=1e-12)
    assert wp.beat_period_fs() == pytest.approx(5.730055, abs=1e-4)
    # phase at t0 is the bare coefficient
    assert wave_packet_phase(wp, 0, 0.0) == pytest.approx(1 / math.sqrt(2))
    # one full period restores both phases
    T = wp.beat_period_fs()
    rel0 = wave_packet_phase(wp, 1, 0.0) / wave_packet_phase(wp, 0, 0.0)
    rel1 = wave_packet_phase(wp, 1, T) / wave_packet_phase(wp, 0, T)
    assert rel1 == pytest.approx(rel0, abs=1e-12)


def test_wave_packet_norm_enforced():
    occ = range(-2, 1)
    st = ElectronicState(energy_ev=1.0, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    with pytest.raises(ModelError):
        WavePacket(members=((0.9, 1.0, st),), t0_fs=0.0)


def test_electronic_state_norm_cap():
    occ = range(-2, 1)
    with pytest.raises(ModelError):
        ElectronicState(energy_ev=1.0, expansion=(
            (0.9, singlet_excitation_csf(occ, 0, 1)),
            (0.9, singlet_excitation_csf(occ, -1, 1)),))


def test_probe_pulse_validation():
    ProbePulse(photon_energy_ev=100.0, polarization=(0, 0, 1),
               duration_fwhm_fs=0.5)
    with pytest.raises(ModelError):
        ProbePulse(photon_energy_ev=100.0, polarization=(0, 0, 2),
                   duration_fwhm_fs=0.5)
    with pytest.raises(ModelError):
        ProbePulse(photon_energy_ev=-5.0, polarization=(0, 0, 1),
                   duration_fwhm_fs=0.5)
    with pytest.raises(ModelError):
        ProbePulse(photon_energy_ev=100.0, polarization=(0, 0, 1),
                   duration_fwhm_fs=0.0)


def test_closed_shell_electron_count():
    st = ElectronicState(energy_ev=0.0, expansion=(
        (1.0, closed_shell_state(range(-10, 1))),))
    assert st.n_electrons == 22
