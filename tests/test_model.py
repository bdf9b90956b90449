import dataclasses
import math

import numpy as np
import pytest

from attopmm import algebra, cli, density, huckel, io, model, momentum, signal
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
    Record,
    VolumetricGrid,
    WavePacket,
    angstrom_to_bohr,
    canonical_determinant,
    ev_to_hartree,
    evaluate_orbital,
    fs_to_au,
    inv_angstrom_to_au,
    orbital_offset,
    offset_label,
    pz_overlap,
)
from attopmm.algebra import closed_shell_state, singlet_excitation_csf

from oracles import lcao_value, primitive_overlap


def test_unit_round_trips():
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, size=64)
    assert np.allclose(ev_to_hartree(x) * HARTREE_EV, x, rtol=1e-15)
    assert np.allclose(fs_to_au(x) * ATOMIC_TIME_FS, x, rtol=1e-15)
    assert np.allclose(angstrom_to_bohr(x) * BOHR_ANGSTROM, x, rtol=1e-15)
    assert np.allclose(inv_angstrom_to_au(x) / BOHR_ANGSTROM, x, rtol=1e-15)


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


def test_pz_overlap_matches_pairwise_overlap():
    # the closed form against the pairwise reference, centers off one plane
    rng = np.random.default_rng(3)
    centers = rng.uniform(-2.0, 2.0, (6, 3))
    alpha = 0.9
    prims = [GaussianPrimitive(center=c, exponent=alpha, powers=(0, 0, 1))
             for c in centers]
    ref = np.array([[primitive_overlap(a, b) for b in prims] for a in prims])
    assert np.allclose(pz_overlap(centers, alpha), ref, rtol=0.0, atol=1e-14)
    # coplanar centers: the d_z factor is exactly 1
    centers[:, 2] = 0.7
    d = centers[:, None, :] - centers[None, :, :]
    assert np.array_equal(pz_overlap(centers, alpha),
                          np.exp(-0.5 * alpha * np.einsum("ijk,ijk->ij", d, d)))


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
    T = wp.beat_period_fs()
    z0, z1 = wp.phases([0.0, T])
    # phase at t0 is the bare coefficient
    assert z0[0] == pytest.approx(1 / math.sqrt(2))
    # one full period restores the relative phase
    assert z1[1] / z1[0] == pytest.approx(z0[1] / z0[0], abs=1e-12)


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


# every record class of the package: the Record subclasses and the dataclasses
_RECORD_CLASSES = sorted(
    {cls for module in (algebra, cli, density, huckel, io, model, momentum, signal)
     for cls in vars(module).values()
     if isinstance(cls, type) and cls.__module__ == module.__name__
     and (issubclass(cls, Record) and cls is not Record or dataclasses.is_dataclass(cls))},
    key=lambda cls: cls.__name__)


@pytest.fixture(scope="module")
def records(scenario):
    """One instance of each record class, keyed by class."""
    wp, mo, pulse = scenario.wave_packet, scenario.mos[0], scenario.pulse
    state = wp.members[0][2]
    csf = state.expansion[0][1]
    raster = momentum.build_hemisphere(99.0, 3, 3)
    cube = VolumetricGrid(origin=np.zeros(3), axes=np.eye(3), counts=(2, 2, 2))
    frame = density.DensityFrame(cube, np.zeros((2, 2, 2)), 0.0)
    made = [mo.primitives[0], frame.grid, mo, pulse, csf.expansion[0][1], csf, state, wp,
            raster, signal.build_channels(wp, scenario.finals, pulse)[0],
            signal.PMM(99.0, 0.0, np.ones((3, 3)), raster.axis_x, raster.axis_y, {}),
            signal.Spectrum(np.array([95.0]), np.array([1.0]), "s", {}),
            scenario.table_rows[0], scenario, frame, huckel.build_pentacene_graph()]
    return {type(r): r for r in made}


@pytest.mark.parametrize("cls", _RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_are_read_only(records, cls):
    # no field can be assigned or deleted, no attribute added, and an array
    # field cannot be written through
    record = records[cls]
    names = ([f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls)
             else cls.__slots__)
    for name in names:
        value = getattr(record, name)
        assert not isinstance(value, np.ndarray) or not value.flags.writeable, name
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = None


def test_records_leave_caller_arrays_alone():
    # a record holds its own read-only arrays: the caller's stay writeable,
    # also when the record is refused, and later writes do not reach it
    a, ax, ax2 = np.ones((3, 2)), np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 2)
    pmm = signal.PMM(99.0, 0.0, a, ax, ax2, {})
    e, v, w = np.array([95.0, 96.0]), np.array([1.0, -1.0]), np.ones((2, 2, 2))
    with pytest.raises(signal.SignalError):
        signal.Spectrum(e, v, "s", {})
    cube = VolumetricGrid(origin=np.zeros(3), axes=np.eye(3), counts=(2, 2, 2), values=w)
    q, ok = np.ones((3, 3)), np.ones(3, dtype=bool)
    grid = momentum.MomentumGrid(samples=q, valid=ok, axis_x=ax, weights=ax)
    assert all(x.flags.writeable for x in (a, ax, ax2, e, v, w, q, ok))
    a[0, 0] = w[0, 0, 0] = q[0, 0] = ax[0] = 2.0
    ok[0] = False
    assert pmm.values[0, 0] == cube.values[0, 0, 0] == grid.samples[0, 0] == 1.0
    assert grid.valid[0] and grid.axis_x[0] == grid.weights[0] == -1.0
    # a read-only array that owns its memory is held as it is, so a grid
    # built from lift's samples and mask holds them without a copy
    frozen = model.read_only(np.ones((3, 2)))
    assert signal.PMM(99.0, 0.0, frozen, ax, ax2, {}).values is frozen
    samples, inside = momentum.lift(1.0, np.zeros(4), np.linspace(0.0, 2.0, 4))
    grid = momentum.MomentumGrid(samples=samples, valid=inside)
    assert grid.samples is samples and grid.valid is inside
