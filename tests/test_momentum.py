import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attopmm import io
from attopmm.huckel import huckel_orbitals
from attopmm.model import (
    BOHR_ANGSTROM,
    GaussianPrimitive,
    MolecularOrbital,
    VolumetricGrid,
    ev_to_hartree,
    evaluate_orbital,
    inv_angstrom_to_au,
)
from attopmm.momentum import (
    _GRID_ELEMENTS,
    _SAMPLE_BLOCK,
    MomentumError,
    MomentumGrid,
    _axis_factor,
    build_hemisphere,
    build_sphere,
    lift,
    orbital_ft,
    planar_basis,
    spherical_bessel,
    sphere_pair_matrices,
    sphere_quadrature,
    structure_factors,
)

from attopmm.signal import PMM

from oracles import block_gather_structure_factors, gaussian_ft, quadrature_ft, run_index


def test_s_type_at_zero_momentum():
    prim = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=1.0, powers=(0, 0, 0))
    got = gaussian_ft(prim, np.zeros(3))
    # (2 pi)^(-3/2) * (2/pi)^(3/4) * (pi)^(3/2) for a unit-exponent s function
    assert got == pytest.approx((2.0 * math.pi) ** -0.75, abs=1e-15)
    assert got.imag == 0.0
    assert quadrature_ft(prim, np.zeros(3)) == pytest.approx(got, abs=1e-12)


def test_random_primitives_match_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(20):
        prim = GaussianPrimitive(
            center=rng.uniform(-2.0, 2.0, size=3),
            exponent=rng.uniform(0.3, 3.0),
            powers=tuple(rng.integers(0, 3, size=3)))
        q = rng.uniform(-3.0, 3.0, size=3)
        closed = gaussian_ft(prim, q)
        quad = quadrature_ft(prim, q)
        assert abs(closed - quad) <= 1e-6 * max(abs(closed), 1e-3)


def test_axis_factor_matches_hermval():
    # the written-out Hermite recurrence is numpy's hermval operation for
    # operation: equal bytes, signed zeros, infinities and nan included
    hermval = np.polynomial.hermite.hermval
    k = np.array([0.0, -0.0, 5e-324, -1e-300, 0.3, -0.3, 2.5, -7.0, 40.0, -1e3,
                  1e10, -1e10, 1e80, -1e160, 1e300, -1e300,
                  *np.random.default_rng(3).normal(scale=6.0, size=400)])
    for exponent in (0.35, 1.0, 7.5):
        root = math.sqrt(exponent)
        with np.errstate(all="ignore"):
            base = math.sqrt(math.pi / exponent) * np.exp(-(k * k) / (4.0 * exponent))
            for l in range(5):
                want = base.astype(complex) if l == 0 else (
                    base * hermval(k / (2.0 * root), [0.0] * l + [1.0])
                    * (-1j / (2.0 * root)) ** l)
                got = _axis_factor(l, k, exponent)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), l


def test_translation_covariance():
    rng = np.random.default_rng(11)
    base = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=0.8, powers=(1, 0, 2))
    for _ in range(5):
        d = rng.uniform(-3.0, 3.0, size=3)
        moved = GaussianPrimitive(center=d, exponent=0.8, powers=(1, 0, 2))
        q = rng.uniform(-4.0, 4.0, size=(7, 3))
        expected = np.exp(-1j * (q @ d)) * gaussian_ft(base, q)
        assert np.allclose(gaussian_ft(moved, q), expected, atol=1e-12)


def test_pz_transform_odd_in_qz():
    prim = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=1.2, powers=(0, 0, 1))
    q = np.array([[0.3, -0.7, 0.9], [0.3, -0.7, -0.9]])
    vals = gaussian_ft(prim, q)
    assert vals[0] == pytest.approx(-vals[1], abs=1e-15)
    # odd polynomial x even Gaussian: purely imaginary at real q
    assert abs(vals[0].real) < 1e-15
    assert gaussian_ft(prim, np.array([0.3, -0.7, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_orbital_ft_linear_in_coefficients():
    prims = (GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=1.0, powers=(0, 0, 1)),
             GaussianPrimitive(center=(1.5, 0.0, 0.0), exponent=1.0, powers=(0, 0, 1)))
    grid = build_sphere(10.0, n_polar=6, n_azimuth=8)
    mo = MolecularOrbital(label="pair", coefficients=(0.3, -1.1), primitives=prims)
    (combo,) = orbital_ft([mo], grid)
    parts = [orbital_ft([MolecularOrbital(label=f"p{i}", coefficients=(1.0,),
                                          primitives=(prims[i],))], grid)[0]
             for i in range(2)]
    assert np.allclose(combo, 0.3 * parts[0] - 1.1 * parts[1], atol=1e-14)


def test_hemisphere_geometry_at_99ev():
    grid = build_hemisphere(99.0, 201, 201)
    assert grid.axis_x[-1] == pytest.approx(5.097489076422, abs=1e-9)
    assert grid.axis_x[0] == -grid.axis_x[-1]
    assert grid.shape == (201, 201)
    # every valid sample is on shell and in the upper half space
    e_au = 99.0 / 27.211386
    v = grid.samples[grid.valid]
    assert np.allclose(0.5 * np.sum(v ** 2, axis=1), e_au, atol=1e-12)
    assert np.all(v[:, 2] >= 0.0)
    # frozen count: tolerance keeps boundary lattice points deterministic
    assert int(np.sum(grid.valid)) == 31417
    assert int(np.sum(build_hemisphere(99.0, 31, 31).valid)) == 709


# rasters: odd, even, non-square either way (lines holding one sample),
# --qmax inside the disc (full lines) and beyond it (empty lines), grid 2
# with no sample on the disc and with every sample on it, and a raster
# whose middle column touches the disc at the two rim lines only
_RASTERS = [(99.0, 201, 201, None), (99.0, 200, 200, None), (99.0, 201, 151, None),
            (99.0, 151, 201, None), (97.0, 101, 101, 3.0), (97.0, 101, 64, 8.0),
            (99.0, 2, 2, None), (99.0, 2, 2, 3.0), (99.0, 2, 3, None)]


def _span_points(spans):
    """(rows, columns) of the samples of line spans, in C order."""
    line, first, count = spans
    columns = [np.arange(f, f + c) for f, c in zip(first, count)]
    return np.repeat(line, count), np.concatenate(columns or [np.zeros(0, int)])


@pytest.mark.parametrize("raster", _RASTERS, ids=lambda r: "x".join(map(str, r[1:])))
def test_raster_spans_are_the_disc_masks(raster, monkeypatch):
    # a raster's disc (the kernel) and an exported map's rows each keep the
    # mask they replace: lift's on the C-order points and the exporter's
    # |q|^2 <= limit^2 (1 + 1e-12) test; and the samples a raster forms on
    # request are lift's, bit for bit
    energy, nx, ny, q_max = raster
    grid = build_hemisphere(energy, nx, ny, q_max)
    e_au = ev_to_hartree(energy)
    qx = inv_angstrom_to_au(grid.axis_x)[:, None] * np.ones(ny)[None, :]
    qy = np.ones(nx)[:, None] * inv_angstrom_to_au(grid.axis_y)[None, :]
    samples, valid = lift(e_au, qx.ravel(), qy.ravel())
    for got, want in zip(_span_points(grid.spans), np.nonzero(valid.reshape(nx, ny))):
        assert np.array_equal(got, want)
    assert grid.samples.tobytes() == samples.tobytes()
    assert np.array_equal(grid.valid, valid) and grid.n_samples == nx * ny
    disc = math.sqrt(2.0 * e_au) / BOHR_ANGSTROM
    limit_sq = disc * disc * (1.0 + 1e-12)
    inside = ((grid.axis_x * grid.axis_x)[:, None] + (grid.axis_y * grid.axis_y)[None, :]
              <= limit_sq)
    written = []
    monkeypatch.setattr(io, "_write_map_rows", lambda fh, ax, ay, spans, v: written.append(spans))
    pmm = PMM(energy, 0.0, np.zeros((nx, ny)), grid.axis_x, grid.axis_y,
              {"q_disc_inv_angstrom": disc})
    io.export_pmm(Path(os.devnull), pmm)
    for got, want in zip(_span_points(written[0]), np.nonzero(inside)):
        assert np.array_equal(got, want)
    assert np.count_nonzero(valid) == grid.spans[2].sum() <= nx * ny


def test_hemisphere_boundary_tolerance():
    # axis extremes land exactly on the kinematic circle and must stay valid
    grid = build_hemisphere(99.0, 201, 201)
    mask = grid.valid.reshape(grid.shape)
    assert mask[0, 100] and mask[100, 0] and mask[200, 100] and mask[100, 200]
    # Pythagorean lattice pairs (60, 80, 100 sublattice) also sit on the rim
    assert mask[100 + 60, 100 + 80]
    assert not mask[0, 0]


def test_hemisphere_rejects_bad_energy():
    with pytest.raises(MomentumError):
        build_hemisphere(0.0, 11, 11)
    with pytest.raises(MomentumError):
        build_hemisphere(-5.0, 11, 11)
    # a non-finite energy is named as such, not as an infinite raster width
    for energy in (math.inf, math.nan):
        with pytest.raises(MomentumError, match="photoelectron energy"):
            build_hemisphere(energy, 11, 11)
        with pytest.raises(MomentumError, match="photoelectron energy"):
            build_sphere(energy, 4, 8)


def test_sphere_weights_and_radius():
    grid = build_sphere(99.0)
    assert grid.weights.sum() == pytest.approx(4.0 * math.pi, abs=1e-12)
    q = math.sqrt(2.0 * 99.0 / 27.211386)
    assert np.allclose(np.linalg.norm(grid.samples, axis=1), q, atol=1e-12)
    with pytest.raises(MomentumError):
        build_sphere(99.0, n_polar=1)
    with pytest.raises(MomentumError):
        build_sphere(99.0, n_azimuth=2)


def test_sphere_mirror_symmetric_nodes():
    grid = build_sphere(20.0, n_polar=8, n_azimuth=12)
    pts = grid.samples
    for axis in (0, 1):
        flipped = pts.copy()
        flipped[:, axis] *= -1.0
        a = set(map(tuple, np.round(pts, 12)))
        b = set(map(tuple, np.round(flipped, 12)))
        assert a == b


def test_grid_backed_transform_matches_lcao():
    # on an orthogonal and on a sheared sampling: a voxel's phase is a
    # product of per-axis phases for any grid axes
    prims = (GaussianPrimitive(center=(0.6, -0.4, 0.0), exponent=1.0, powers=(0, 0, 1)),
             GaussianPrimitive(center=(-0.6, 0.4, 0.0), exponent=1.0, powers=(0, 0, 1)))
    lcao = MolecularOrbital(label="dimer", coefficients=(0.8, 0.6), primitives=prims)
    n, half = 81, 7.0
    axis = np.linspace(-half, half, n)
    step = axis[1] - axis[0]
    q = build_sphere(8.0, n_polar=4, n_azimuth=8)
    shear = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.2, 1.0]])
    for axes in (np.eye(3) * step, shear * step):
        # the shear moves the box centre off the dimer; shift it back
        origin = -half + (n - 1) / 2.0 * (np.diag(axes) - axes.sum(axis=0))
        sampling = VolumetricGrid(origin=origin, axes=axes, counts=(n, n, n))
        values = evaluate_orbital(lcao, sampling.points()).reshape(n, n, n)
        numeric = MolecularOrbital(label="dimer-grid", grid=sampling.with_values(values))
        a, b = orbital_ft([lcao, numeric], q)
        assert np.max(np.abs(a - b)) < 1e-3 * np.max(np.abs(a))


def test_grid_transform_memory_is_bounded():
    # a 12^3 cube orbital on 65^2 samples: the voxel sum runs one grid axis
    # at a time over sample blocks of a fixed element budget, so no phase
    # matrix spans a sample block times every voxel (227 MB traced when one
    # did)
    prim = GaussianPrimitive(center=(0.3, -0.2, 0.1), exponent=1.0, powers=(0, 0, 1))
    lcao = MolecularOrbital(label="p", coefficients=(1.0,), primitives=(prim,))
    n, half = 12, 4.0
    sampling = VolumetricGrid(origin=(-half, -half, -half),
                              axes=np.eye(3) * (2.0 * half / (n - 1)), counts=(n, n, n))
    values = evaluate_orbital(lcao, sampling.points())
    cube = MolecularOrbital(label="p-grid",
                            grid=sampling.with_values(values.reshape(n, n, n)))
    grid = build_hemisphere(99.0, 65, 65)
    orbital_ft([cube], build_sphere(8.0, n_polar=4, n_azimuth=8))
    tracemalloc.start()
    try:
        (got,) = orbital_ft([cube], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
    # the per-axis sum is the plain Riemann sum up to rounding
    q = grid.samples[::37]
    ref = (sampling.voxel_volume * (2.0 * math.pi) ** -1.5
           * (np.exp(-1j * (q @ sampling.points().T)) @ values))
    assert np.max(np.abs(got[::37] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _free(q):
    return MomentumGrid(samples=q, valid=np.ones(len(q), dtype=bool))


def test_one_sample_transforms_like_a_block():
    # BLAS takes another route for a single row: a free momentum transformed
    # alone, or alone in the last block of a call, keeps the bits it gets
    # inside a larger call, for LCAO orbitals and for cube orbitals on
    # diagonal and sheared axes
    mos = huckel_orbitals()
    homo = next(mo for mo in mos if mo.label == "H")
    cubes = [VolumetricGrid(origin=(-14.25, -5.25, -0.75), axes=np.eye(3) * 1.5,
                            counts=(20, 8, 2)),
             VolumetricGrid(origin=(-10.0, -5.0, -1.0),
                            axes=[[1.2, 0.1, 0.0], [0.2, 1.1, 0.0], [0.0, 0.1, 1.0]],
                            counts=(17, 9, 3))]
    voxels = [[dataclasses.replace(homo, coefficients=None, primitives=None,
                                   grid=g.with_values(evaluate_orbital(homo, g)))]
              for g in cubes]
    rng = np.random.default_rng(4)
    q = rng.normal(size=(700, 3)) * 1.5
    for orbitals in (mos, *voxels):
        block = orbital_ft(orbitals, _free(q))
        for n in range(0, len(q), 7):
            assert np.array_equal(orbital_ft(orbitals, _free(q[n:n + 1]))[:, 0], block[:, n])
    # a call one sample longer than a block ends in a block of one sample
    for orbitals, size in ((mos, _SAMPLE_BLOCK), (voxels[0], _GRID_ELEMENTS // (20 + 8 * 2))):
        long = rng.normal(size=(size + 1, 3))
        assert np.array_equal(orbital_ft(orbitals, _free(long))[:, -1],
                              orbital_ft(orbitals, _free(long[-3:]))[:, -1])


def test_structure_factors_match_block_gather():
    # S is formed one whole raster line at a time, a one-sample line as two
    # copies, and keeps every bit of the block-gather formula: on a disc line
    # that holds one sample, on a line the 4096-sample blocks would split, on
    # a line longer than a block, with nx != ny either way, for all orbitals
    # and for two
    mos = huckel_orbitals()
    for orbitals in (mos, mos[10:12]):
        planar = planar_basis(orbitals)
        for nx, ny in ((201, 151), (151, 201), (5, 5000)):
            grid = build_hemisphere(99.0, nx, ny)
            disc = np.flatnonzero(grid.valid)
            line = disc // ny
            if nx > 5:
                assert np.count_nonzero(line == line[0]) == 1
                assert line[_SAMPLE_BLOCK - 1] == line[_SAMPLE_BLOCK]
            else:
                assert np.count_nonzero(line == 1) > _SAMPLE_BLOCK
            got = list(structure_factors(grid, planar, [99.0], (0.0, 0.0, 1.0)))
            ref = list(block_gather_structure_factors(grid, planar))
            assert len(got) > 1 and len(ref) > 1
            spans = set(map(tuple, grid.spans.T.tolist()))
            for runs, s, _ in got:
                # whole lines, at most one block's samples unless a line holds more
                assert {(i, c.start, c.stop - c.start) for i, c, _ in runs} <= spans
                assert len(s) <= _SAMPLE_BLOCK or len(runs) == 1
                assert s.shape == (runs[-1][2].stop, len(orbitals))
            index = np.concatenate([run_index(runs, ny) for runs, _, _ in got])
            assert np.array_equal(index, disc)
            assert np.array_equal(np.concatenate([s for _, s, _ in got]),
                                  np.concatenate([s for _, s in ref]))


_TRANSFORM_BYTES = """
import dataclasses, hashlib, sys
import numpy as np
from attopmm.huckel import huckel_orbitals
from attopmm.model import VolumetricGrid, evaluate_orbital
from attopmm.momentum import build_hemisphere, build_sphere, orbital_ft
mos = huckel_orbitals()
cube = VolumetricGrid(origin=(-14.25, -5.25, -0.75), axes=np.eye(3) * 1.5, counts=(20, 8, 2))
homo = next(mo for mo in mos if mo.label == "H")
voxel = dataclasses.replace(homo, coefficients=None, primitives=None,
                            grid=cube.with_values(evaluate_orbital(homo, cube)))
for grid in (build_hemisphere(99.0, 101, 101), build_sphere(97.0)):
    for orbitals in (mos, [voxel]):
        sys.stdout.write(hashlib.sha256(orbital_ft(orbitals, grid).tobytes()).hexdigest())
"""


def test_thread_determinism():
    # the transforms are BLAS products: their bytes must not depend on the
    # number of BLAS threads, which is fixed when the process starts
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _TRANSFORM_BYTES], env=env,
                             check=True, capture_output=True, text=True, timeout=120)
        digests.add(run.stdout)
    assert len(digests) == 1


def _free_grid(q):
    return MomentumGrid(samples=q, valid=np.ones(len(q), dtype=bool))


def _grids():
    rng = np.random.default_rng(17)
    return {"hemisphere": build_hemisphere(99.0, 61, 61),
            "sphere": build_sphere(97.0, n_polar=12, n_azimuth=24),
            "free": _free_grid(rng.uniform(-4.0, 4.0, size=(5000, 3)))}


@pytest.mark.parametrize("kind", ["hemisphere", "sphere", "free"])
def test_basis_product_matches_primitive_sum(kind):
    # B @ C over the shared p_z basis against the per-primitive oracle
    mos = huckel_orbitals()
    grid = _grids()[kind]
    got = orbital_ft(mos, grid)
    for mo, row in zip(mos, got):
        ref = sum(c * gaussian_ft(p, grid.samples)
                  for c, p in zip(mo.coefficients, mo.primitives))
        assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_mixed_shapes_and_primitive_sets():
    # distinct (exponent, powers) shapes, orbitals over different primitive
    # lists and a duplicated primitive
    prims = (GaussianPrimitive(center=(0.3, -0.2, 0.1), exponent=0.7, powers=(1, 0, 0)),
             GaussianPrimitive(center=(-1.0, 0.4, 0.0), exponent=1.3, powers=(0, 0, 1)),
             GaussianPrimitive(center=(0.5, 0.5, -0.5), exponent=0.7, powers=(0, 2, 1)))
    one = MolecularOrbital(label="a", coefficients=(0.4, -0.9), primitives=prims[:2])
    two = MolecularOrbital(label="b", coefficients=(1.1, 0.2, -0.3),
                           primitives=prims[1:] + prims[1:2])
    grids = _grids()
    ft = {a: gaussian_ft(p, grids["free"].samples) for a, p in enumerate(prims)}
    got = orbital_ft([one, two], grids["free"])
    peak = max(np.max(np.abs(v)) for v in ft.values())
    assert np.max(np.abs(got[0] - (0.4 * ft[0] - 0.9 * ft[1]))) <= 1e-14 * peak
    assert np.max(np.abs(got[1] - (0.8 * ft[1] + 0.2 * ft[2]))) <= 1e-14 * peak
    # hemisphere: centers at different heights, and all at one height z0 != 0
    grid = grids["hemisphere"]
    lifted = tuple(GaussianPrimitive(center=(x, y, 0.4), exponent=1.0, powers=(0, 0, 1))
                   for x, y in ((0.7, 0.2), (-0.7, -0.2)))
    flat = MolecularOrbital(label="c", coefficients=(0.6, 0.8), primitives=lifted)
    for mo in (one, flat):
        (row,) = orbital_ft([mo], grid)
        ref = sum(c * gaussian_ft(p, grid.samples)
                  for c, p in zip(mo.coefficients, mo.primitives))
        assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sphere_quadrature_reuse_is_bit_identical():
    quad = sphere_quadrature(12, 24)
    for energy in (85.0, 97.3):
        fresh = build_sphere(energy, 12, 24)
        reused = build_sphere(energy, 12, 24, quad)
        assert fresh.samples.tobytes() == reused.samples.tobytes()
        assert fresh.weights.tobytes() == reused.weights.tobytes()


def test_spherical_bessel_matches_scipy():
    from scipy.special import spherical_jn

    centers = np.array([p.center for mo in huckel_orbitals() for p in mo.primitives])
    d_max = np.max(np.linalg.norm(centers[:, None] - centers[None, :], axis=-1))
    x_max = math.sqrt(2.0 * ev_to_hartree(140.0)) * d_max
    assert x_max > 70.0
    # the dense sweeps cross the series / closed-form switch at x = 4
    x = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 1.0, 20001),
                        np.linspace(1.0, 8.0, 20001), np.linspace(8.0, x_max, 20001)])
    got = spherical_bessel(x)
    assert got.shape == (5, len(x))
    for l in range(5):
        assert np.max(np.abs(got[l] - spherical_jn(l, x))) <= 1e-15, l
    assert got[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_sphere_pair_matrix_against_quadrature():
    prims = (GaussianPrimitive(center=(0.3, -0.2, 0.1), exponent=0.7, powers=(1, 0, 0)),
             GaussianPrimitive(center=(-1.0, 0.4, 0.0), exponent=1.3, powers=(0, 0, 0)),
             GaussianPrimitive(center=(0.5, 0.5, -0.5), exponent=0.9, powers=(0, 1, 0)),
             GaussianPrimitive(center=(0.3, -0.2, 0.1), exponent=1.1, powers=(0, 0, 1)))
    mos = [MolecularOrbital(label="H", coefficients=(0.4, -0.9, 0.3, 0.5), primitives=prims),
           MolecularOrbital(label="L", coefficients=(0.2, 0.7), primitives=prims[2:])]
    eps = np.array([0.6, 0.0, 0.8])
    coeffs, pair_matrix = sphere_pair_matrices(mos, eps)
    grid = build_sphere(97.0, n_polar=48, n_azimuth=96)
    ft = orbital_ft(mos, grid)
    ref = np.einsum("mn,kn,n->mk", ft.conj(), ft, grid.weights * (grid.samples @ eps) ** 2)
    (a,) = pair_matrix([97.0])
    assert np.max(np.abs(coeffs.T @ a @ coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a Gram matrix of independent functions: positive definite, and exactly
    # symmetric at every energy
    assert np.min(np.linalg.eigvalsh(a)) > 0.0
    energies = [85.0, 97.0, 140.0]
    stacked = pair_matrix(energies)
    assert np.array_equal(stacked, stacked.swapaxes(-1, -2))
    # a call over several energies equals one call per energy, bit for bit
    assert stacked.shape == (3, 4, 4)
    assert stacked.tobytes() == np.concatenate([pair_matrix([e]) for e in energies]).tobytes()


def test_sphere_pair_matrices_decline_other_orbitals():
    p = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=1.0, powers=(0, 0, 1))
    d = GaussianPrimitive(center=(0.0, 0.0, 0.0), exponent=1.0, powers=(0, 1, 1))
    grid = VolumetricGrid(origin=(0.0, 0.0, 0.0), axes=np.eye(3), counts=(2, 2, 2),
                          values=np.ones((2, 2, 2)))
    lcao = MolecularOrbital(label="H", coefficients=(1.0,), primitives=(p,))
    assert sphere_pair_matrices([lcao], (0.0, 0.0, 1.0)) is not None
    for other in (MolecularOrbital(label="L", coefficients=(1.0,), primitives=(d,)),
                  MolecularOrbital(label="L", grid=grid)):
        assert sphere_pair_matrices([lcao, other], (0.0, 0.0, 1.0)) is None
