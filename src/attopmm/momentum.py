"""Momentum-space machinery: closed-form Fourier transforms of Gaussian
primitives, numeric transforms of grid-backed orbitals, and momentum grids.

Transform convention:  F[phi](q) = (2 pi)^{-3/2} Integral d^3r e^{-i q.r} phi(r).
(The sign matches the photoemission matrix element; for real orbitals |F|^2
is insensitive to the sign up to the relabeling q -> -q.)

For a Cartesian power u^l along one axis the 1D factor is

    Integral u^l e^{-i k u - a u^2} du
        = sqrt(pi/a) * (-i / (2 sqrt(a)))^l * H_l(k / (2 sqrt(a))) * e^{-k^2/(4a)}

with H_l the physicists' Hermite polynomial (derivative rule applied to the
s-type transform in closed form).

LCAO orbitals are coefficient columns C (P primitives x M orbitals) over one
shared primitive list, so their transforms are the matrix product B(q) @ C,
with B the (N, P) matrix of primitive transforms: the shape factor of each
distinct (exponent, powers) times the phase exp(-i q.R_a) of each center.

Determinism: samples are split into fixed-size blocks, and each block is
one fixed sequence of vector operations and small matrix products, so
results are byte-identical from run to run and for any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .model import (
    BOHR_ANGSTROM,
    GaussianPrimitive,
    ModelError,
    ev_to_hartree,
    inv_angstrom_to_au,
    primitive_norm,
)

# Samples are transformed in fixed blocks: the (block, P) phase matrix stays
# small, and each sample's arithmetic never depends on the grid size.
_SAMPLE_BLOCK = 4096


class MomentumError(ValueError):
    """Unsupported or inconsistent momentum-space request."""


# ---------------------------------------------------------------------------
# closed-form transform

def _axis_factor(l, k, exponent):
    """1D factor for Cartesian power l at momentum k (vectorized in k)."""
    root = math.sqrt(exponent)
    base = math.sqrt(math.pi / exponent) * np.exp(-(k * k) / (4.0 * exponent))
    if l == 0:
        return base.astype(complex) if isinstance(base, np.ndarray) else complex(base)
    herm = hermval(k / (2.0 * root), [0.0] * l + [1.0])
    return base * herm * (-1j / (2.0 * root)) ** l


def gaussian_ft(prim: GaussianPrimitive, q):
    """Closed-form transform of a normalized primitive at q (a.u.).

    q has shape (3,) -> complex scalar, or (N, 3) -> complex (N,) array.
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    qs = q.reshape(-1, 3)
    out = np.full(len(qs), prim.norm * (2.0 * math.pi) ** -1.5, dtype=complex)
    out *= np.exp(-1j * (qs @ prim.center))
    for axis, l in enumerate(prim.powers):
        out *= _axis_factor(l, qs[:, axis], prim.exponent)
    return out[0] if single else out


def _shape_factor(exponent, powers, q):
    """Transform at q (N, 3) of the normalized primitive of one shape centered
    at the origin; a primitive at R_a adds the phase exp(-i q.R_a)."""
    out = np.full(len(q), primitive_norm(exponent, powers) * (2.0 * math.pi) ** -1.5,
                  dtype=complex)
    for axis, l in enumerate(powers):
        out *= _axis_factor(l, q[:, axis], exponent)
    return out


def _phases(angles):
    """exp(-i angles), elementwise."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


# ---------------------------------------------------------------------------
# momentum grids

@dataclass(frozen=True)
class MomentumGrid:
    """Sample set in momentum space (a.u. internally).

    mode "constant-energy-hemisphere": raster over in-plane (q_x, q_y) with
    q_z = +sqrt(2 eps - q_x^2 - q_y^2); samples outside the kinematic disc
    are flagged invalid. mode "full-sphere" carries quadrature weights
    (sum = 4 pi) for angle integration. mode "cartesian-slab" is a plain
    rectangular raster.
    """

    mode: str
    samples: np.ndarray          # (N, 3) a.u.
    valid: np.ndarray            # (N,) bool
    energy_ev: float = None
    shape: tuple = None          # raster shape for map modes
    axis_x: np.ndarray = None    # 1D raster coordinates, 1/Angstrom
    axis_y: np.ndarray = None
    weights: np.ndarray = None   # quadrature weights (full-sphere)

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=float).reshape(-1, 3))
        valid = np.ascontiguousarray(np.asarray(self.valid, dtype=bool).reshape(-1))
        if len(valid) != len(samples):
            raise ModelError("valid mask length does not match samples")
        samples.flags.writeable = False
        valid.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "valid", valid)
        for name in ("axis_x", "axis_y", "weights"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).copy()
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def n_samples(self):
        return len(self.samples)


def build_hemisphere(energy_ev, nx, ny, q_max_inv_angstrom=None):
    """Constant-energy hemisphere raster at photoelectron energy eps (eV).

    Uniform (q_x, q_y) raster spanning +-q_max (1/Angstrom; defaults to the
    kinematic disc radius sqrt(2 eps)), with q_z = +sqrt(2 eps - q_x^2 - q_y^2).
    """
    if not energy_ev > 0:
        raise MomentumError(f"photoelectron energy must be positive, got {energy_ev}")
    e_au = ev_to_hartree(energy_ev)
    q_disc_au = math.sqrt(2.0 * e_au)
    q_max = q_disc_au / BOHR_ANGSTROM if q_max_inv_angstrom is None else float(q_max_inv_angstrom)
    axis_x = np.linspace(-q_max, q_max, int(nx))
    axis_y = np.linspace(-q_max, q_max, int(ny))
    qx = inv_angstrom_to_au(axis_x)[:, None] * np.ones(int(ny))[None, :]
    qy = np.ones(int(nx))[:, None] * inv_angstrom_to_au(axis_y)[None, :]
    qz_sq = 2.0 * e_au - qx ** 2 - qy ** 2
    # Relative tolerance keeps raster points that land on the kinematic
    # circle only up to float rounding (axis extremes, Pythagorean index
    # pairs) deterministically inside; mirrors the exporter's predicate.
    valid = qz_sq >= -2.0 * e_au * 1e-12
    qz = np.sqrt(np.clip(qz_sq, 0.0, None))
    samples = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=1)
    return MomentumGrid(mode="constant-energy-hemisphere", samples=samples,
                        valid=valid.ravel(), energy_ev=float(energy_ev),
                        shape=(int(nx), int(ny)), axis_x=axis_x, axis_y=axis_y)


def sphere_quadrature(n_polar=48, n_azimuth=96):
    """Unit directions (n_polar * n_azimuth, 3) and weights (sum 4 pi).

    Gauss-Legendre nodes in cos(theta) x uniform azimuth. An even n_azimuth
    makes the node set exactly symmetric under q_x -> -q_x and q_y -> -q_y.
    """
    if n_polar < 2 or n_azimuth < 4:
        raise MomentumError(f"unsupported quadrature order ({n_polar}, {n_azimuth})")
    u, w_u = np.polynomial.legendre.leggauss(int(n_polar))
    phi = 2.0 * math.pi * np.arange(int(n_azimuth)) / int(n_azimuth)
    st = np.sqrt(1.0 - u ** 2)
    dirs = np.stack([
        (st[:, None] * np.cos(phi)[None, :]).ravel(),
        (st[:, None] * np.sin(phi)[None, :]).ravel(),
        (u[:, None] * np.ones(len(phi))[None, :]).ravel(),
    ], axis=1)
    weights = (w_u[:, None] * np.full(len(phi), 2.0 * math.pi / len(phi))[None, :]).ravel()
    return dirs, weights


def build_sphere(energy_ev, n_polar=48, n_azimuth=96, quadrature=None):
    """Full-sphere product quadrature at fixed |q| = sqrt(2 eps).

    quadrature: sphere_quadrature(n_polar, n_azimuth), when the caller
    reuses it across energies; built here when None.
    """
    if not energy_ev > 0:
        raise MomentumError(f"photoelectron energy must be positive, got {energy_ev}")
    dirs, weights = quadrature or sphere_quadrature(n_polar, n_azimuth)
    q = math.sqrt(2.0 * ev_to_hartree(energy_ev))
    samples = q * dirs
    return MomentumGrid(mode="full-sphere", samples=samples,
                        valid=np.ones(len(samples), dtype=bool),
                        energy_ev=float(energy_ev), weights=weights)


def build_slab(q_max_au, n):
    """Uniform cubic raster |q_i| <= q_max (a.u.) with n points per axis."""
    axis = np.linspace(-float(q_max_au), float(q_max_au), int(n))
    qx, qy, qz = np.meshgrid(axis, axis, axis, indexing="ij")
    samples = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=1)
    return MomentumGrid(mode="cartesian-slab", samples=samples,
                        valid=np.ones(len(samples), dtype=bool),
                        shape=(int(n), int(n), int(n)))


# ---------------------------------------------------------------------------
# orbital transforms

def _lcao_basis(mos):
    """Distinct primitives of LCAO orbitals and their coefficient matrix.

    Returns (centers (P, 3), coefficients (P, M) with column m expanding
    mos[m], [(exponent, powers, rows)]): primitives are sorted by shape, so
    the rows of each shape form one slice.
    """
    centers = {}
    entries = []
    for m, mo in enumerate(mos):
        for c, prim in zip(mo.coefficients, mo.primitives):
            key = (prim.exponent, prim.powers, prim.center.tobytes())
            centers.setdefault(key, prim.center)
            entries.append((key, m, c))
    keys = sorted(centers)
    row = {key: a for a, key in enumerate(keys)}
    coeffs = np.zeros((len(keys), len(mos)))
    for key, m, c in entries:
        coeffs[row[key], m] += c
    first = {}
    for a, (exponent, powers, _) in enumerate(keys):
        first.setdefault((exponent, powers), a)
    bounds = list(first.values()) + [len(keys)]
    shapes = [(exponent, powers, slice(lo, hi))
              for (exponent, powers), lo, hi in zip(first, bounds, bounds[1:])]
    return np.array([centers[key] for key in keys]).reshape(-1, 3), coeffs, shapes


def _center_phases(grid: MomentumGrid, centers, start, stop):
    """exp(-i q.R_a) for the grid samples [start, stop), shape (stop - start, P).

    On a hemisphere raster with every center at one height z0 the phase
    separates as exp(-i q_x X_a) exp(-i q_y Y_a) exp(-i q_z z0): one
    exponential per raster line and column instead of one per sample.
    """
    q = grid.samples
    z0 = centers[0, 2] if len(centers) else 0.0
    if grid.mode != "constant-energy-hemisphere" or np.any(centers[:, 2] != z0):
        return _phases(q[start:stop] @ centers.T)
    ny = grid.shape[1]
    i, j = np.divmod(np.arange(start, stop), ny)
    ex = _phases(np.outer(q[i[0] * ny:stop:ny, 0], centers[:, 0]))
    ey = _phases(np.outer(q[:ny, 1], centers[:, 1]))
    out = ex[i - i[0]] * ey[j]
    if z0:
        out *= _phases(q[start:stop, 2] * z0)[:, None]
    return out


def orbital_ft(mos, grid: MomentumGrid):
    """Transforms of orbitals on a grid, shape (M, N): row m for mos[m].

    LCAO orbitals in closed form over their shared primitives: B(q) @ C,
    evaluated as sum over shapes of shape_factor(q) * (exp(-i q.R) @ C) so
    B itself is never stored. Volumetric grids by Riemann sum with
    voxel-volume weights (same continuum normalization), evaluated at
    exactly the requested q samples.
    """
    q = grid.samples
    out = np.empty((len(mos), len(q)), dtype=complex)
    lcao = [m for m, mo in enumerate(mos) if mo.is_lcao]
    centers, coeffs, shapes = _lcao_basis([mos[m] for m in lcao])
    voxel = []
    for m, mo in enumerate(mos):
        if mo.is_lcao:
            continue
        g = mo.grid
        off = g.axes @ g.axes.T
        if np.max(np.abs(off - np.diag(np.diag(off)))) > 1e-12:
            raise MomentumError("numeric transform supports orthogonal grid axes only")
        voxel.append((m, g.points(), np.asarray(g.values).ravel(),
                      g.voxel_volume * (2.0 * math.pi) ** -1.5))

    for start in range(0, len(q), _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, len(q))
        block = q[start:stop]
        if lcao:
            e = _center_phases(grid, centers, start, stop)
            amp = sum(_shape_factor(exponent, powers, block)[:, None]
                      * (e[:, rows] @ coeffs[rows]) for exponent, powers, rows in shapes)
            out[lcao, start:stop] = amp.T
        for m, pts, vals, w in voxel:
            out[m, start:stop] = w * (np.exp(-1j * (block @ pts.T)) @ vals)
    return out
