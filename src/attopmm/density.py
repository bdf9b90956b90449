"""Real-space electron-density change of a wave packet on the closed-shell
reference.

For Psi(t) = sum_I z_I(t) Psi_I with z_I(t) = C_I exp(-i E_I (t - t0)),
the one-particle density matrix over real orbitals phi_p is

    gamma_pq(t) = sum_sigma <Psi(t)| a+_{p sigma} a_{q sigma} |Psi(t)>
                = sum_IJ z_I*(t) z_J(t) G_IJ[p, q],
    G_IJ[p, q]  = sum_sigma <a_{p sigma} Psi_I | a_{q sigma} Psi_J>,

built once per packet by the second-quantization engine
(algebra.member_pair_matrices), so the delay enters only through the
bilinear form in z = WavePacket.phases (model.at_delays). Subtracting the
closed shell, which doubly occupies every orbital with offset <= 0, gives

    dgamma_pq(t) = Re sum_IJ z_I*(t) z_J(t) (G_IJ[p, q]
                                             - 2 delta_IJ delta_pq [p occupied]),
    drho(r, t)   = sum_{p <= q} (2 - delta_pq) dgamma_pq(t) phi_p(r) phi_q(r),

which is Re gamma(t) minus the closed-shell matrix for a normalized packet.
An entry (p, q) below algebra.PRUNE_THRESHOLD for every member pair (the
untouched spectators, for instance) is left out of every frame.

For a planar basis (momentum.planar_basis: one primitive shape, every
center at one height) on a grid with diagonal axes, phi_m(x, y, z) =
Psi_m(x, y) Z(z), with Psi_m = (X N C[:, m]) Y^T over per-axis factor
tables (model.axis_factors) and Z the shared z-factor, so each frame

    drho(t) = drho2(t) (x) Z^2,  drho2 = sum_{p <= q} (2 - delta_pq) dgamma_pq Psi_p Psi_q

is kept as its plane drho2 and the shared Z^2; nothing 3-D is formed. Any
other orbital set (grid-backed orbitals, a sheared grid, several primitive
shapes or heights) is evaluated on every voxel (model.evaluate_orbital),
each orbital of a kept entry once for all frames. For orthonormal members
tr dgamma = 0 at every instant, so the density change carries no net
charge; the beat terms oscillate with the member energy differences.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .algebra import PRUNE_THRESHOLD, member_pair_matrices
from .model import (
    Record,
    VolumetricGrid,
    angstrom_to_bohr,
    at_delays,
    axis_factors,
    evaluate_orbital,
    held,
    occupied_offsets,
    primitive_norm,
    read_only,
)
from .momentum import planar_basis

# A density grid holds at most this many voxels (8 bytes each in a 3-D frame;
# a planar one holds drho2 and Z^2); default_density_grid refuses more.
_MAX_VOXELS = 30_000_000


class DensityError(ValueError):
    """Wave packet, orbitals or grid unsuitable for the density change: a
    packet not built on the molecule's closed shell, an orbital the density
    needs but was not supplied, an empty time list, a time whose member
    phases are not finite, or a bad grid."""


class DensityFrame(Record):
    """Density change at one instant, with signed charge integrals
    (electrons; gained + lost sums to ~0 by charge conservation). values is
    the 3-D array on the grid, or for a planar basis the pair (plane,
    profile) = (drho2, Z^2), whose charges are sum+ drho2 * sum Z^2 * dV;
    grid forms the 3-D values on request (frame_values)."""

    __slots__ = ("raster", "values", "t_fs", "charge_gained", "charge_lost")

    def __init__(self, grid, values, t_fs):
        raster = VolumetricGrid(grid.origin, grid.axes, grid.counts)
        dv = raster.voxel_volume
        if isinstance(values, tuple):
            plane, profile = values = tuple(held(np.asarray(v, dtype=float)) for v in values)
            if plane.shape + profile.shape != raster.counts or profile.min() < 0.0:
                raise DensityError(f"factors do not fit {raster.counts} or the profile is < 0")
            # Python floats: an overflowing product is inf, never a warning
            finite = math.isfinite(float(np.abs(plane).max()) * float(np.abs(profile).max()))
            dv = float(profile.sum()) * dv
        else:
            plane = values = raster.with_values(np.asarray(values, dtype=float)).values
            finite = np.all(np.isfinite(values))
        if not finite:
            raise DensityError("non-finite value in density change")
        gained, lost = (float(plane.sum(where=side) * dv) for side in (plane > 0, plane < 0))
        self._set(raster, values, float(t_fs), gained, lost)

    @property
    def grid(self):
        """The frame's grid with its 3-D values, formed here for a pair."""
        v = self.values
        return self.raster.with_values(frame_values(*v) if isinstance(v, tuple) else v)

    @property
    def net_charge(self):
        return self.charge_gained + self.charge_lost


def frame_values(plane, profile, out=None):
    """plane (x) profile + 0.0, read-only: the values of a planar frame; + 0.0
    turns the -0.0 of a negative plane value on a zero of Z^2 into 0.0."""
    values = np.multiply.outer(plane, profile, out=out)
    return read_only(np.add(values, 0.0, out=values))


def default_density_grid(mos, padding_angstrom=4.0, spacing_angstrom=0.15):
    """Cubic-voxel grid covering every primitive center plus padding, and
    the corners of a grid-backed orbital's own grid (zero outside it).

    Grid point coordinates are (i - (n-1)/2) * spacing on each axis, so the
    raster is symmetric under all coordinate reflections — density-symmetry
    checks then see exact lattice mappings. Padding and spacing must be
    positive and finite, the voxel volume finite and the voxel count at most
    _MAX_VOXELS; otherwise a DensityError names the option.
    """
    for name, value in (("--padding", padding_angstrom), ("--spacing", spacing_angstrom)):
        if not 0 < value < np.inf:
            raise DensityError(f"{name} must be positive and finite, got {value}")
    # Python floats: an overflow gives inf, never a warning
    pad = float(angstrom_to_bohr(padding_angstrom))
    step = float(angstrom_to_bohr(spacing_angstrom))
    if not step * step * step < np.inf:
        raise DensityError(f"--spacing {spacing_angstrom} gives a non-finite voxel volume")
    reach = [np.abs(p.center) + pad for mo in mos for p in mo.primitives or ()]
    reach += [np.abs(mo.grid.origin + np.array(corner) @ mo.grid.axes)
              for mo in mos if not mo.is_lcao
              for corner in product(*((0, n - 1) for n in mo.grid.counts))]
    if not reach:
        raise DensityError("no primitive centers or orbital grids to bound the grid")
    # an axis longer than the whole ceiling never reaches half / step
    counts = [2 * math.ceil(half / step) + 1 if half <= _MAX_VOXELS * step else math.inf
              for half in map(float, np.max(reach, axis=0))]
    if math.prod(counts) > _MAX_VOXELS:
        raise DensityError(
            f"--padding {padding_angstrom} with --spacing {spacing_angstrom} needs "
            f"more than {_MAX_VOXELS} voxels")
    origin = [-(n - 1) / 2.0 * step for n in counts]
    return VolumetricGrid(origin=origin, axes=np.diag([step] * 3),
                          counts=tuple(counts))


def density_matrix_changes(wp, mos, times_fs):
    """(offsets, dgamma, kept): dgamma[k] the density-matrix change at
    times_fs[k] over the orbitals the packet touches and the molecule's
    closed shell (module docstring), and the (p, q) index pairs, p <= q, of
    the entries that are not below the pruning threshold for some member
    pair. The member phases at times_fs (wp.phases) must all be finite."""
    phases = wp.phases(times_fs)
    if not np.all(np.isfinite(phases)):
        raise DensityError("time gives a non-finite wave-packet phase")
    occupied = occupied_offsets(mos)
    if wp.n_electrons != 2 * len(occupied):
        raise DensityError(
            f"wave packet has {wp.n_electrons} electrons, the closed shell of "
            f"{len(occupied)} occupied orbitals holds {2 * len(occupied)}")
    offsets, g = member_pair_matrices(wp, occupied)
    reference = np.diag([2.0 if o in occupied else 0.0 for o in offsets])
    change = g - np.eye(wp.n_members)[:, :, None, None] * reference
    kept = list(zip(*np.nonzero(np.triu(
        np.max(np.abs(change), axis=(0, 1)) >= PRUNE_THRESHOLD))))
    return offsets, at_delays(change, phases), kept


def _orbital_factors(mos, grid):
    """(factors, profile) of the orbitals mos on grid: the planes Psi_m and
    the shared Z^2 for a planar basis on a grid with diagonal axes, else the
    full 3-D values and None (module docstring)."""
    planar = planar_basis(mos) if grid.is_diagonal else None
    if planar is None:
        return [evaluate_orbital(mo, grid) for mo in mos], None
    centers, coeffs, exponent, powers = planar
    x, y, z = (axis_factors(grid, axis, centers[:, axis], powers[axis], exponent)
               for axis in range(3))
    scaled = coeffs * primitive_norm(exponent, powers)
    return [(x * c) @ y.T for c in scaled.T], read_only(z[:, 0] ** 2)


def density_timeseries(wp, mos, grid, times_fs):
    """Frames at each time, sharing one evaluation per needed orbital."""
    times = [float(t) for t in times_fs]
    if not times:
        raise DensityError("empty time list")
    offsets, changes, kept = density_matrix_changes(wp, mos, times)
    table = {mo.offset: mo for mo in mos}
    needed = sorted({offsets[k] for pq in kept for k in pq})
    missing = [o for o in needed if o not in table]
    if missing:
        raise DensityError(f"no orbital supplied for offsets {missing}")
    factors, profile = _orbital_factors([table[o] for o in needed], grid)
    phi = dict(zip(needed, factors))
    shape = grid.counts if profile is None else grid.counts[:2]
    term = np.empty(shape)
    frames = []
    for t, dg in zip(times, changes):
        values = np.zeros(shape)
        for p, q in kept:
            weight = dg[p, q] if p == q else 2.0 * dg[p, q]
            np.multiply(phi[offsets[p]], phi[offsets[q]], out=term)
            term *= weight
            values += term
        values.flags.writeable = False
        frames.append(DensityFrame(grid, values if profile is None else (values, profile), t))
    return frames
