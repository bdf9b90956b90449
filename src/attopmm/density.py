"""Real-space electron-density change of a coherent two-state wave packet.

For a superposition C1 e^{-iE1 t} Psi_1 + C2 e^{-iE2 t} Psi_2 built from
closed-shell singlet excitations

    Psi_1 = a * (h0 -> p0)
    Psi_2 = b1 * (h0 -> p1) + b2 * (h1 -> p0)

the one-particle density minus the ground-state density closes over four
orbitals (CIS density matrix; cross blocks with both hole and particle
different vanish):

    drho(r, t) = |a C1* e^{iE1 s} p0 + b1 C2* e^{iE2 s} p1|^2
               + |b2 C2|^2 p0^2 - |b1 C2|^2 h0^2
               - |a C1* e^{iE1 s} h0 + b2 C2* e^{iE2 s} h1|^2,   s = t - t0.

Charge is conserved at every instant (particle and hole blocks integrate
to the same excited-state population), and the beat term oscillates with
period 2 pi / (E2 - E1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    VolumetricGrid,
    WavePacket,
    angstrom_to_bohr,
    evaluate_orbital,
    wave_packet_phase,
)


class DensityError(ValueError):
    """Wave packet or grid unsuitable for the two-state density formula."""


def _single_excitations(state):
    """[(coeff, hole, particle)] when every CSF is a closed-shell singlet
    excitation; None otherwise."""
    out = []
    for coeff, csf in state.expansion:
        if (csf.spin != 0.0 or csf.projection != 0.0 or len(csf.holes) != 1
                or len(csf.particles) != 1):
            return None
        out.append((float(np.real(coeff)), csf.holes[0], csf.particles[0]))
    return out


@dataclass(frozen=True)
class TwoStateStructure:
    """Resolved orbital roles of the supported wave-packet shape."""

    hole_0: int      # shared hole of Psi_1 and the first Psi_2 term
    particle_0: int  # shared particle of Psi_1 and the second Psi_2 term
    particle_1: int
    hole_1: int
    a: float
    b1: float
    b2: float


def resolve_two_state_structure(wp: WavePacket) -> TwoStateStructure:
    if wp.n_members != 2:
        raise DensityError(
            f"density formula needs exactly 2 wave-packet members, got {wp.n_members}")
    (_, _, s1), (_, _, s2) = wp.members
    if s1.n_electrons != s2.n_electrons:
        raise DensityError("wave-packet members have different electron counts")
    exc1 = _single_excitations(s1)
    exc2 = _single_excitations(s2)
    if exc1 is None or exc2 is None:
        raise DensityError("members must expand in closed-shell singlet excitations")
    if len(exc1) != 1 or len(exc2) != 2:
        raise DensityError(
            "expected one excitation in member 1 and two in member 2, got "
            f"{len(exc1)} and {len(exc2)}")
    a, h0, p0 = exc1[0]
    shared_hole = [t for t in exc2 if t[1] == h0 and t[2] != p0]
    shared_part = [t for t in exc2 if t[2] == p0 and t[1] != h0]
    if len(shared_hole) != 1 or len(shared_part) != 1:
        raise DensityError(
            "member 2 must pair one excitation with member 1's hole and one "
            "with its particle")
    b1, _, p1 = shared_hole[0]
    b2, h1, _ = shared_part[0]
    return TwoStateStructure(hole_0=h0, particle_0=p0, particle_1=p1,
                             hole_1=h1, a=a, b1=b1, b2=b2)


class TwoStateDensity:
    """Grid-bound evaluator; orbitals are evaluated once, frames are cheap."""

    def __init__(self, wp: WavePacket, mos, grid: VolumetricGrid):
        self.wp = wp
        self.grid = grid
        self.structure = resolve_two_state_structure(wp)
        table = {mo.offset: mo for mo in mos}
        needed = {self.structure.hole_0, self.structure.particle_0,
                  self.structure.particle_1, self.structure.hole_1}
        missing = sorted(o for o in needed if o not in table)
        if missing:
            raise DensityError(f"no orbital supplied for offsets {missing}")
        self._orb = {o: evaluate_orbital(table[o], grid) for o in sorted(needed)}

    def frame(self, t_fs):
        st = self.structure
        z1 = np.conj(wave_packet_phase(self.wp, 0, t_fs))
        z2 = np.conj(wave_packet_phase(self.wp, 1, t_fs))
        c2_sq = abs(self.wp.members[1][0]) ** 2
        p0 = self._orb[st.particle_0]
        p1 = self._orb[st.particle_1]
        h0 = self._orb[st.hole_0]
        h1 = self._orb[st.hole_1]
        particle = np.abs(st.a * z1 * p0 + st.b1 * z2 * p1) ** 2
        hole = np.abs(st.a * z1 * h0 + st.b2 * z2 * h1) ** 2
        drho = (particle + (st.b2 ** 2) * c2_sq * p0 * p0
                - (st.b1 ** 2) * c2_sq * h0 * h0 - hole)
        values = drho.reshape(self.grid.counts)
        return DensityFrame.from_values(self.grid, values, float(t_fs))


@dataclass(frozen=True)
class DensityFrame:
    """Density change on a grid at one instant, with signed charge integrals
    (electrons; gained + lost sums to ~0 by charge conservation)."""

    grid: VolumetricGrid
    t_fs: float
    charge_gained: float
    charge_lost: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.grid.values)):
            raise DensityError("non-finite value in density change")

    @classmethod
    def from_values(cls, grid, values, t_fs):
        full = grid.with_values(values)
        dv = grid.voxel_volume
        flat = np.asarray(values, dtype=float).ravel()
        gained = float(flat[flat > 0].sum() * dv)
        lost = float(flat[flat < 0].sum() * dv)
        return cls(grid=full, t_fs=float(t_fs), charge_gained=gained,
                   charge_lost=lost)

    @property
    def net_charge(self):
        return self.charge_gained + self.charge_lost


def default_density_grid(mos, padding_angstrom=4.0, spacing_angstrom=0.15):
    """Cubic-voxel grid covering every primitive center plus padding.

    Grid point coordinates are (i - (n-1)/2) * spacing on each axis, so the
    raster is symmetric under all coordinate reflections — density-symmetry
    checks then see exact lattice mappings.
    """
    if not padding_angstrom > 0 or not spacing_angstrom > 0:
        raise DensityError("padding and spacing must be positive")
    centers = []
    for mo in mos:
        if mo.primitives:
            centers.extend(p.center for p in mo.primitives)
    if not centers:
        raise DensityError("no primitive centers to bound the grid")
    centers = np.asarray(centers)
    pad = angstrom_to_bohr(padding_angstrom)
    step = angstrom_to_bohr(spacing_angstrom)
    counts = []
    for ax in range(3):
        half = np.max(np.abs(centers[:, ax])) + pad
        counts.append(2 * int(np.ceil(half / step)) + 1)
    origin = [-(n - 1) / 2.0 * step for n in counts]
    return VolumetricGrid(origin=origin, axes=np.diag([step] * 3),
                          counts=tuple(counts))


def density_change(wp, mos, grid, t_fs):
    """Single DensityFrame at probe time t_fs."""
    return TwoStateDensity(wp, mos, grid).frame(t_fs)


def density_timeseries(wp, mos, grid, times_fs):
    """Frames at each time, sharing one orbital evaluation."""
    times = [float(t) for t in times_fs]
    if not times:
        raise DensityError("empty time list")
    engine = TwoStateDensity(wp, mos, grid)
    return [engine.frame(t) for t in times]
