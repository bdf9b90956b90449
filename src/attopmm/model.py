"""Domain types and unit policy shared by every attopmm module.

All internal math is done in Hartree atomic units. Quantities cross module
boundaries in "interface units" (energies in eV, times in fs, lengths in
Angstrom, momenta in inverse Angstrom) and are converted exactly once, at
construction or at I/O time. The conversion constants are pinned below and
never read from the environment.

Conventions fixed here and relied on everywhere else:
  * spin-orbitals are (orbital offset, spin) pairs with spin UP=0, DOWN=1;
  * the canonical order inside a Slater determinant is ascending orbital
    offset with up before down, and every stored determinant is canonical
    (permutation signs are tracked when canonicalizing);
  * orbital labels count from the frontier: "H-2" is the second orbital
    below the HOMO (offset -2), "H" the HOMO (0), "L" the LUMO (+1),
    "L+2" offset +3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

HARTREE_EV = 27.211386      # eV per hartree
BOHR_ANGSTROM = 0.529177    # Angstrom per bohr
ATOMIC_TIME_FS = 0.02418884  # fs per atomic time unit

UP = 0
DOWN = 1
SPIN_NAMES = {UP: "up", DOWN: "down"}


class ModelError(ValueError):
    """Malformed domain object (bad norm, bad labels, empty expansion...)."""


def ev_to_hartree(e):
    return np.asarray(e, dtype=float) / HARTREE_EV if np.ndim(e) else e / HARTREE_EV


def hartree_to_ev(e):
    return np.asarray(e, dtype=float) * HARTREE_EV if np.ndim(e) else e * HARTREE_EV


def fs_to_au(t):
    return t / ATOMIC_TIME_FS


def au_to_fs(t):
    return t * ATOMIC_TIME_FS


def angstrom_to_bohr(x):
    return np.asarray(x, dtype=float) / BOHR_ANGSTROM if np.ndim(x) else x / BOHR_ANGSTROM


def bohr_to_angstrom(x):
    return np.asarray(x, dtype=float) * BOHR_ANGSTROM if np.ndim(x) else x * BOHR_ANGSTROM


def inv_angstrom_to_au(q):
    # momentum: q [bohr^-1] = q [A^-1] * (A per bohr)
    return np.asarray(q, dtype=float) * BOHR_ANGSTROM if np.ndim(q) else q * BOHR_ANGSTROM


def au_to_inv_angstrom(q):
    return np.asarray(q, dtype=float) / BOHR_ANGSTROM if np.ndim(q) else q / BOHR_ANGSTROM


# ---------------------------------------------------------------------------
# orbital labels

def orbital_offset(label):
    """Frontier label -> integer offset. H-i -> -i, H -> 0, L -> 1, L+j -> 1+j."""
    if isinstance(label, (int, np.integer)):
        return int(label)
    s = str(label).strip().upper()
    if s == "H":
        return 0
    if s == "L":
        return 1
    if s.startswith("H-"):
        return -int(s[2:])
    if s.startswith("L+"):
        return 1 + int(s[2:])
    raise ModelError(f"unrecognized orbital label {label!r}")


def offset_label(offset):
    """Integer offset -> frontier label string."""
    offset = int(offset)
    if offset == 0:
        return "H"
    if offset == 1:
        return "L"
    if offset < 0:
        return f"H{offset}"
    return f"L+{offset - 1}"


# ---------------------------------------------------------------------------
# Gaussian primitives

def _double_factorial(n):
    # (-1)!! = 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(exponent, powers):
    """Normalization of a Cartesian Gaussian x^l y^m z^n exp(-a r^2)."""
    l, m, n = powers
    pref = (2.0 * exponent / math.pi) ** 0.75
    num = (4.0 * exponent) ** (0.5 * (l + m + n))
    den = math.sqrt(_double_factorial(2 * l - 1)
                    * _double_factorial(2 * m - 1)
                    * _double_factorial(2 * n - 1))
    return pref * num / den


@dataclass(frozen=True)
class GaussianPrimitive:
    """Normalized Cartesian Gaussian: N (x-cx)^l (y-cy)^m (z-cz)^n e^{-a|r-c|^2}.

    center is in bohr, exponent in bohr^-2. The normalization is always the
    analytic norm (unit self-overlap); it is computed, not supplied.
    """

    center: np.ndarray
    exponent: float
    powers: tuple
    norm: float = field(init=False)

    def __post_init__(self):
        if not self.exponent > 0:
            raise ModelError(f"Gaussian exponent must be positive, got {self.exponent}")
        powers = tuple(int(p) for p in self.powers)
        if any(p < 0 for p in powers):
            raise ModelError(f"angular powers must be non-negative, got {powers}")
        center = np.array(self.center, dtype=float).reshape(3)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "norm", primitive_norm(self.exponent, powers))

    def __call__(self, r):
        """Evaluate at r (bohr), shape (3,) or (N, 3)."""
        r = np.asarray(r, dtype=float)
        single = r.ndim == 1
        pts = r.reshape(-1, 3) - self.center
        val = np.full(len(pts), self.norm)
        for axis, p in enumerate(self.powers):
            if p:
                val = val * pts[:, axis] ** p
        val = val * np.exp(-self.exponent * np.einsum("ij,ij->i", pts, pts))
        return val[0] if single else val


def _overlap_1d(l1, l2, pa, pb, gamma):
    """1D overlap sum for Gaussians sharing product center offset pa, pb."""
    total = 0.0
    for i in range(l1 + 1):
        for j in range(l2 + 1):
            if (i + j) % 2:
                continue
            term = (math.comb(l1, i) * math.comb(l2, j)
                    * pa ** (l1 - i) * pb ** (l2 - j)
                    * _double_factorial(i + j - 1)
                    / (2.0 * gamma) ** ((i + j) // 2))
            total += term
    return total * math.sqrt(math.pi / gamma)


def primitive_overlap(p1: GaussianPrimitive, p2: GaussianPrimitive):
    """Analytic overlap integral of two normalized Cartesian primitives."""
    gamma = p1.exponent + p2.exponent
    ab = p1.center - p2.center
    pre = math.exp(-p1.exponent * p2.exponent / gamma * float(ab @ ab))
    prod_center = (p1.exponent * p1.center + p2.exponent * p2.center) / gamma
    s = pre * p1.norm * p2.norm
    for axis in range(3):
        s *= _overlap_1d(p1.powers[axis], p2.powers[axis],
                         prod_center[axis] - p1.center[axis],
                         prod_center[axis] - p2.center[axis], gamma)
    return s


# ---------------------------------------------------------------------------
# volumetric grids

@dataclass(frozen=True)
class VolumetricGrid:
    """Regular 3D grid: point (i,j,k) sits at origin + i a0 + j a1 + k a2 (bohr).

    values may be None for a grid that only describes where to sample. They
    are held read-only: a read-only array that owns its memory is kept as
    is, any other is copied.
    """

    origin: np.ndarray
    axes: np.ndarray
    counts: tuple
    values: np.ndarray = None

    def __post_init__(self):
        origin = np.array(self.origin, dtype=float).reshape(3)
        axes = np.array(self.axes, dtype=float).reshape(3, 3)
        counts = tuple(int(c) for c in self.counts)
        if any(c < 2 for c in counts):
            raise ModelError(f"grid needs >= 2 points per axis, got {counts}")
        if abs(np.linalg.det(axes)) < 1e-14:
            raise ModelError("grid axes are linearly dependent")
        origin.flags.writeable = False
        axes.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "counts", counts)
        if self.values is not None:
            values = np.asarray(self.values)
            if values.shape != counts:
                raise ModelError(f"values shape {values.shape} != counts {counts}")
            if values.flags.writeable or not values.flags.owndata:
                values = values.copy()
                values.flags.writeable = False
            object.__setattr__(self, "values", values)

    @property
    def voxel_volume(self):
        return abs(np.linalg.det(self.axes))

    @property
    def is_diagonal(self):
        """Whether every axis runs along its own Cartesian direction."""
        return not np.any(self.axes - np.diag(np.diag(self.axes)))

    def points(self):
        """All grid points, shape (n0*n1*n2, 3), index order row-major (i,j,k)."""
        n0, n1, n2 = self.counts
        ii, jj, kk = np.meshgrid(np.arange(n0), np.arange(n1), np.arange(n2),
                                 indexing="ij")
        idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1).astype(float)
        return self.origin + idx @ self.axes

    def with_values(self, values):
        return VolumetricGrid(self.origin, self.axes, self.counts, values)


def _trilinear(grid: VolumetricGrid, pts):
    """Trilinear interpolation of grid.values; zero outside the grid."""
    frac = (pts - grid.origin) @ np.linalg.inv(grid.axes)
    n = np.array(grid.counts)
    inside = np.all((frac >= 0) & (frac <= n - 1), axis=1)
    out = np.zeros(len(pts), dtype=np.asarray(grid.values).dtype)
    if not np.any(inside):
        return out
    f = frac[inside]
    i0 = np.minimum(np.floor(f).astype(int), n - 2)
    t = f - i0
    v = grid.values
    acc = np.zeros(len(f), dtype=out.dtype)
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = (np.where(di, t[:, 0], 1 - t[:, 0])
                     * np.where(dj, t[:, 1], 1 - t[:, 1])
                     * np.where(dk, t[:, 2], 1 - t[:, 2]))
                acc += w * v[i0[:, 0] + di, i0[:, 1] + dj, i0[:, 2] + dk]
    out[inside] = acc
    return out


# ---------------------------------------------------------------------------
# molecular orbitals

@dataclass(frozen=True)
class MolecularOrbital:
    """One-electron orbital, either an LCAO over Gaussian primitives or a grid.

    parities are the signs under the three Cartesian reflections
    (x->-x, y->-y, z->-z), +1/-1, or None when the orbital is not an
    eigenfunction of that reflection. Tags are used only by symmetry tests,
    never by the numerics.

    site_vector optionally retains the tight-binding eigenvector in the raw
    site basis (orthonormal under the identity metric), before any overlap
    orthogonalization of the LCAO coefficients.
    """

    label: str
    coefficients: np.ndarray = None
    primitives: tuple = None
    grid: VolumetricGrid = None
    parities: tuple = (None, None, None)
    energy: float = None
    site_vector: np.ndarray = None

    def __post_init__(self):
        lcao = self.coefficients is not None and self.primitives is not None
        if not lcao and self.grid is None:
            raise ModelError(f"orbital {self.label!r} has no LCAO expansion and no grid")
        if lcao:
            coeff = np.array(self.coefficients, dtype=float).ravel()
            prims = tuple(self.primitives)
            if len(coeff) != len(prims) or len(prims) == 0:
                raise ModelError(
                    f"orbital {self.label!r}: {len(coeff)} coefficients for "
                    f"{len(prims)} primitives")
            coeff.flags.writeable = False
            object.__setattr__(self, "coefficients", coeff)
            object.__setattr__(self, "primitives", prims)
        if self.grid is not None and self.grid.values is None:
            raise ModelError(f"orbital {self.label!r}: grid orbital without values")
        if self.site_vector is not None:
            sv = np.array(self.site_vector, dtype=float)
            sv.flags.writeable = False
            object.__setattr__(self, "site_vector", sv)
        object.__setattr__(self, "parities", tuple(self.parities))

    @property
    def offset(self):
        return orbital_offset(self.label)

    @property
    def is_lcao(self):
        return self.coefficients is not None


def axis_factors(grid: VolumetricGrid, axis, centers, powers, exponents):
    """(n_axis, P): (u - c_a)^l_a exp(-alpha_a (u - c_a)^2) of P primitives
    along one diagonal grid axis, from their centers on that axis; powers
    and exponents are (P,) arrays or shared scalars."""
    u = grid.origin[axis] + np.arange(grid.counts[axis]) * grid.axes[axis, axis]
    d = u[:, None] - np.asarray(centers)[None, :]
    return d ** powers * np.exp(-exponents * d * d)


def evaluate_orbital(mo: MolecularOrbital, r):
    """Orbital value at r (bohr), shape (3,) -> float or (N,3) -> (N,) array,
    or at every point of a VolumetricGrid r -> array of shape r.counts.

    Grid-backed orbitals interpolate trilinearly and are zero outside the grid.
    On a grid with diagonal axes an LCAO orbital is the per-axis product
    X[i,a] Y[j,a] Z[k,a] contracted with its coefficients, so no voxel x
    primitive array is ever built.
    """
    if isinstance(r, VolumetricGrid):
        if mo.is_lcao and r.is_diagonal:
            prims = mo.primitives
            exponents = np.array([p.exponent for p in prims])
            x, y, z = (axis_factors(r, axis, [p.center[axis] for p in prims],
                                    np.array([p.powers[axis] for p in prims]), exponents)
                       for axis in range(3))
            scale = mo.coefficients * np.array([p.norm for p in mo.primitives])
            n0, n1, n2 = r.counts
            xy = (x * scale)[:, None, :] * y[None, :, :]
            return (xy.reshape(n0 * n1, -1) @ z.T).reshape(r.counts)
        return evaluate_orbital(mo, r.points()).reshape(r.counts)
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ModelError("orbital evaluation point is not finite")
    single = r.ndim == 1
    pts = r.reshape(-1, 3)
    if mo.is_lcao:
        val = np.zeros(len(pts))
        for c, prim in zip(mo.coefficients, mo.primitives):
            val += c * prim(pts)
    else:
        val = _trilinear(mo.grid, pts)
    return float(val[0]) if single else val


def orbital_overlap(mo1: MolecularOrbital, mo2: MolecularOrbital):
    """Analytic <mo1|mo2> = c1^T S c2 for LCAO orbitals, with S the
    primitive overlap matrix."""
    if not (mo1.is_lcao and mo2.is_lcao):
        raise ModelError("analytic overlap needs LCAO orbitals on both sides")
    s = np.array([[primitive_overlap(p1, p2) for p2 in mo2.primitives]
                  for p1 in mo1.primitives])
    return float(mo1.coefficients @ s @ mo2.coefficients)


def occupied_offsets(mos):
    """Offsets of the closed-shell occupied orbitals: every offset <= 0."""
    return tuple(sorted(mo.offset for mo in mos if mo.offset <= 0))


# ---------------------------------------------------------------------------
# determinants, CSFs, states

@dataclass(frozen=True)
class SlaterDeterminant:
    """Occupied spin-orbitals in canonical order (orbital offset asc, up<down)."""

    spin_orbitals: tuple

    def __post_init__(self):
        so = tuple((int(o), int(s)) for o, s in self.spin_orbitals)
        if len(set(so)) != len(so):
            raise ModelError(f"duplicate spin-orbital in determinant {so}")
        if any(s not in (UP, DOWN) for _, s in so):
            raise ModelError("spin must be UP or DOWN")
        if list(so) != sorted(so):
            raise ModelError("determinant not in canonical order; "
                             "use canonical_determinant()")
        object.__setattr__(self, "spin_orbitals", so)

    @property
    def n_electrons(self):
        return len(self.spin_orbitals)


def canonical_determinant(spin_orbitals):
    """Sort spin-orbitals into canonical order; returns (sign, determinant).

    The sign is the parity of the sorting permutation (fermionic reordering).
    """
    so = [(int(o), int(s)) for o, s in spin_orbitals]
    if len(set(so)) != len(so):
        raise ModelError(f"duplicate spin-orbital {so}")
    sign = 1
    # insertion sort; count transpositions
    arr = list(so)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, SlaterDeterminant(tuple(arr))


@dataclass(frozen=True)
class ConfigurationStateFunction:
    """Spin-adapted combination of determinants with definite (S, M).

    coupling distinguishes degenerate genealogical couplings of the same
    orbital occupation (e.g. the two doublets of three open shells).
    """

    holes: tuple
    particles: tuple
    spin: float
    projection: float
    expansion: tuple  # ((coefficient, SlaterDeterminant), ...)
    coupling: str = ""

    def __post_init__(self):
        exp = tuple((float(c), d) for c, d in self.expansion)
        if not exp:
            raise ModelError("CSF with empty determinant expansion")
        norm = sum(c * c for c, _ in exp)
        if abs(norm - 1.0) > 1e-12:
            raise ModelError(f"CSF expansion norm {norm} != 1")
        counts = {d.n_electrons for _, d in exp}
        if len(counts) != 1:
            raise ModelError("CSF determinants with mixed electron counts")
        object.__setattr__(self, "holes", tuple(int(h) for h in self.holes))
        object.__setattr__(self, "particles", tuple(int(p) for p in self.particles))
        object.__setattr__(self, "expansion", exp)

    @property
    def n_electrons(self):
        return self.expansion[0][1].n_electrons


@dataclass(frozen=True)
class ElectronicState:
    """CI state: energy (eV) and a CSF expansion. Truncated norms allowed."""

    energy_ev: float
    expansion: tuple  # ((coefficient, ConfigurationStateFunction), ...)

    def __post_init__(self):
        exp = tuple((float(c), csf) for c, csf in self.expansion)
        if not exp:
            raise ModelError("electronic state with empty expansion")
        norm = sum(c * c for c, _ in exp)
        if norm > 1.0 + 1e-6:
            raise ModelError(f"CI weights sum to {norm} > 1")
        counts = {csf.n_electrons for _, csf in exp}
        if len(counts) != 1:
            raise ModelError("state mixes electron counts")
        object.__setattr__(self, "expansion", exp)

    @property
    def n_electrons(self):
        return self.expansion[0][1].n_electrons


@dataclass(frozen=True)
class WavePacket:
    """Coherent superposition sum_I C_I e^{-i E_I (t - t0)} |Phi_I>.

    Construction enforces sum |C_I|^2 = 1; a violation is an error, never a
    silent renormalization.
    """

    members: tuple  # ((C_I complex, E_I_ev, ElectronicState), ...)
    t0_fs: float = 0.0

    def __post_init__(self):
        members = tuple((complex(c), float(e), st) for c, e, st in self.members)
        if not members:
            raise ModelError("empty wave packet")
        norm = sum(abs(c) ** 2 for c, _, _ in members)
        if abs(norm - 1.0) > 1e-10:
            raise ModelError(f"wave-packet weights sum to {norm}, expected 1")
        counts = {st.n_electrons for _, _, st in members}
        if len(counts) != 1:
            raise ModelError("wave-packet members with different electron counts")
        object.__setattr__(self, "members", members)

    @property
    def n_members(self):
        return len(self.members)

    @property
    def n_electrons(self):
        return self.members[0][2].n_electrons

    @property
    def mean_energy_ev(self):
        return sum(abs(c) ** 2 * e for c, e, _ in self.members)

    def beat_period_fs(self):
        """2*pi/(E_max - E_min), the density-oscillation period."""
        energies = [e for _, e, _ in self.members]
        de = max(energies) - min(energies)
        if de <= 0:
            raise ModelError("beat period undefined for degenerate members")
        return 2.0 * math.pi / ev_to_hartree(de) * ATOMIC_TIME_FS


def wave_packet_phase(wp: WavePacket, member, t_fs):
    """C_I * exp(-i E_I (t - t0)), everything converted to atomic units."""
    if not 0 <= member < wp.n_members:
        raise ModelError(f"wave-packet member {member} out of range")
    c, e_ev, _ = wp.members[member]
    tau = fs_to_au(t_fs - wp.t0_fs)
    return c * cmath.exp(-1j * ev_to_hartree(e_ev) * tau)


def phases_finite(wp: WavePacket, times):
    """Whether the phase angle E_I (t - t0) (atomic units) that
    wave_packet_phase forms is finite for every member I and delay t."""
    energies = ev_to_hartree(np.array([e for _, e, _ in wp.members]))
    with np.errstate(over="ignore", invalid="ignore"):
        angles = fs_to_au(np.asarray(times, dtype=float)[:, None] - wp.t0_fs) * energies
    return bool(np.all(np.isfinite(angles)))


def at_delays(kernel, wp: WavePacket, times):
    """Re[z(t)^H K z(t)] for each delay t, with z_I(t) the member phases; K
    is a member-pair array of shape (M, M, ...)."""
    out = []
    for t in times:
        z = np.array([wave_packet_phase(wp, i, t) for i in range(wp.n_members)])
        out.append(np.einsum("i,ij...,j->...", z.conj(), kernel, z).real)
    return out


@dataclass(frozen=True)
class ProbePulse:
    """Gaussian XUV probe: intensity profile I0 exp(-4 ln2 ((t-tp)/tau)^2)."""

    photon_energy_ev: float
    polarization: np.ndarray
    duration_fwhm_fs: float

    def __post_init__(self):
        if not self.photon_energy_ev > 0:
            raise ModelError("photon energy must be positive")
        if not self.duration_fwhm_fs > 0:
            raise ModelError("pulse duration must be positive")
        if not fs_to_au(self.duration_fwhm_fs) < math.inf:
            raise ModelError(f"pulse duration {self.duration_fwhm_fs} fs is not finite "
                             "in atomic units")
        pol = np.array(self.polarization, dtype=float).reshape(3)
        n = np.linalg.norm(pol)
        if abs(n - 1.0) > 1e-8:
            raise ModelError(f"polarization must be a unit vector, |e| = {n}")
        pol.flags.writeable = False
        object.__setattr__(self, "polarization", pol)
