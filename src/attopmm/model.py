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
    "L+2" offset +3;
  * a delay enters only through WavePacket.phases, one (T, M) array per
    call, and at_delays is the one contraction of a member-pair array with it.
"""

from __future__ import annotations

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


class Record:
    """Base of the read-only records: __init__ validates its arguments and
    sets every field once, with _set(*values) in __slots__ order; assigning
    or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):   # also serves as __delattr__
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def read_only(arr):
    """arr, flagged read-only in place."""
    arr.flags.writeable = False
    return arr


def held(arr):
    """arr if it is read-only and owns its memory, else a read-only copy: a
    record never flags or shares its caller's array."""
    return arr if not arr.flags.writeable and arr.flags.owndata else read_only(arr.copy())


def ev_to_hartree(e):
    return np.asarray(e, dtype=float) / HARTREE_EV if np.ndim(e) else e / HARTREE_EV


def fs_to_au(t):
    return t / ATOMIC_TIME_FS


def angstrom_to_bohr(x):
    return np.asarray(x, dtype=float) / BOHR_ANGSTROM if np.ndim(x) else x / BOHR_ANGSTROM


def inv_angstrom_to_au(q):
    # momentum: q [bohr^-1] = q [A^-1] * (A per bohr)
    return np.asarray(q, dtype=float) * BOHR_ANGSTROM if np.ndim(q) else q * BOHR_ANGSTROM


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


@dataclass(frozen=True, eq=False)
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
        center = read_only(np.array(self.center, dtype=float).reshape(3))
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


def pz_overlap(centers_bohr, exponent):
    """Overlap matrix of normalized p_z Gaussians of one exponent at the
    centers (N, 3) in bohr: (1 - a d_z^2) exp(-a |d|^2 / 2), d = R_i - R_j.
    For coplanar centers d_z = 0 and the first factor is exactly 1."""
    d = centers_bohr[:, None, :] - centers_bohr[None, :, :]
    return (1.0 - exponent * d[..., 2] ** 2) \
        * np.exp(-0.5 * exponent * np.einsum("ijk,ijk->ij", d, d))


# ---------------------------------------------------------------------------
# volumetric grids

@dataclass(frozen=True, eq=False)
class VolumetricGrid:
    """Regular 3D grid: point (i,j,k) sits at origin + i a0 + j a1 + k a2 (bohr).

    values, held read-only (held), may be None for a grid that only samples.
    """

    origin: np.ndarray
    axes: np.ndarray
    counts: tuple
    values: np.ndarray = None

    def __post_init__(self):
        origin = read_only(np.array(self.origin, dtype=float).reshape(3))
        axes = read_only(np.array(self.axes, dtype=float).reshape(3, 3))
        counts = tuple(int(c) for c in self.counts)
        if any(c < 2 for c in counts):
            raise ModelError(f"grid needs >= 2 points per axis, got {counts}")
        if abs(np.linalg.det(axes)) < 1e-14:
            raise ModelError("grid axes are linearly dependent")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "counts", counts)
        if self.values is not None:
            values = np.asarray(self.values)
            if values.shape != counts:
                raise ModelError(f"values shape {values.shape} != counts {counts}")
            object.__setattr__(self, "values", held(values))

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

@dataclass(frozen=True, eq=False)
class MolecularOrbital:
    """One-electron orbital, either an LCAO over Gaussian primitives or a grid."""

    label: str
    coefficients: np.ndarray = None
    primitives: tuple = None
    grid: VolumetricGrid = None
    energy: float = None

    def __post_init__(self):
        lcao = self.coefficients is not None and self.primitives is not None
        if not lcao and self.grid is None:
            raise ModelError(f"orbital {self.label!r} has no LCAO expansion and no grid")
        if lcao:
            coeff = read_only(np.array(self.coefficients, dtype=float).ravel())
            prims = tuple(self.primitives)
            if len(coeff) != len(prims) or len(prims) == 0:
                raise ModelError(
                    f"orbital {self.label!r}: {len(coeff)} coefficients for "
                    f"{len(prims)} primitives")
            object.__setattr__(self, "coefficients", coeff)
            object.__setattr__(self, "primitives", prims)
        if self.grid is not None and self.grid.values is None:
            raise ModelError(f"orbital {self.label!r}: grid orbital without values")

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


def occupied_offsets(mos):
    """Offsets of the closed-shell occupied orbitals: every offset <= 0."""
    return tuple(sorted(mo.offset for mo in mos if mo.offset <= 0))


# ---------------------------------------------------------------------------
# determinants, CSFs, states

class SlaterDeterminant(Record):
    """Occupied spin-orbitals in canonical order (orbital offset asc, up<down).
    Determinants compare and hash by their spin-orbitals."""

    __slots__ = ("spin_orbitals",)

    def __init__(self, spin_orbitals):
        so = tuple((int(o), int(s)) for o, s in spin_orbitals)
        if len(set(so)) != len(so):
            raise ModelError(f"duplicate spin-orbital in determinant {so}")
        if any(s not in (UP, DOWN) for _, s in so):
            raise ModelError("spin must be UP or DOWN")
        if list(so) != sorted(so):
            raise ModelError("determinant not in canonical order; "
                             "use canonical_determinant()")
        self._set(so)

    def __eq__(self, other):
        if type(other) is not SlaterDeterminant:
            return NotImplemented
        return self.spin_orbitals == other.spin_orbitals

    def __hash__(self):
        return hash(self.spin_orbitals)

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


class ConfigurationStateFunction(Record):
    """Spin-adapted combination of determinants with definite (S, M),
    labeled by its hole and particle orbitals; expansion is
    ((coefficient, SlaterDeterminant), ...)."""

    __slots__ = ("holes", "particles", "expansion")

    def __init__(self, holes, particles, expansion):
        exp = tuple((float(c), d) for c, d in expansion)
        if not exp:
            raise ModelError("CSF with empty determinant expansion")
        norm = sum(c * c for c, _ in exp)
        if abs(norm - 1.0) > 1e-12:
            raise ModelError(f"CSF expansion norm {norm} != 1")
        counts = {d.n_electrons for _, d in exp}
        if len(counts) != 1:
            raise ModelError("CSF determinants with mixed electron counts")
        self._set(tuple(int(h) for h in holes), tuple(int(p) for p in particles), exp)

    @property
    def n_electrons(self):
        return self.expansion[0][1].n_electrons


class ElectronicState(Record):
    """CI state: energy (eV) and a CSF expansion
    ((coefficient, ConfigurationStateFunction), ...). Truncated norms allowed."""

    __slots__ = ("energy_ev", "expansion")

    def __init__(self, energy_ev, expansion):
        exp = tuple((float(c), csf) for c, csf in expansion)
        if not exp:
            raise ModelError("electronic state with empty expansion")
        norm = sum(c * c for c, _ in exp)
        if norm > 1.0 + 1e-6:
            raise ModelError(f"CI weights sum to {norm} > 1")
        counts = {csf.n_electrons for _, csf in exp}
        if len(counts) != 1:
            raise ModelError("state mixes electron counts")
        self._set(energy_ev, exp)

    @property
    def n_electrons(self):
        return self.expansion[0][1].n_electrons


class WavePacket(Record):
    """Coherent superposition sum_I C_I e^{-i E_I (t - t0)} |Phi_I>, with
    members ((C_I complex, E_I_ev, ElectronicState), ...).

    Construction enforces sum |C_I|^2 = 1; a violation is an error, never a
    silent renormalization.
    """

    __slots__ = ("members", "t0_fs")

    def __init__(self, members, t0_fs=0.0):
        members = tuple((complex(c), float(e), st) for c, e, st in members)
        if not members:
            raise ModelError("empty wave packet")
        norm = sum(abs(c) ** 2 for c, _, _ in members)
        if abs(norm - 1.0) > 1e-10:
            raise ModelError(f"wave-packet weights sum to {norm}, expected 1")
        counts = {st.n_electrons for _, _, st in members}
        if len(counts) != 1:
            raise ModelError("wave-packet members with different electron counts")
        self._set(members, t0_fs)

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

    def phases(self, times_fs):
        """Member phases z_I(t) = C_I exp(-i E_I (t - t0)) at the 1-D delays
        times_fs (fs), shape (T, M), formed in atomic units. An angle
        E_I (t - t0) that overflows gives a non-finite entry, not a warning."""
        coeffs = np.array([c for c, _, _ in self.members])
        energies = ev_to_hartree(np.array([e for _, e, _ in self.members]))
        times = np.asarray(times_fs, dtype=float).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return coeffs * np.exp(-1j * (fs_to_au(times - self.t0_fs) * energies))


def at_delays(kernel, phases):
    """Re[z(t)^H K z(t)] at each delay, shape (T, ...): phases (T, M) from
    WavePacket.phases, K a member-pair array of shape (M, M, ...). The M^2
    terms Re(w_ij) Re K_ij - Im(w_ij) Im K_ij, w_ij = conj(z_i) z_j, are
    summed elementwise in one fixed order (i outer, j inner), so no value
    depends on which delays or trailing entries share the call."""
    z = phases.T.reshape(phases.shape[::-1] + (1,) * (kernel.ndim - 2))
    out = np.zeros(phases.shape[:1] + kernel.shape[2:])
    term, part = np.empty_like(out), np.empty_like(out)   # reused by every pair
    for i, j in np.ndindex(kernel.shape[:2]):
        a, b = z[i], z[j]
        np.multiply(a.real * b.real + a.imag * b.imag, kernel[i, j].real, out=term)
        np.multiply(a.real * b.imag - a.imag * b.real, kernel[i, j].imag, out=part)
        term -= part
        out += term
    return out


@dataclass(frozen=True, eq=False)
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
        pol = read_only(np.array(self.polarization, dtype=float).reshape(3))
        n = np.linalg.norm(pol)
        if abs(n - 1.0) > 1e-8:
            raise ModelError(f"polarization must be a unit vector, |e| = {n}")
        object.__setattr__(self, "polarization", pol)
