"""Momentum-space machinery: closed-form Fourier transforms of Gaussian
primitives, numeric transforms of grid-backed orbitals, momentum grids, and
closed-form angle integrals of primitive pairs over a sphere |q| = k.

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
A grid-backed orbital's block size depends only on its grid, never on how
many samples share a call, and a block of one sample rounds like any other.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .model import (
    BOHR_ANGSTROM,
    ModelError,
    Record,
    ev_to_hartree,
    held,
    inv_angstrom_to_au,
    primitive_norm,
    read_only,
)

# Samples go in fixed blocks: orbital_ft's (block, P) phases and a map
# kernel's (P, M, M, block) slice (whole raster lines, so a block holds more
# only when one line does) stay small, and no sample's arithmetic depends on
# the grid size. Caps: _GRID_ELEMENTS partial sums per block of a grid-backed
# orbital and mask values per line_spans pass, _PASS_ELEMENTS values per
# structure_factors pass.
_SAMPLE_BLOCK = 4096
_GRID_ELEMENTS = 1 << 18
_PASS_ELEMENTS = 1 << 13


class MomentumError(ValueError):
    """Unsupported or inconsistent momentum-space request."""


# ---------------------------------------------------------------------------
# closed-form transform

def _axis_factor(l, k, exponent):
    """1D factor for Cartesian power l at momentum k (vectorized in k).

    H_l(x) runs the Clenshaw recurrence of numpy's hermval(x, [0]*l + [1])
    operation for operation, so the factor is bit-identical to hermval's,
    signed zeros included."""
    root = math.sqrt(exponent)
    base = math.sqrt(math.pi / exponent) * np.exp(-(k * k) / (4.0 * exponent))
    if l == 0:
        return base.astype(complex) if isinstance(base, np.ndarray) else complex(base)
    x2 = k / (2.0 * root) * 2
    c0, c1 = 0.0, 1.0
    for nd in range(l, 1, -1):
        c0, c1 = 0.0 - c1 * (2 * (nd - 1)), c0 + c1 * x2
    return base * (c0 + c1 * x2) * (-1j / (2.0 * root)) ** l


def shape_factor(exponent, powers, q):
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

class MomentumGrid(Record):
    """Sample set in momentum space: samples (N, 3) in a.u. and their (N,)
    bool valid mask, held as points and mask.

    A constant-energy hemisphere (build_hemisphere) is a raster of the given
    shape over in-plane (q_x, q_y), with 1D coordinates axis_x, axis_y in
    1/Angstrom and q_z = +sqrt(2 eps - q_x^2 - q_y^2), samples outside the
    kinematic disc flagged invalid. It holds no points or mask, only its
    axes, its energy e_au (hartree) and its disc as spans (line_spans), and
    forms samples and valid anew on each request; a full sphere
    (build_sphere) carries quadrature weights (sum = 4 pi) for angle
    integration.
    """

    __slots__ = ("points", "mask", "shape", "axis_x", "axis_y", "weights", "e_au", "spans")

    def __init__(self, samples, valid, shape=None, axis_x=None, axis_y=None,
                 weights=None, e_au=None, spans=None):
        if spans is None:
            samples = np.ascontiguousarray(samples, dtype=float)
            valid = np.asarray(valid, dtype=bool)
            samples = samples if samples.shape[1:] == (3,) else samples.reshape(-1, 3)
            valid = valid if valid.ndim == 1 else valid.reshape(-1)
            if len(valid) != len(samples):
                raise ModelError("valid mask length does not match samples")
            samples, valid = held(samples), held(valid)
        self._set(samples, valid, shape,
                  *(None if a is None else held(np.asarray(a, dtype=float))
                    for a in (axis_x, axis_y, weights)),
                  e_au, None if spans is None else held(spans))

    @property
    def samples(self):
        """The samples; a raster's are lifted anew, as lift on its C-order points."""
        if self.spans is None:
            return self.points
        nx, ny = self.shape
        return lift(self.e_au, np.repeat(inv_angstrom_to_au(self.axis_x), ny),
                    np.tile(inv_angstrom_to_au(self.axis_y), nx))[0]

    @property
    def valid(self):
        """The valid mask; a raster's is formed anew from its spans."""
        if self.spans is None:
            return self.mask
        mask = np.zeros(self.shape, dtype=bool)
        for i, first, count in self.spans.T.tolist():
            mask[i, first:first + count] = True
        return read_only(mask.reshape(-1))

    @property
    def n_samples(self):
        return len(self.points) if self.spans is None else self.shape[0] * self.shape[1]


def line_spans(inside, n_lines, n_columns):
    """Spans (3, n) of the samples of a raster where inside(lines), the
    (len, n_columns) mask of a slice of lines, holds: the line, first column
    and count of each run of them, in C order. The mask is formed a few
    lines at a time; a disc of a raster (monotone axes) is one span a line."""
    parts = [np.zeros((3, 0), dtype=np.intp)]
    step = max(1, _GRID_ELEMENTS // n_columns)
    for lo in range(0, n_lines, step):
        line, col = np.nonzero(np.diff(inside(slice(lo, lo + step)), axis=1,
                                       prepend=False, append=False))
        parts.append(np.array([line[::2] + lo, col[::2], col[1::2] - col[::2]]))
    return read_only(np.concatenate(parts, axis=1))


def line_blocks(count, size):
    """Ranges (start, stop) of the samples of spans of count[k] samples in
    order, each of whole spans and at most `size` samples; a span holding
    more is a range of its own."""
    ends = np.cumsum(count).tolist()
    k = 0                               # spans before the range
    while k < len(ends):
        start = ends[k - 1] if k else 0
        k = max(k + 1, bisect.bisect_right(ends, start + size))
        yield start, ends[k - 1]


def line_runs(spans, blocks):
    """Per range (start, stop) of `blocks`, in order, of the samples of
    `spans` (line_spans): a list of (i, cols, part) per span that holds some
    of them, with i its line, cols their columns and part their slice of
    start:stop."""
    lines, firsts, counts = spans.tolist()
    k = at = 0                          # span k starts at sample `at`
    for start, stop in blocks:
        runs = []
        while k < len(counts) and at < stop:
            lo, hi = max(start, at), min(stop, at + counts[k])
            if hi > lo:
                runs.append((lines[k], slice(firsts[k] + lo - at, firsts[k] + hi - at),
                             slice(lo - start, hi - start)))
            if at + counts[k] > stop:
                break                   # span k goes on in the next range
            at += counts[k]
            k += 1
        yield runs


def raster_blocks(grid: MomentumGrid):
    """A raster's disc (spans) in blocks of whole lines (line_blocks): each
    block's line_runs and its samples' line and column indices, C order."""
    for runs in line_runs(grid.spans, line_blocks(grid.spans[2], _SAMPLE_BLOCK)):
        i, j = np.empty((2, runs[-1][2].stop), dtype=np.intp)
        for line, cols, part in runs:
            i[part], j[part] = line, np.arange(cols.start, cols.stop)
        yield runs, i, j


def build_hemisphere(energy_ev, nx, ny, q_max_inv_angstrom=None):
    """Constant-energy hemisphere raster at photoelectron energy eps (eV).

    Uniform (q_x, q_y) raster spanning +-q_max (1/Angstrom; defaults to the
    kinematic disc radius sqrt(2 eps)), with q_z = +sqrt(2 eps - q_x^2 - q_y^2).
    Its disc is lift's mask, in spans.
    """
    if not 0 < energy_ev < math.inf:
        raise MomentumError(
            f"photoelectron energy must be positive and finite, got {energy_ev}")
    if int(nx) < 2 or int(ny) < 2:
        raise MomentumError(f"map raster needs at least 2 points per axis, got {nx} x {ny}")
    e_au = ev_to_hartree(energy_ev)
    q_disc_au = math.sqrt(2.0 * e_au)
    q_max = q_disc_au / BOHR_ANGSTROM if q_max_inv_angstrom is None else float(q_max_inv_angstrom)
    if not (q_max > 0 and 2.0 * q_max * q_max < math.inf):   # a corner's |q|^2
        raise MomentumError(
            f"raster half-width must be positive with a finite square, got {q_max}")
    axis_x = np.linspace(-q_max, q_max, int(nx))
    axis_y = np.linspace(-q_max, q_max, int(ny))
    qx, qy = inv_angstrom_to_au(axis_x)[:, None], inv_angstrom_to_au(axis_y)[None, :]
    spans = line_spans(lambda lines: _lifted_qz(e_au, qx[lines], qy)[1], int(nx), int(ny))
    return MomentumGrid(None, None, shape=(int(nx), int(ny)), axis_x=read_only(axis_x),
                        axis_y=read_only(axis_y), e_au=e_au, spans=spans)


def lift(e_au, qx, qy):
    """Raster points (q_x, q_y) lifted to q_z = +sqrt(2 eps - q_x^2 - q_y^2)
    at energy e_au (hartree): read-only samples (n, 3) and disc mask."""
    qz, valid = _lifted_qz(e_au, qx, qy)
    return read_only(np.stack([qx, qy, qz], axis=1)), read_only(valid)


def _lifted_qz(e_au, qx, qy):
    """q_z of lift and its disc mask, broadcast over energies and points."""
    qz_sq = 2.0 * e_au - qx ** 2 - qy ** 2
    # Relative tolerance keeps raster points that land on the kinematic
    # circle only up to float rounding (axis extremes, Pythagorean index
    # pairs) deterministically inside; mirrors the exporter's predicate.
    valid = qz_sq >= -2.0 * e_au * 1e-12
    return np.sqrt(np.clip(qz_sq, 0.0, None)), valid


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
    if not 0 < energy_ev < math.inf:
        raise MomentumError(
            f"photoelectron energy must be positive and finite, got {energy_ev}")
    dirs, weights = quadrature or sphere_quadrature(n_polar, n_azimuth)
    q = math.sqrt(2.0 * ev_to_hartree(energy_ev))
    return MomentumGrid(samples=read_only(q * dirs),
                        valid=read_only(np.ones(len(dirs), dtype=bool)), weights=weights)


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


def planar_basis(mos):
    """(centers (P, 3), coefficients (P, M), exponent, powers) of LCAO
    orbitals over primitives of one shape with every center at one height
    z0; None for any other orbital set.

    On a hemisphere raster their transforms then factorize as

        F[mos[m]](q) = shape_factor(q) exp(-i q_z z0) S_m(q_x, q_y),
        S_m(q_x, q_y) = sum_a C[a, m] exp(-i (q_x X_a + q_y Y_a)),

    where only the shape factor depends on the energy (structure_factors).
    """
    if not all(mo.is_lcao for mo in mos):
        return None
    centers, coeffs, shapes = _lcao_basis(mos)
    if len(shapes) != 1 or np.any(centers[:, 2] != centers[0, 2]):
        return None
    (exponent, powers, _), = shapes
    return centers, coeffs, exponent, powers


def structure_factors(grid: MomentumGrid, planar, energies_ev, polarization):
    """A planar basis (planar_basis) on a hemisphere raster's disc per
    raster_blocks block: yields (runs, S, T) with the block's line_runs,
    S[n, m] = sum_a C[a, m] exp(-i (q_x X_a + q_y Y_a)), shape (n, M), and
    T[e, n] = |eps . q_e|^2 |shape_factor(q_e)|^2 valid_e at each of the
    energies_ev (q_e lifted as by lift), shape (E, n). Both go per axis:
    the phases and c X(q_x), Y(q_y) of shape_factor = c X Y Z(q_z) once per
    raster line and column, S per line as (ex[i] * ey[cols]) @ C (one
    sample as two copies, as in orbital_ft); q_z, Z, eps . q_e and the disc
    masks in one pass over all energies, in shape_factor's order, so T
    holds its |shape_factor|^2 bit for bit."""
    centers, coeffs, exponent, powers = planar
    px, py, pz = polarization
    qx, qy = inv_angstrom_to_au(grid.axis_x), inv_angstrom_to_au(grid.axis_y)
    ex = _phases(np.outer(qx, centers[:, 0]))
    ey = _phases(np.outer(qy, centers[:, 1]))
    c = primitive_norm(exponent, powers) * (2.0 * math.pi) ** -1.5
    fx = np.full(len(qx), c, dtype=complex) * _axis_factor(powers[0], qx, exponent)
    fy = _axis_factor(powers[1], qy, exponent)
    e_au = ev_to_hartree(np.asarray(energies_ev, dtype=float))[:, None]
    step = max(1, _PASS_ELEMENTS // max(1, len(e_au)))
    for runs, i, j in raster_blocks(grid):
        factors = np.empty((len(i), coeffs.shape[1]), dtype=complex)
        for line, cols, part in runs:
            row = ey[cols] if cols.stop - cols.start > 1 else np.repeat(ey[cols], 2, 0)
            factors[part] = ((ex[line] * row) @ coeffs)[:cols.stop - cols.start]
        table = np.empty((len(e_au), len(i)))
        for lo in range(0, len(i), step):
            ii, jj = i[lo:lo + step], j[lo:lo + step]
            qz, inside = _lifted_qz(e_au, qx[ii], qy[jj])
            shape = fx[ii] * fy[jj] * _axis_factor(powers[2], qz, exponent)
            proj = (px * qx[ii] + py * qy[jj] + pz * qz) ** 2 * inside
            table[:, lo:lo + step] = (shape.real ** 2 + shape.imag ** 2) * proj
        yield runs, factors, table


def _blocks(q, size):
    """(start, stop, block) over q in fixed blocks of `size`; a block of one
    sample holds two copies, as BLAS would round a single row another way."""
    for start in range(0, len(q), size):
        block = q[start:start + size]
        yield start, start + len(block), block if len(block) > 1 else np.repeat(block, 2, 0)


def orbital_ft(mos, grid: MomentumGrid):
    """Transforms of orbitals on a grid, shape (M, N): row m for mos[m].

    LCAO orbitals in closed form over their shared primitives: B(q) @ C,
    evaluated as sum over shapes of shape_factor(q) * (exp(-i q.R) @ C) so
    B itself is never stored. Grid-backed orbitals by Riemann sum with
    voxel-volume weights (same continuum normalization) at exactly the
    requested q samples: for any axes, exp(-i q.r) at voxel r = o + i a0 +
    j a1 + k a2 is a product of per-axis phases, so per sample block the a0
    sum is one matrix product over the values as (n0, n1 n2), and the a2
    and a1 sums are elementwise.
    """
    q = grid.samples
    out = np.empty((len(mos), len(q)), dtype=complex)
    lcao = [m for m, mo in enumerate(mos) if mo.is_lcao]
    centers, coeffs, shapes = _lcao_basis([mos[m] for m in lcao])
    for start, stop, block in _blocks(q, _SAMPLE_BLOCK) if lcao else ():
        e = _phases(block @ centers.T)
        amp = sum(shape_factor(exponent, powers, block)[:, None]
                  * (e[:, rows] @ coeffs[rows]) for exponent, powers, rows in shapes)
        out[lcao, start:stop] = amp[:stop - start].T
    for m, g in ((m, mo.grid) for m, mo in enumerate(mos) if not mo.is_lcao):
        n0, n1, n2 = g.counts
        values = g.values.reshape(n0, -1) * complex(g.voxel_volume * (2.0 * math.pi) ** -1.5)
        for start, stop, block in _blocks(q, max(1, _GRID_ELEMENTS // (n0 + n1 * n2))):
            p0, p1, p2 = (_phases(np.outer(t, np.arange(n)))
                          for t, n in zip((block @ g.axes.T).T, g.counts))
            partial = (p0 @ values).reshape(-1, n1, n2)
            partial *= p2[:, None, :]
            out[m, start:stop] = (_phases(block @ g.origin)
                                  * (partial.sum(axis=2) * p1).sum(axis=1))[:stop - start]
    return out



# ---------------------------------------------------------------------------
# angle integrals on the sphere |q| = k

# Below this argument the power series of j_l replaces the closed forms, whose
# sin/cos terms cancel to x^l / (2l+1)!! and lose ~1e-16 (105 / x^4) for j_4.
_BESSEL_SERIES_BELOW = 4.0
# j_l(x) = x^l sum_m c[m, l] x^(2m) with c[m, l] = (-1/2)^m / (m! (2l+2m+1)!!);
# for m < 20 the first omitted term is below 1e-25 at x = 4.
_BESSEL_SERIES = np.array([[
    (-0.5) ** m / (math.factorial(m) * math.prod(range(1, 2 * l + 2 * m + 2, 2)))
    for l in range(5)] for m in range(20)])


def spherical_bessel(x):
    """Spherical Bessel functions j_0 ... j_4 at x >= 0, shape (5,) + x.shape.

    For x >= 4: j_0 = sin x / x, j_1 = (j_0 - cos x) / x and the upward
    recurrence j_{l+1} = (2l + 1) j_l / x - j_{l-1}, stable for x > l. Below:
    the power series j_l = x^l sum_m (-x^2/2)^m / (m! (2l+2m+1)!!), summed
    by Horner's rule in x^2. The absolute error stays below 1e-15.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((5,) + x.shape)
    small = x < _BESSEL_SERIES_BELOW
    xs, xl = x[small], x[~small]
    x2 = xs * xs
    total = np.repeat(_BESSEL_SERIES[-1][:, None], len(xs), axis=1)
    for row in _BESSEL_SERIES[-2::-1]:
        total = total * x2 + row[:, None]
    power = np.ones_like(xs)
    for l in range(5):
        out[l][small] = power * total[l]
        power = power * xs
    r = 1.0 / xl
    j0 = np.sin(xl) * r
    large = [j0, (j0 - np.cos(xl)) * r]
    for l in range(1, 4):
        large.append((2 * l + 1) * r * large[l] - large[l - 1])
    for l in range(5):
        out[l][~small] = large[l]
    return out


def sphere_pair_matrices(mos, polarization):
    """Closed-form angle integrals of primitive pairs for LCAO orbitals over
    s and p primitives; None for any other orbital set.

    Returns (C, pair_matrix): C (P, M) are the coefficient columns of mos
    over their shared primitives B_a, and pair_matrix(energies_ev) stacks
    one real symmetric (P, P) matrix per energy, shape (E, P, P),

        A_ab(k) = Integral dOmega (eps.q)^2 conj(B_a(q)) B_b(q),  |q| = k,

    so that Integral dOmega (eps.q)^2 conj(F_m) F_n = (C^T A C)_mn.

    On the sphere B_a = rho_a(k) (-i)^l_a P_a(n) exp(-i k n.R_a), with
    P_a = 1 (s, l_a = 0) or n_i (p along axis i, l_a = 1) and
    rho_a = N_a (2 pi)^{-3/2} (pi / alpha_a)^{3/2} exp(-k^2 / (4 alpha_a))
    (k / (2 alpha_a))^l_a. The Rayleigh expansion integrates
    n_i ... n_l exp(i k n.d), d = R_a - R_b, over angles exactly; with
    u = d / |d|, x = k |d| and (4 pi) dropped the rank-2, 3 and 4 tensors are

        delta_ij (j0 + j2)/3 - u_i u_j j2,
        i [sym(delta_ij u_k) (j1 + j3)/5 - u_i u_j u_k j3],
        sym(delta_ij delta_kl) (7 j0 + 10 j2 + 3 j4)/105
            - sym(delta_ij u_k u_l) (j2 + j4)/7 + u_i u_j u_k u_l j4.

    Contracted with eps_i eps_j and the p axes they give one geometric
    weight per j_l and pair, fixed for all energies. For p_z pairs in a
    plane z = const and eps along z the sum is (4 pi / 35)(7 j0 + 10 j2 + 3 j4).

    The j_l depend on a pair only through its distance |d|, and many pairs
    share one (pentacene's 22 carbons: 484 pairs, 33 distances), so each
    call evaluates j_0..j_4 once on k x the distinct distances, gathers them
    onto the pairs and contracts them with the weights in one einsum.
    """
    if not all(mo.is_lcao for mo in mos):
        return None
    centers, coeffs, shapes = _lcao_basis(mos)
    n_prims = len(centers)
    alpha, scale = np.empty(n_prims), np.empty(n_prims)
    axis = np.zeros((n_prims, 3))
    for exponent, powers, rows in shapes:
        if sum(powers) > 1:
            return None
        alpha[rows] = exponent
        scale[rows] = (primitive_norm(exponent, powers) * (2.0 * math.pi) ** -1.5
                       * (math.pi / exponent) ** 1.5)
        axis[rows] = powers
    s = 1.0 - axis.sum(axis=1)               # 1 for s, 0 for p primitives
    d = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("abk,abk->ab", d, d))
    u = d / np.where(dist > 0, dist, 1.0)[..., None]
    eps = np.asarray(polarization, dtype=float)
    ee = float(eps @ eps)
    eu = u @ eps                               # eps.u
    ua = np.einsum("abk,ak->ab", u, axis)      # u.v_a
    ub = np.einsum("abk,bk->ab", u, axis)      # u.v_b
    ev = axis @ eps
    ea, eb = ev[:, None], ev[None, :]
    sa, sb = s[:, None], s[None, :]
    # every product below is formed so that swapping a and b (u -> -u)
    # gives bit for bit the same value: A is exactly symmetric
    eu2, uu, vv = eu * eu, ua * ub, axis @ axis.T
    xa = ee * ua + 2.0 * eu * ea
    xb = ee * ub + 2.0 * eu * eb
    y = ee * vv + 2.0 * ea * eb
    z = ee * uu + 2.0 * eu * (ea * ub + eb * ua) + eu2 * vv
    weights = 4.0 * math.pi * np.stack([
        sa * sb * ee / 3.0 + y / 15.0,
        (sa * xb - sb * xa) / 5.0,
        sa * sb * (ee / 3.0 - eu2) + 2.0 * y / 21.0 - z / 7.0,
        sa * (xb / 5.0 - eu2 * ub) - sb * (xa / 5.0 - eu2 * ua),
        y / 35.0 - z / 7.0 + eu2 * uu,
    ])
    degree = 1.0 - s
    lengths, which = np.unique(dist, return_inverse=True)
    which = which.reshape(dist.shape)       # numpy < 2 returns it flat

    def pair_matrix(energies_ev):
        k = np.sqrt(2.0 * ev_to_hartree(np.asarray(energies_ev, dtype=float)))[:, None]
        rho = scale * np.exp(-(k * k) / (4.0 * alpha)) * (k / (2.0 * alpha)) ** degree
        bessel = spherical_bessel(k * lengths)[:, :, which]
        angular = np.einsum("lab,leab->eab", weights, bessel)
        return rho[:, :, None] * rho[:, None, :] * ((k * k)[:, :, None] * angular)

    return coeffs, pair_matrix
