"""File formats: Gaussian cube volumetric I/O, the ionic final-state table,
scenario configuration, and delimited-text result export.

Final-state table (tab-separated, '#' comments):

    index <TAB> energy_ev [<TAB> center_ev] <TAB> expansion

where `expansion` is a signed sum of configuration terms, e.g.

    -0.83 h(H,H) p(L) + 0.31 h(H-4)
    -0.62 h(H,H) p(L+1) + 0.50 h(H-1,H) p(L) [udu] + 0.28 h(H-1,H) p(L) [uud]

Term shapes: `c h(X)` is a one-hole doublet; `c h(X,X) p(Z)` empties orbital
X onto particle Z; `c h(X,Y) p(Z) [udu|uud]` is a two-hole/one-particle
doublet whose three open shells carry the tagged genealogical spin coupling.
The optional third column states the expected photoelectron-energy center
omega_in + <E> - E_F and is cross-checked after the wave packet is known.

Scenario config is JSON with a fixed schema (unknown keys rejected with
their full dotted path). Exports are '#'-headered UTF-8 text, LF endings,
%.12e values, deterministic row order, reimportable by the bundled readers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from pathlib import Path

import numpy as np

from . import algebra, momentum, signal
from .density import DensityFrame, frame_values
from .huckel import huckel_orbitals, pentacene_atoms
from .model import (
    ElectronicState,
    GaussianPrimitive,
    ModelError,
    MolecularOrbital,
    ProbePulse,
    Record,
    VolumetricGrid,
    WavePacket,
    angstrom_to_bohr,
    occupied_offsets,
    orbital_offset,
    pz_overlap,
    read_only,
)
from .signal import PMM, Spectrum

log = logging.getLogger(__name__)


class CubeFormatError(ValueError):
    """Malformed Gaussian-cube content; message carries the line number."""


class TableFormatError(ValueError):
    """Malformed final-state table; message carries the line number."""


class ConfigError(ValueError):
    """Scenario config failed schema validation or range checks."""


class ExportFormatError(ValueError):
    """Malformed exported-result file."""


# ---------------------------------------------------------------------------
# numeric text tables
#
# Every exporter writes the bytes '%'-formatting would, a block of lines at a
# time. _records turns each value v into the integer rint(|v| * 10^k) with
# `digits` decimal digits and fills a uint8 record, one table gather per group
# of four digits after the point and one for the exponent; _lines adds the
# separators and newlines and drops the zero bytes of empty slots (a record
# has a sign or exponent-hundreds slot only if its call needs one).
# |v| * 10^k carries a relative error of at most ~2 eps (four correctly
# rounded steps), so rint is exact unless the scaled value lies within 16 eps
# of a half-integer. There, if 10^k is exact (0 <= k <= 22), one product and
# its exact residual decide; true ties, other k, subnormals and non-finite
# values go through '%' itself (_percent).
# Cubes and spectra format every cell (_write_table); a map formats each axis
# value once and gathers its record per row (_write_map_rows). Each call
# allocates its block buffers once (_Buffers) and reuses them for every block,
# except a map block's text: blocks of whole spans vary in size.

_BLOCK_LINES = 8192
_TABLE_BLOCK_LINES = 2048   # a cube block's buffers hold ~100 bytes per value
_TIE_BAND = 16.0 * np.finfo(float).eps
# correctly rounded powers of ten (the float parser rounds exactly):
# _POW10[k] = 10^k for |k| <= 170, a negative k counting from the end
_POW10 = np.array([float(f"1e{k}") for k in (*range(171), *range(-170, 0))])
_EXP10 = np.arange(-308, 309)           # decimal exponents of the normal doubles
# four ASCII bytes in one uint32 (uint16 arithmetic keeps temporaries small):
# '%04d' % k for k < 10^4, and the text after the 'e' or 'E' of each _EXP10
# (sign, hundreds or a zero byte, tens, ones; _EXPONENTS_2: hundreds first)
_DIGIT_GROUPS = (np.uint16(np.arange(10 ** 4))[:, None] // np.uint16([1000, 100, 10, 1])
                 % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
_EXPONENTS = _DIGIT_GROUPS[abs(_EXP10)].view(np.uint8).reshape(-1, 4)
_EXPONENTS[:, 0] = np.where(_EXP10 < 0, ord("-"), ord("+"))
_EXPONENTS[abs(_EXP10) < 100, 1] = 0
_EXPONENTS_2 = _EXPONENTS[:, [1, 0, 2, 3]].copy().view(np.uint32)[:, 0]
_EXPONENTS = _EXPONENTS.view(np.uint32)[:, 0]


class _Buffers(dict):
    """The block buffers of one writer call: arrays by name, allocated once and
    reused from the front by every later block, and a bytearray per size."""

    def __call__(self, n, dtype, names):
        for name in names.split():
            if name not in self or len(self[name]) < n:
                self[name] = np.empty(n, dtype)
        return [self[name][:n] for name in names.split()]

    def text(self, size):
        return self[size] if size in self else self.setdefault(size, bytearray(size))


def _exact_ties(a, y, k, redo, bad):
    """Of the near-ties `redo`, with their k and bad flags, those only '%' can
    round. At the others y becomes p = fl(a 10^k), on a 10^k's side of a
    half-integer or on it, then half a unit toward the exact residual's sign (Dekker)."""
    exact = (k >= 0) & (k <= 22) & ~bad
    near, b = redo[exact], _POW10[k[exact]]
    a = a[near]
    p = a * b
    ah, bh = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))   # 2^27 + 1
    err = ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    half = p - np.floor(p) == 0.5
    y[near] = p + 0.5 * np.sign(err) * half
    return np.concatenate([redo[~exact], near[half & (err == 0.0)]])


def _percent(values, digits, upper, space_sign):
    """The values _records formats one at a time, by '%' itself."""
    fmt = f"%{' ' if space_sign else ''}.{digits - 1}{'E' if upper else 'e'}"
    return [(fmt % v).encode("ascii") for v in values.tolist()]


def _records(flat, digits, upper, space_sign, buf, lead=0):
    """'%[ ].{digits-1}{E|e}' % v of every value in `flat`, in columns
    lead:lead + width of a (len(flat), lead + width + 1) uint8 array. width is
    digits + 5, plus a sign slot if space_sign or a value is negative and an
    exponent-hundreds slot if an exponent has three digits (zero bytes where a
    record leaves a slot empty); near-ties are decided exactly where 10^k is
    exact (_exact_ties), the rest by '%' (_percent). Its arrays are buf's."""
    n = len(flat)
    a, safe, y, frac = buf(n, float, "a safe y frac")
    zero, bad, test, test2 = buf(n, bool, "zero bad test test2")
    exp10, k, half, mant = buf(n, np.int64, "exp10 k half mant")
    np.equal(np.abs(flat, out=a), 0.0, out=zero)
    np.isfinite(a, out=bad)
    bad &= np.greater_equal(a, np.finfo(float).tiny, out=test)   # normal: from the tables
    safe.fill(1.0)
    np.copyto(safe, a, where=bad)
    np.logical_not(np.logical_or(bad, zero, out=bad), out=bad)   # non-finite or subnormal
    exp10[...] = np.floor(np.log10(safe, out=y), out=y)
    # y = safe 10^(digits - 1 - exp10) as two products of table powers, none
    # over- or underflowing (take's mode "wrap" writes to out directly)
    np.floor_divide(np.subtract(digits - 1, exp10, out=k), 2, out=half)
    np.multiply(safe, _POW10.take(half, out=frac, mode="wrap"), out=y)
    y *= _POW10.take(np.subtract(k, half, out=half), out=frac, mode="wrap")
    # log10 can miss the decade by one next to a power of ten
    moved = np.greater_equal(y, 10.0 ** digits, out=test)
    moved |= np.less(y, 10.0 ** (digits - 1), out=test2)
    moved = np.flatnonzero(moved)
    exp10[moved] += np.where(test2[moved], -1, 1)
    km = digits - 1 - exp10[moved]
    y[moved] = safe[moved] * _POW10[km // 2] * _POW10[km - km // 2]
    np.subtract(y, np.floor(y, out=frac), out=frac)
    frac -= 0.5
    near = np.less_equal(np.abs(frac, out=frac), np.multiply(y, _TIE_BAND, out=safe), out=test)
    near &= np.logical_not(zero, out=test2)
    redo = np.flatnonzero(np.logical_or(near, bad, out=near))
    if len(redo):
        redo = _exact_ties(a, y, digits - 1 - exp10[redo], redo, bad[redo])
    mant[...] = np.rint(y, out=y)
    carry = np.equal(mant, 10 ** digits, out=test)   # 9.99...95 rounds up a decade
    mant[carry] = 10 ** (digits - 1)
    exp10 += carry
    mant[zero] = exp10[zero] = 0

    texts = _percent(flat[redo], digits, upper, space_sign)
    negative = np.signbit(flat, out=test)
    sign = int(space_sign or negative.any())
    wide = int(exp10.max(initial=0) >= 100 or exp10.min(initial=0) <= -100
               or any(len(t) > digits + 5 + sign for t in texts))
    width = digits + 5 + sign + wide        # [s] d . ddd E s [h] t o
    out = np.frombuffer(buf.text(n * (lead + width + 1)), np.uint8).reshape(n, lead + width + 1)
    rec = out[:, lead:lead + width]
    if sign:
        rec[:, 0] = ord(" ") if space_sign else 0
        np.copyto(rec[:, 0], ord("-"), where=negative)
    (group,) = buf(n, np.uint32, "group")
    for col in range(sign + digits - 3, sign + 1, -4):   # four digits after the point
        np.floor_divide(mant, 10 ** 4, out=half)
        np.subtract(mant, np.multiply(half, 10 ** 4, out=k), out=k)
        rec[:, col:col + 4].view(np.uint32)[:, 0] = _DIGIT_GROUPS.take(k, out=group, mode="wrap")
        mant, half = half, mant
    np.add(mant, ord("0"), out=rec[:, sign], casting="unsafe")
    rec[:, sign + 1] = ord(".")
    e = sign + digits + 1                   # the exponent letter's column
    exp10 -= _EXP10[0]
    rec[:, e + wide:e + wide + 4].view(np.uint32)[:, 0] = \
        (_EXPONENTS if wide else _EXPONENTS_2).take(exp10, out=group, mode="wrap")
    rec[:, e] = ord("E" if upper else "e")
    rec[redo] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out


def _lines(fields, per_line, sep, buf):
    """Bytes of the lines of `fields`, the uint8 rows in line order that
    _records placed in buf, whose first `width` bytes hold one record each:
    the last byte of a field becomes `sep`, or LF at the end of a line of
    per_line fields and of the last line, and the zero bytes are dropped."""
    fields[:, -1] = ord(sep)
    fields[per_line - 1::per_line, -1] = fields[-1:, -1] = ord("\n")
    return buf.text(fields.size).translate(None, b"\0")


def _write_table(fh, values, per_line, digits, upper, space_sign, sep):
    """Write `values` (flattened in C order) to the binary file `fh` as lines
    of `per_line` numbers joined by `sep`, each byte-identical to
    '%[ ].{digits-1}{E|e}' % value; a last partial line holds the remainder.
    values is an array or a planar density frame's pair (plane, profile),
    whose values density.frame_values forms for the rows a block touches.
    One block of _TABLE_BLOCK_LINES lines is formed at a time, in buffers
    allocated for the first block and reused by the others."""
    rows, profile = values if isinstance(values, tuple) else (np.asarray(values, float), None)
    rows, nz = rows.ravel(), (1 if profile is None else len(profile))
    buf, step = _Buffers(), _TABLE_BLOCK_LINES * per_line
    for start in range(0, len(rows) * nz, step):
        stop = min(start + step, len(rows) * nz)
        r0, r1 = start // nz, -(-stop // nz)    # the rows the block touches
        flat = rows[r0:r1]
        if profile is not None:
            (block,) = buf((r1 - r0) * nz, float, "values")
            flat = frame_values(flat, profile, block.reshape(r1 - r0, nz)).ravel()
        block = _records(flat[start - r0 * nz:stop - r0 * nz], digits, upper, space_sign, buf=buf)
        fh.write(_lines(block, per_line, sep, buf))


# ---------------------------------------------------------------------------
# reading text
#
# Every reader takes its file through _read_text and every number of a header
# line or table column through _numbers. The numeric body of a cube, map or
# spectra file goes through _body: one numpy conversion and one finiteness
# check over all of its tokens. Each reader then checks its layout on the
# arrays _body returns and names the first line a check flags.

def _read_text(path, error):
    """The UTF-8 text of `path`; bytes that do not decode are `error` naming
    the file and the line they are on."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def _numbers(text, kinds, error, where, name):
    """The whitespace-separated fields of `text` as finite numbers, one per
    entry of kinds (float or int), else `error` naming where and name."""
    fields = text.split()
    if len(fields) != len(kinds):
        raise error(f"{where}: {name} needs {len(kinds)} number(s), got {text.strip()!r}")
    out = []
    for field, kind in zip(fields, kinds):
        try:
            out.append(kind(field))
        except ValueError:
            raise error(f"{where}: bad {name} {field!r}, "
                        f"expected {kind.__name__}") from None
        if kind is float and not math.isfinite(out[-1]):
            raise error(f"{where}: non-finite {name} {field!r}")
    return out


def _body(raw, first, path, error):
    """The numbers of the lines raw[first:], blank lines skipped, as (values,
    numbers per line, line numbers). Every token is converted by one numpy
    call and must be finite, else `error` names the first line with a token
    that is not."""
    split = [line.split() for line in raw[first:]]
    per_line = np.fromiter(map(len, split), dtype=np.int64, count=len(split))
    linenos = np.flatnonzero(per_line) + first + 1
    per_line = per_line[per_line > 0]
    try:
        values = np.array([t for tokens in split for t in tokens], dtype=float)
        finite = np.isfinite(values).all()
    except ValueError:
        finite = False
    if not finite:
        for lineno, n in zip(linenos.tolist(), per_line.tolist()):
            _numbers(raw[lineno - 1], (float,) * n, error, f"{path} line {lineno}", "value")
    return values, per_line, linenos


# ---------------------------------------------------------------------------
# Gaussian cube

def write_cube(path, grid: VolumetricGrid, atoms=(), comments=("", ""), values=None):
    """Standard cube layout: 2 comment lines, natoms+origin, three axis
    lines (count + step vector, bohr), atom lines (Z, charge, position
    bohr), values z-fastest, six per line as '% .8E'. values (default
    grid.values) may also be a planar density frame's (plane, profile)."""
    values = grid.values if values is None else values
    if values is None:
        raise CubeFormatError("grid carries no values to write")
    path = Path(path)
    lines = []
    for c in (comments + ("", ""))[:2]:
        lines.append(str(c).replace("\n", " "))
    lines.append("%5d %12.6f %12.6f %12.6f" % ((len(atoms),) + tuple(grid.origin)))
    for ax in range(3):
        lines.append("%5d %12.6f %12.6f %12.6f"
                     % ((grid.counts[ax],) + tuple(grid.axes[ax])))
    for z, charge, pos in atoms:
        lines.append("%5d %12.6f %12.6f %12.6f %12.6f"
                     % (int(z), float(charge), pos[0], pos[1], pos[2]))
    with path.open("wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        _write_table(fh, values, per_line=6, digits=9, upper=True,
                     space_sign=True, sep=" ")
    return path


def read_cube(path):
    """-> (VolumetricGrid with values, [(Z, charge, (x,y,z) bohr)], comments)."""
    path = Path(path)
    raw = _read_text(path, CubeFormatError).splitlines()
    if len(raw) < 6:
        raise CubeFormatError(f"{path} line {len(raw)}: file too short for a cube header")
    natoms, *origin = _numbers(raw[2], (int, float, float, float), CubeFormatError,
                               f"{path} line 3", "natoms/origin")
    if natoms < 0:
        raise CubeFormatError(f"{path} line 3: negative atom count {natoms} not supported")
    if 6 + natoms > len(raw):
        raise CubeFormatError(f"{path} line {len(raw) + 1}: missing atom line")
    counts, axes, atoms = [], [], []
    for lineno in (4, 5, 6):
        n, *axis = _numbers(raw[lineno - 1], (int, float, float, float), CubeFormatError,
                            f"{path} line {lineno}", "axis")
        if n < 2:
            raise CubeFormatError(f"{path} line {lineno}: axis count must be >= 2, got {n}")
        counts.append(n)
        axes.append(axis)
    for lineno in range(7, 7 + natoms):
        z, charge, *pos = _numbers(raw[lineno - 1], (int,) + (float,) * 4, CubeFormatError,
                                   f"{path} line {lineno}", "atom")
        atoms.append((z, charge, tuple(pos)))
    values, per_line, linenos = _body(raw, 6 + natoms, path, CubeFormatError)
    wide = np.flatnonzero(per_line > 6)
    if len(wide):
        raise CubeFormatError(f"{path} line {linenos[wide[0]]}: more than 6 values on "
                              f"one line ({per_line[wide[0]]})")
    expected = counts[0] * counts[1] * counts[2]
    if len(values) != expected:
        over = np.cumsum(per_line) > expected
        lineno = linenos[over.argmax()] if over.any() else len(raw)
        raise CubeFormatError(f"{path} line {lineno}: expected {expected} values, "
                              f"found {len(values)}")
    try:
        grid = VolumetricGrid(origin=origin, axes=axes, counts=tuple(counts),
                              values=values.reshape(counts))
    except ModelError as exc:
        raise CubeFormatError(f"{path} line 4: {exc}") from None
    return grid, atoms, (raw[0], raw[1])


# ---------------------------------------------------------------------------
# final-state table

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*"
    r"h\((?P<holes>[^)]+)\)"
    r"(?:\s*p\((?P<part>[^)]+)\))?"
    r"(?:\s*\[(?P<tag>[a-z]+)\])?")


class TableRow(Record):
    """One parsed final state: the original index, the state, and the
    optional stated photoelectron-energy center (eV)."""

    __slots__ = ("index", "state", "center_ev")

    def __init__(self, index, state, center_ev=None):
        self._set(index, state, center_ev)


def _parse_term(match, occupied, where):
    coef = float(match.group("coef"))
    if match.group("sign") == "-":
        coef = -coef
    try:
        holes = [orbital_offset(h.strip()) for h in match.group("holes").split(",")]
        particle = match.group("part")
        if particle is not None:
            particle = orbital_offset(particle.strip())
    except ModelError as exc:
        raise TableFormatError(f"{where}: {exc}") from exc
    tag = match.group("tag")
    if tag is not None and tag not in ("udu", "uud"):
        raise TableFormatError(f"{where}: unknown coupling tag [{tag}]")
    try:
        if len(holes) == 1 and particle is None and tag is None:
            csf = algebra.one_hole_csf(occupied, holes[0])
        elif len(holes) == 2 and particle is not None:
            if holes[0] == holes[1]:
                if tag is not None:
                    raise TableFormatError(
                        f"{where}: closed two-hole term takes no coupling tag")
                csf = algebra.two_hole_one_particle_csf(
                    occupied, holes[0], holes[1], particle)
            else:
                if tag is None:
                    raise TableFormatError(
                        f"{where}: open two-hole term needs [udu] or [uud]")
                csf = algebra.two_hole_one_particle_csf(
                    occupied, holes[0], holes[1], particle, coupling=tag)
        else:
            raise TableFormatError(
                f"{where}: unsupported term shape "
                f"(holes={len(holes)}, particle={'yes' if particle is not None else 'no'})")
    except (ModelError, algebra.AlgebraError) as exc:
        raise TableFormatError(f"{where}: {exc}") from exc
    return coef, csf


def _parse_expansion(text, occupied, where):
    terms = []
    pos = 0
    for match in _TERM.finditer(text):
        if text[pos:match.start()].strip():
            raise TableFormatError(
                f"{where}: could not parse expansion near "
                f"{text[pos:match.start()].strip()!r}")
        terms.append(_parse_term(match, occupied, where))
        pos = match.end()
    if text[pos:].strip():
        raise TableFormatError(
            f"{where}: could not parse expansion near {text[pos:].strip()!r}")
    if not terms:
        raise TableFormatError(f"{where}: empty expansion")
    return terms


def read_final_state_table(path, occupied, normalize=False):
    """Parse the TSV table -> list of TableRow; occupied lists the offsets
    of the closed-shell orbitals the expansions refer to.

    normalize=True rescales each expansion to unit norm (for truncated
    published coefficients); the default keeps coefficients as printed,
    which must then satisfy sum(c^2) <= 1 + 1e-6.
    """
    path = Path(path)
    rows = []
    seen = set()
    for lineno, line in enumerate(_read_text(path, TableFormatError).splitlines(),
                                  start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        where = f"{path} line {lineno}"
        cols = [c.strip() for c in line.split("\t") if c.strip()]
        if len(cols) not in (3, 4):
            raise TableFormatError(
                f"{where}: expected 3 or 4 tab-separated columns, got {len(cols)}")
        index, = _numbers(cols[0], (int,), TableFormatError, where, "index")
        if index in seen:
            raise TableFormatError(f"{where}: duplicate index {index}")
        seen.add(index)
        energy, = _numbers(cols[1], (float,), TableFormatError, where, "energy")
        if not energy > 0:
            raise TableFormatError(
                f"{where}: final-state energy must be positive and finite, got {energy}")
        center = None
        if len(cols) == 4:
            center, = _numbers(cols[2], (float,), TableFormatError, where, "energy center")
        terms = _parse_expansion(cols[-1], occupied, where)
        norm_sq = sum(c * c for c, _ in terms)
        if norm_sq > 1.0 + 1e-6:
            raise TableFormatError(
                f"{where}: coefficient norm {math.sqrt(norm_sq):.6f} > 1")
        if normalize:
            scale = 1.0 / math.sqrt(norm_sq)
            terms = [(c * scale, csf) for c, csf in terms]
        state = ElectronicState(energy_ev=energy, expansion=tuple(terms))
        rows.append(TableRow(index=index, state=state, center_ev=center))
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    return rows


def as_finals(rows):
    """TableRow list -> (index, state) pairs for the signal layer."""
    return [(r.index, r.state) for r in rows]


def validate_channel_energies(rows, wp: WavePacket, pulse: ProbePulse):
    """Check stated energy centers against omega_in + <E> - E_F; warn and
    return the (index, stated, computed) triples more than 0.05 eV apart."""
    bad = []
    for row in rows:
        if row.center_ev is None:
            continue
        computed = (pulse.photon_energy_ev + wp.mean_energy_ev
                    - row.state.energy_ev)
        if abs(computed - row.center_ev) > 0.05:
            log.warning(
                "final state %d: stated energy center %.3f eV differs from "
                "computed %.3f eV by more than 0.05 eV", row.index,
                row.center_ev, computed)
            bad.append((row.index, row.center_ev, computed))
    return bad


# ---------------------------------------------------------------------------
# scenario config

_TOP_KEYS = {"name", "molecule", "wave_packet", "pulse", "final_states",
             "ground_state_binding_energies_ev", "coefficient_mode", "outputs"}
_MOLECULE_KEYS = {"builtin-huckel": {"source", "p_exponent"},
                  "cube-files": {"source", "orbitals"},
                  "lcao-file": {"source", "path"}}
_WP_KEYS = {"t0_fs", "members"}
_MEMBER_KEYS = {"coefficient", "energy_ev", "terms"}
_TERM_KEYS = {"coefficient", "hole", "particle"}
_PULSE_KEYS = {"photon_energy_ev", "polarization", "duration_fwhm_fs",
               "peak_intensity", "arrival_times_fs"}
_FINALS_KEYS = {"table"}
_OUTPUT_KEYS = {"observables", "map_resolution", "map_energies_ev",
                "spectrum_window_ev", "density_spacing_angstrom",
                "density_padding_angstrom", "average_width_ev",
                "average_samples", "density_times"}

_DEFAULT_OUTPUTS = {
    "observables": ["pmm", "spectrum", "density"],
    "map_resolution": 201,
    "map_energies_ev": [99.0],
    "spectrum_window_ev": [85.0, 105.0, 201],
    "density_spacing_angstrom": 0.15,
    "density_padding_angstrom": 4.0,
    "average_width_ev": 1.0,
    "average_samples": 11,
    "density_times": ["0", "T/4", "T/2", "3T/4"],
}


def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _is_finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _as_complex(value, where):
    if _is_finite(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_finite(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: coefficient must be a finite number or [re, im]")


def _positive(value, where):
    if not _is_finite(value) or not value > 0:
        raise ConfigError(f"{where}: must be a positive number, got {value!r}")
    return float(value)


def _load_lcao_file(path):
    try:
        data = json.loads(_read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON orbital file ({exc})") from exc
    _reject_unknown(data, {"exponent", "centers_angstrom", "orbitals"}, str(path))
    exponent = _positive(_require(data, "exponent", str(path)),
                         f"{path}: exponent")
    centers = np.asarray(_require(data, "centers_angstrom", str(path)), dtype=float)
    if centers.ndim != 2 or centers.shape[1] != 3 or not np.all(np.isfinite(centers)):
        raise ConfigError(f"{path}: centers_angstrom must be a finite (N,3) list")
    centers = angstrom_to_bohr(centers)
    prims = tuple(GaussianPrimitive(center=c, exponent=exponent, powers=(0, 0, 1))
                  for c in centers)
    mos = []
    for k, entry in enumerate(_require(data, "orbitals", str(path))):
        where = f"{path}: orbitals[{k}]"
        _reject_unknown(entry, {"label", "coefficients", "energy"}, where)
        coeff = np.asarray(_require(entry, "coefficients", where), dtype=float)
        if coeff.shape != (len(centers),) or not np.all(np.isfinite(coeff)):
            raise ConfigError(f"{where}: need {len(centers)} finite coefficients")
        mos.append(MolecularOrbital(
            label=str(_require(entry, "label", where)), coefficients=coeff,
            primitives=prims, energy=entry.get("energy")))
    if mos:
        coeffs = np.array([mo.coefficients for mo in mos])
        error = np.abs(coeffs @ pz_overlap(centers, exponent) @ coeffs.T
                       - np.eye(len(mos)))
        i, j = np.unravel_index(np.argmax(error), error.shape)
        if error[i, j] > 1e-6:
            log.warning("%s: orbitals are not orthonormal: max |<i|j> - delta_ij| "
                        "= %.3g at <%s|%s>", path, error[i, j], mos[i].label,
                        mos[j].label)
    return mos


def _build_orbitals(molecule, base_dir):
    """(orbitals, cube atom records (Z, charge, position bohr)): the Hueckel
    frame's atoms; none for an LCAO file, which has no atom list, or for
    orbital cubes, whose density is not supported."""
    if not isinstance(molecule, dict):
        raise ConfigError("molecule: expected an object")
    source = molecule.get("source", "builtin-huckel")
    if not isinstance(source, str) or source not in _MOLECULE_KEYS:
        raise ConfigError(f"molecule.source: unknown source {source!r}")
    extra = set(molecule) - _MOLECULE_KEYS[source]
    if extra:
        raise ConfigError(
            f"molecule: key(s) {', '.join(sorted(extra))} not valid for {source}")
    if source == "builtin-huckel":
        p_exp = _positive(molecule.get("p_exponent", 1.0), "molecule.p_exponent")
        atoms = tuple((z, float(z), tuple(angstrom_to_bohr(np.asarray(p))))
                      for z, p in pentacene_atoms())
        return list(huckel_orbitals(p_exponent=p_exp)), atoms
    if source == "cube-files":
        table = molecule.get("orbitals")
        if not isinstance(table, dict) or not table:
            raise ConfigError("molecule.orbitals: need a {label: cube-path} map")
        mos = []
        for label in sorted(table):
            grid, _, _ = read_cube(base_dir / table[label])
            mos.append(MolecularOrbital(label=str(label), grid=grid))
        return mos, ()
    if "path" not in molecule:
        raise ConfigError("molecule.path: required for source lcao-file")
    return _load_lcao_file(base_dir / molecule["path"]), ()


def _build_member_state(member, occupied, where):
    terms = _require(member, "terms", where)
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"{where}.terms: need a non-empty list")
    expansion = []
    for k, term in enumerate(terms):
        t_where = f"{where}.terms[{k}]"
        _reject_unknown(term, _TERM_KEYS, t_where)
        coeff = _require(term, "coefficient", t_where)
        if not _is_finite(coeff):
            raise ConfigError(f"{t_where}.coefficient: must be a finite real number")
        try:
            hole = orbital_offset(str(_require(term, "hole", t_where)))
            particle = orbital_offset(str(_require(term, "particle", t_where)))
            csf = algebra.singlet_excitation_csf(occupied, hole, particle)
        except (ModelError, algebra.AlgebraError) as exc:
            raise ConfigError(f"{t_where}: {exc}") from exc
        expansion.append((float(coeff), csf))
    norm_sq = sum(c * c for c, _ in expansion)
    if abs(norm_sq - 1.0) > 1e-6:
        raise ConfigError(f"{where}.terms: coefficient norm^2 = {norm_sq:.8f} != 1")
    scale = 1.0 / math.sqrt(norm_sq)
    expansion = tuple((c * scale, csf) for c, csf in expansion)
    energy = _require(member, "energy_ev", where)
    if not _is_finite(energy) or energy < 0:
        raise ConfigError(f"{where}.energy_ev: must be a finite non-negative number")
    return ElectronicState(energy_ev=float(energy), expansion=expansion)


def _build_wave_packet(section, occupied):
    _reject_unknown(section, _WP_KEYS, "wave_packet")
    t0 = section.get("t0_fs", 0.0)
    if not _is_finite(t0):
        raise ConfigError("wave_packet.t0_fs: must be a finite number")
    members_in = _require(section, "members", "wave_packet")
    if not isinstance(members_in, list) or not members_in:
        raise ConfigError("wave_packet.members: need a non-empty list")
    members = []
    for k, member in enumerate(members_in):
        where = f"wave_packet.members[{k}]"
        _reject_unknown(member, _MEMBER_KEYS, where)
        c = _as_complex(_require(member, "coefficient", where),
                        f"{where}.coefficient")
        state = _build_member_state(member, occupied, where)
        members.append((c, state.energy_ev, state))
    total = sum(abs(c) ** 2 for c, _, _ in members)
    if abs(total - 1.0) > 1e-6:
        raise ConfigError(
            f"wave_packet.members: sum of |coefficient|^2 = {total:.8f} != 1")
    scale = 1.0 / math.sqrt(total)
    members = tuple((c * scale, e, s) for c, e, s in members)
    return WavePacket(members=members, t0_fs=float(t0))


def _build_pulse(section):
    _reject_unknown(section, _PULSE_KEYS, "pulse")
    omega = _positive(_require(section, "photon_energy_ev", "pulse"),
                      "pulse.photon_energy_ev")
    tau = _positive(_require(section, "duration_fwhm_fs", "pulse"),
                    "pulse.duration_fwhm_fs")
    pol = np.asarray(_require(section, "polarization", "pulse"), dtype=float)
    if (pol.shape != (3,) or not np.all(np.isfinite(pol))
            or not np.linalg.norm(pol) > 0):
        raise ConfigError("pulse.polarization: need a finite non-zero 3-vector")
    pol = pol / np.linalg.norm(pol)
    # checked, not used: probabilities are relative, delays come from the CLI
    _positive(section.get("peak_intensity", 1.0), "pulse.peak_intensity")
    times = section.get("arrival_times_fs", [0.0])
    if (not isinstance(times, list) or not times
            or not all(_is_finite(t) for t in times)):
        raise ConfigError("pulse.arrival_times_fs: need a non-empty finite number list")
    return ProbePulse(photon_energy_ev=omega, polarization=pol, duration_fwhm_fs=tau)


# A spectrum window's point count is capped before np.linspace allocates it.
_MAX_WINDOW_POINTS = 100_000


def window_energies(window, where):
    """np.linspace(lo, hi, n) of an energy window [lo_ev, hi_ev, n]: finite
    bounds with 0 < lo < hi and an integer point count 2 <= n <=
    _MAX_WINDOW_POINTS, else a ConfigError naming `where`."""
    if (not isinstance(window, (list, tuple)) or len(window) != 3
            or not all(_is_finite(v) for v in window)
            or not 0 < window[0] < window[1]
            or not (float(window[2]).is_integer() and window[2] >= 2)):
        raise ConfigError(f"{where}: need [lo_ev, hi_ev, n] with finite "
                          f"0 < lo < hi and an integer n >= 2, got {window}")
    if window[2] > _MAX_WINDOW_POINTS:
        raise ConfigError(f"{where}: at most {_MAX_WINDOW_POINTS} points, "
                          f"got {window[2]:g}")
    return np.linspace(float(window[0]), float(window[1]), int(window[2]))


def _validate_outputs(section):
    _reject_unknown(section, _OUTPUT_KEYS, "outputs")
    merged = dict(_DEFAULT_OUTPUTS)
    merged.update(section)
    for key in ("map_resolution", "average_samples"):
        if not isinstance(merged[key], int) or merged[key] < 2:
            raise ConfigError(f"outputs.{key}: must be an integer >= 2")
    for key in ("density_spacing_angstrom", "density_padding_angstrom",
                "average_width_ev"):
        merged[key] = _positive(merged[key], f"outputs.{key}")
    window_energies(merged["spectrum_window_ev"], "outputs.spectrum_window_ev")
    energies = merged["map_energies_ev"]
    if (not isinstance(energies, list) or not energies
            or not all(_is_finite(e) and e > 0 for e in energies)):
        raise ConfigError("outputs.map_energies_ev: need positive energies")
    allowed_obs = {"pmm", "spectrum", "density"}
    if (not isinstance(merged["observables"], list)
            or not set(merged["observables"]) <= allowed_obs):
        raise ConfigError(f"outputs.observables: subset of {sorted(allowed_obs)}")
    return merged


class Scenario(Record):
    """Everything a run needs, built from one validated config file.

    atoms are the cube atom records (Z, charge, position bohr), finals the
    (index, ElectronicState) pairs and table_rows the TableRows with their
    optional stated centers.
    """

    __slots__ = ("name", "raw", "digest", "mos", "atoms", "wave_packet", "pulse",
                 "finals", "table_rows", "binding_energies_ev", "outputs")

    def __init__(self, name, raw, digest, mos, atoms, wave_packet, pulse, finals,
                 table_rows, binding_energies_ev, outputs):
        self._set(name, raw, digest, mos, atoms, wave_packet, pulse, finals, table_rows,
                  binding_energies_ev, outputs)

    @property
    def period_fs(self):
        if self.wave_packet.n_members < 2:
            return None
        return self.wave_packet.beat_period_fs()

    @property
    def occupied(self):
        """Offsets of the closed-shell occupied orbitals of the molecule."""
        return occupied_offsets(self.mos)

    def ground_state(self):
        """(wave packet, finals) for the closed-shell Koopmans scenario."""
        return signal.ground_state_scenario(self.mos, self.binding_energies_ev)


def config_digest(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_scenario(path):
    path = Path(path)
    text = _read_text(path, ConfigError)
    if not text.strip():
        raise ConfigError(f"{path}: empty config file")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _reject_unknown(raw, _TOP_KEYS, "config")
    name = raw.get("name", path.stem)
    mode = raw.get("coefficient_mode", "as-printed")
    if mode not in ("as-printed", "normalized"):
        raise ConfigError(
            f"coefficient_mode: expected 'as-printed' or 'normalized', got {mode!r}")
    mos, atoms = _build_orbitals(raw.get("molecule", {"source": "builtin-huckel"}),
                                 path.parent)
    try:
        occupied = occupied_offsets(mos)
    except ModelError as exc:
        raise ConfigError(f"molecule: {exc}") from exc
    if not occupied:
        raise ConfigError("molecule: no occupied orbital (offset <= 0)")
    wp = _build_wave_packet(_require(raw, "wave_packet", "config"), occupied)
    pulse = _build_pulse(_require(raw, "pulse", "config"))
    finals_section = _require(raw, "final_states", "config")
    _reject_unknown(finals_section, _FINALS_KEYS, "final_states")
    table_path = path.parent / _require(finals_section, "table", "final_states")
    rows = read_final_state_table(table_path, occupied=occupied,
                                  normalize=(mode == "normalized"))
    validate_channel_energies(rows, wp, pulse)
    be = raw.get("ground_state_binding_energies_ev", {})
    if not isinstance(be, dict):
        raise ConfigError("ground_state_binding_energies_ev: expected an object")
    for label, value in be.items():
        try:
            orbital_offset(str(label))
        except ModelError as exc:
            raise ConfigError(
                f"ground_state_binding_energies_ev: {exc}") from exc
        _positive(value, f"ground_state_binding_energies_ev.{label}")
    outputs = _validate_outputs(raw.get("outputs", {}))
    return Scenario(name=str(name), raw=raw, digest=config_digest(raw), mos=mos,
                    atoms=atoms, wave_packet=wp, pulse=pulse, finals=as_finals(rows),
                    table_rows=rows,
                    binding_energies_ev={str(k): float(v) for k, v in be.items()},
                    outputs=outputs)


def default_scenario_path():
    return Path(__file__).resolve().parent / "data" / "pentacene.json"


# ---------------------------------------------------------------------------
# result export

_NUM = "%.12e"
# ceiling on the largest array of a map run (cli) and on the raster of a map
# file (read_pmm): --grid 100000 would be a 640 GB member-pair kernel
_MAX_MAP_BYTES = 2 ** 30
_EXPORT = dict(digits=13, upper=False, space_sign=False)   # _NUM for _records


def _header_lines(meta):
    lines = []
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, float):
            value = _NUM % value
        elif isinstance(value, (list, tuple)):
            value = " ".join(_NUM % v if isinstance(v, float) else str(v)
                             for v in value)
        lines.append(f"# {key}: {value}")
    return lines


def export_pmm(path, pmm: PMM, digest=None):
    """Rows are only the raster samples inside the kinematic disc of the
    map's limiting energy; the reader restores the zero exterior."""
    path = Path(path)
    meta = {
        "format": "attopmm-pmm-1",
        "energy_ev": float(pmm.energy_ev),
        "t_p_fs": float(pmm.t_p_fs),
        "tau_fs": float(pmm.metadata.get("tau_fs", 0.0)),
        "omega_in_ev": float(pmm.metadata.get("omega_in_ev", 0.0)),
        "mode": pmm.metadata.get("mode", "short"),
        "normalization": "relative",
        "polarization": [float(v) for v in pmm.metadata.get("polarization",
                                                            (0.0, 0.0, 1.0))],
        "axis_x": [float(pmm.axis_x[0]), float(pmm.axis_x[-1]), len(pmm.axis_x)],
        "axis_y": [float(pmm.axis_y[0]), float(pmm.axis_y[-1]), len(pmm.axis_y)],
        "units": "q in 1/angstrom; probability relative",
    }
    disc = pmm.metadata.get("q_disc_inv_angstrom")
    if disc is not None:
        meta["q_disc_inv_angstrom"] = float(disc)
    avg = pmm.metadata.get("energy_average")
    if avg is not None:
        meta["energy_average"] = [avg["center_ev"], avg["width_ev"],
                                  avg["n_energies"]]
    if digest is not None:
        meta["config_digest"] = digest
    lines = _header_lines(meta)
    lines.append("# columns: q_x_inv_angstrom q_y_inv_angstrom probability")
    limit = float(disc) if disc is not None else float("inf")
    limit_sq = limit * limit * (1.0 + 1e-12)
    axis_x = np.asarray(pmm.axis_x, dtype=float)
    axis_y = np.asarray(pmm.axis_y, dtype=float)
    x2, y2 = axis_x * axis_x, axis_y * axis_y
    spans = momentum.line_spans(lambda s: x2[s, None] + y2 <= limit_sq, *pmm.values.shape)
    _write_export(path, lines, lambda fh: _write_map_rows(
        fh, axis_x, axis_y, spans, np.asarray(pmm.values, dtype=float)))
    return path


def _write_map_rows(fh, axis_x, axis_y, spans, values):
    """One 'q_x q_y value' line per sample of `spans`, in C order, per
    momentum.span_blocks block of _BLOCK_LINES rows; each axis value is
    formatted once, its record repeated along a line (q_x) or sliced (q_y)."""
    qx, qy = (_records(axis, **_EXPORT, buf=_Buffers())[:, :-1] for axis in (axis_x, axis_y))
    wx, wy = qx.shape[1], qy.shape[1]
    buf = _Buffers()
    for runs in momentum.span_blocks(spans, _BLOCK_LINES):
        line = _records(np.concatenate([values[i, cols] for i, cols, _ in runs]), **_EXPORT,
                        lead=wx + wy + 2, buf=buf)
        for i, cols, part in runs:
            line[part, :wx], line[part, wx + 1:wx + wy + 1] = qx[i], qy[cols]
        line[:, [wx, wx + wy + 1, -1]] = [ord("\t"), ord("\t"), ord("\n")]
        # one zero byte a row or less: faster to replace than to translate
        fh.write(buf.pop(line.size).replace(b"\0", b""))


def _write_export(path, header_lines, write_rows):
    """'#' header, then the %.12e tab-separated lines that write_rows(fh)
    writes."""
    try:
        with path.open("wb") as fh:
            fh.write(("\n".join(header_lines) + "\n").encode("utf-8"))
            write_rows(fh)
    except OSError as exc:
        raise ExportFormatError(f"{path}: {exc}") from exc


def _read_export(path, fmt, what):
    """The lines of the export file `path`, its '# key: value' header as
    ({key: value}, {key: line number}), and the index of its first body
    line; the header must declare format `fmt`."""
    raw = _read_text(path, ExportFormatError).splitlines()
    meta, lines = {}, {}
    body_start = next((idx for idx, line in enumerate(raw) if not line.startswith("#")),
                      len(raw))
    for idx, line in enumerate(raw[:body_start]):
        key, sep, value = line[1:].partition(":")
        if sep:
            meta[key.strip()] = value.strip()
            lines[key.strip()] = idx + 1
    if not meta:
        raise ExportFormatError(f"{path}: missing '#' metadata header")
    if meta.get("format") != fmt:
        raise ExportFormatError(f"{path}: not an attopmm {what} export")
    return raw, meta, lines, body_start


def _header_numbers(path, meta, lines, key, kinds=(float,)):
    """The finite numbers of header field key, one per entry of kinds."""
    where = f"{path} line {lines[key]}" if key in lines else str(path)
    return _numbers(meta.get(key, ""), kinds, ExportFormatError, where, key)


def read_pmm(path):
    path = Path(path)
    raw, meta, lines, body_start = _read_export(path, "attopmm-pmm-1", "momentum-map")
    bounds = [_header_numbers(path, meta, lines, key, (float, float, int))
              for key in ("axis_x", "axis_y")]
    for key, (lo, hi, n) in zip(("axis_x", "axis_y"), bounds):
        if not (0 < hi - lo < math.inf and n >= 2):
            raise ExportFormatError(f"{path} line {lines[key]}: {key} needs lo < hi, a "
                                    "finite span and at least 2 points")
    (_, _, nx), (_, _, ny) = bounds
    if 8 * nx * ny > _MAX_MAP_BYTES:
        key = "axis_x" if nx >= ny else "axis_y"
        raise ExportFormatError(f"{path} line {lines[key]}: a {nx} x {ny} raster needs "
                                f"{8 * nx * ny:.3g} bytes, more than {_MAX_MAP_BYTES}")
    axis_x, axis_y = (np.linspace(lo, hi, n) for lo, hi, n in bounds)
    energy, = _header_numbers(path, meta, lines, "energy_ev")
    t_p, = _header_numbers(path, meta, lines, "t_p_fs")
    rows, per_line, linenos = _body(raw, body_start, path, ExportFormatError)
    bad = np.flatnonzero(per_line != 3)
    if len(bad):
        raise ExportFormatError(f"{path} line {linenos[bad[0]]}: expected 3 columns, "
                                f"got {per_line[bad[0]]}")
    x, y, v = rows.reshape(-1, 3).T
    dx = (axis_x[-1] - axis_x[0]) / (len(axis_x) - 1)
    dy = (axis_y[-1] - axis_y[0]) / (len(axis_y) - 1)
    i, j = np.rint((x - axis_x[0]) / dx), np.rint((y - axis_y[0]) / dy)
    bad = np.flatnonzero(~((0 <= i) & (i < nx) & (0 <= j) & (j < ny)))
    if len(bad):
        raise ExportFormatError(f"{path} line {linenos[bad[0]]}: sample off the "
                                "declared raster")
    bad = np.flatnonzero(v < 0)
    if len(bad):
        raise ExportFormatError(f"{path} line {linenos[bad[0]]}: value {v[bad[0]]} is "
                                "not a finite probability >= 0")
    values = np.zeros((nx, ny))
    values[i.astype(np.intp), j.astype(np.intp)] = v
    metadata = {"tau_fs": 0.0, "omega_in_ev": 0.0, "mode": meta.get("mode", "short")}
    for key, count in (("tau_fs", 1), ("omega_in_ev", 1), ("polarization", 3),
                       ("q_disc_inv_angstrom", 1)):
        if key in meta:
            numbers = _header_numbers(path, meta, lines, key, (float,) * count)
            metadata[key] = numbers[0] if count == 1 else tuple(numbers)
    if "config_digest" in meta:
        metadata["config_digest"] = meta["config_digest"]
    if "energy_average" in meta:
        c, w, n = _header_numbers(path, meta, lines, "energy_average", (float, float, int))
        metadata["energy_average"] = {"center_ev": c, "width_ev": w, "n_energies": n}
    return PMM(energy_ev=energy, t_p_fs=t_p, values=read_only(values), axis_x=axis_x,
               axis_y=axis_y, metadata=metadata)


def export_spectra(path, spectra, digest=None):
    """One file, shared energy column, one value column per spectrum tagged
    with its scenario label and probe parameters."""
    path = Path(path)
    spectra = list(spectra)
    if not spectra:
        raise ExportFormatError(f"{path}: nothing to export")
    energies = spectra[0].energies_ev
    for s in spectra:
        if (len(s.energies_ev) != len(energies) or len(s.values) != len(energies)
                or not np.allclose(s.energies_ev, energies, rtol=0, atol=1e-12)):
            raise ExportFormatError(f"{path}: spectra have different energy grids")
    meta = {"format": "attopmm-spectrum-1", "n_energies": len(energies)}
    if digest is not None:
        meta["config_digest"] = digest
    lines = _header_lines(meta)
    for k, s in enumerate(spectra):
        parts = [f"scenario={s.scenario}"]
        for key in ("t_p_fs", "tau_fs", "omega_in_ev", "mode"):
            if key in s.metadata:
                value = s.metadata[key]
                parts.append(f"{key}={_NUM % value}" if isinstance(value, float)
                             else f"{key}={value}")
        lines.append(f"# column {k + 2}: " + " ".join(parts))
    lines.append("# columns: energy_ev "
                 + " ".join(s.scenario for s in spectra))
    rows = np.column_stack([energies] + [s.values for s in spectra])
    _write_export(path, lines, lambda fh: _write_table(
        fh, rows, per_line=rows.shape[1], sep="\t", **_EXPORT))
    return path


def read_spectra(path):
    path = Path(path)
    raw, meta, lines, body_start = _read_export(path, "attopmm-spectrum-1", "spectrum")
    values, per_line, linenos = _body(raw, body_start, path, ExportFormatError)
    if not len(per_line):
        raise ExportFormatError(f"{path}: no data rows")
    bad = np.flatnonzero((per_line != per_line[0]) | (per_line < 2))
    if len(bad):
        raise ExportFormatError(f"{path} line {linenos[bad[0]]}: inconsistent column count")
    width = per_line[0]
    data = values.reshape(-1, width)
    bad = np.flatnonzero((data[:, 1:] < 0).any(axis=1))
    if len(bad):
        raise ExportFormatError(f"{path} line {linenos[bad[0]]}: a value is not a "
                                "finite non-negative probability")
    out = []
    for k in range(1, width):
        key = f"column {k + 1}"     # the header line tagging data column k
        parts = meta.get(key, "").split()
        attrs = dict(part.partition("=")[::2] for part in parts if "=" in part)
        metadata = {name: _numbers(attrs[name], (float,), ExportFormatError,
                                   f"{path} line {lines[key]}", name)[0]
                    for name in ("t_p_fs", "tau_fs", "omega_in_ev") if name in attrs}
        if "mode" in attrs:
            metadata["mode"] = attrs["mode"]
        out.append(Spectrum(energies_ev=data[:, 0], values=data[:, k],
                            scenario=attrs.get("scenario", f"column{k + 1}"),
                            metadata=metadata))
    return out


def export_density(path, frame: DensityFrame, atoms=(), digest=None):
    """Density-change frame -> cube file with the given atom records
    (Z, charge, position bohr), e.g. Scenario.atoms."""
    tag = f"digest={digest}" if digest else "no-config-digest"
    comments = (
        "attopmm electron-density change (1/bohr^3)",
        f"t_fs={_NUM % frame.t_fs} gained={_NUM % frame.charge_gained} "
        f"lost={_NUM % frame.charge_lost} {tag}")
    return write_cube(path, frame.raster, atoms=atoms, comments=comments,
                      values=frame.values)
