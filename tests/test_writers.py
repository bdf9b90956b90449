"""The block text writer against '%'-formatting and the per-value reference
writers in oracles.py: every file must be byte-identical."""

import dataclasses
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from attopmm import io as attopmm_io
from attopmm.density import default_density_grid, density_timeseries
from attopmm.io import (
    _BLOCK_LINES,
    _DIGIT_GROUPS,
    _EXP10,
    _EXPONENTS,
    _write_table,
    export_density,
    export_pmm,
    export_spectra,
    read_cube,
    read_pmm,
    read_spectra,
    write_cube,
)
from attopmm.model import VolumetricGrid
from attopmm.signal import (
    PMM,
    Spectrum,
    angle_integrated_spectrum,
    energy_average_pmm,
    pmm_cut,
)
from oracles import reference_export_pmm, reference_export_spectra, reference_write_cube

CUBE = dict(digits=9, upper=True, space_sign=True)      # '% .8E'
EXPORT = dict(digits=13, upper=False, space_sign=False)  # '%.12e'
FORMATS = [("% .8E", CUBE), ("%.12e", EXPORT)]


def _table(values, per_line, sep, spec):
    fh = io.BytesIO()
    _write_table(fh, values, per_line=per_line, sep=sep, **spec)
    assert b"\0" not in fh.getvalue()
    return fh.getvalue()


def _same_file(got, want):
    assert b"\0" not in got.read_bytes()
    assert got.read_bytes() == want.read_bytes()


def _reference_table(values, per_line, sep, fmt):
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return "".join(sep.join(fmt % v for v in flat[i:i + per_line]) + "\n"
                   for i in range(0, len(flat), per_line)).encode("ascii")


def _hard_values(rng, n):
    """>= n doubles: random bit patterns, the whole exponent range, decimal
    ties at 9 and 13 digits with their neighbours 1 ulp away, exact binary
    ties, decade round-ups, 3-digit exponents and the special values."""
    quarter = n // 4
    bits = rng.integers(0, 2 ** 64, quarter, dtype=np.uint64).view(np.float64)
    spread = (rng.uniform(1.0, 10.0, quarter)
              * np.ldexp(1.0, rng.integers(-1074, 1020, quarter)))
    parts = [bits, spread, -spread]
    for digits in (9, 13):
        m = rng.integers(10 ** (digits - 1), 10 ** digits, quarter // 6)
        e = rng.integers(-330, 300, len(m))
        ties = np.array([float(f"{a}5e{b}") for a, b in zip(m.tolist(), e.tolist())])
        parts += [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), -ties]
        # exact binary ties: odd k / 2^digits in [1, 10) and integers ending in 5
        odd = rng.integers(2 ** digits, 10 * 2 ** digits, quarter // 12) | 1
        parts.append(odd / 2.0 ** digits)
        tail5 = rng.integers(10 ** digits, 10 ** (digits + 1), quarter // 12) * 10 + 5
        parts.append(tail5.astype(float))
    nines = np.array([9.9999999995, 9.99999999995, 9.9999999999995, 9.99999999999995,
                      99999.9999995, 9.9999999995e-300, 9.9999999999995e+300])
    parts.append(np.concatenate([nines, np.nextafter(nines, np.inf),
                                 np.nextafter(nines, -np.inf)]))
    parts.append(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                           2.2250738585072014e-308, 2.225073858507201e-308,
                           1.7976931348623157e308, 1e-100, 1e100, 1e-99, 1e99,
                           1e-5, 1e22, 1e23, 0.5, 1.0, 10.0]))
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def hard_values():
    return _hard_values(np.random.default_rng(20231), 1_000_000)


@pytest.fixture(scope="module")
def percent_lines(hard_values):
    """Per format, the '%' text of each hard value, built once for the
    module; permuted with the values, it is the shuffled reference."""
    flat = hard_values.tolist()
    return {fmt: np.array([fmt % v for v in flat], dtype="S") for fmt, _ in FORMATS}


def _same_as_percent(values, fmt, spec, want=None):
    got = _table(values, 1, " ", spec)
    if want is None:
        want = _reference_table(values, 1, " ", fmt)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(b"\n"),
                                            want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ from {fmt!r}, e.g. {bad[:3]}")


def _lines(texts):
    return b"\n".join(texts.tolist()) + b"\n"


@pytest.mark.parametrize("fmt, spec", FORMATS, ids=["cube", "export"])
def test_formatter_matches_percent_on_hard_doubles(hard_values, percent_lines, fmt, spec):
    values = hard_values
    assert len(values) >= 1_000_000
    with np.errstate(all="ignore"):
        assert np.isnan(values).any() and (values == np.inf).any()
    _same_as_percent(values, fmt, spec, _lines(percent_lines[fmt]))


@pytest.mark.parametrize("fmt, spec", FORMATS, ids=["cube", "export"])
def test_formatter_matches_percent_on_shuffled_hard_doubles(hard_values, percent_lines,
                                                            fmt, spec):
    # _hard_values groups its values by kind, so most blocks hold one kind;
    # shuffled, every block mixes ties, specials and 2- and 3-digit exponents
    order = np.random.default_rng(5).permutation(len(hard_values))
    _same_as_percent(hard_values[order], fmt, spec, _lines(percent_lines[fmt][order]))


@pytest.mark.parametrize("fmt, spec", FORMATS, ids=["cube", "export"])
def test_formatter_matches_percent_on_one_outlier_per_block(fmt, spec):
    # blocks of positive map-like values, whose records share one layout,
    # each with a single outlier in its first, middle or last row
    tie = (2.0 ** spec["digits"] + 1) / 2.0 ** spec["digits"]
    assert repr(tie).endswith("5") and len(repr(tie)) == spec["digits"] + 2  # exact tie
    outliers = [-0.37, 3.1e-150, np.nan, tie, 9.9999999999995]
    rng = np.random.default_rng(17)
    blocks = []
    for outlier in outliers:
        for row in (0, _BLOCK_LINES // 2, _BLOCK_LINES - 1):
            block = 10.0 ** rng.uniform(-12.0, 0.0, _BLOCK_LINES)
            block[row] = outlier
            blocks.append(block)
    _same_as_percent(np.concatenate(blocks), fmt, spec)


def _decimal_ties(digits, k, rng, n=100):
    """Doubles v whose |v| 10^k has `digits` digits before the point and
    lies next to a half-integer h, by kind: "tie" (|v| 10^k = h exactly),
    "above" and "below" (fl(|v| 10^k) = h, the exact product above or below
    it; only where 10^k is exact) and "near" (the exact product within one
    ulp of h)."""
    kinds = {"near": [], "above": [], "below": [], "tie": []}
    for _ in range(n):
        half = Fraction(2 * rng.randrange(10 ** (digits - 1), 10 ** digits) + 1, 2)
        v = float(half / 10 ** k)           # nearest double, and 4 ulps either side
        for _ in range(4):
            v = math.nextafter(v, -math.inf)
        for _ in range(9):
            exact, scaled = Fraction(v) * 10 ** k, v * 10.0 ** k
            if exact == half:
                kinds["tie"].append(v)
            elif scaled == half and k <= 22:
                kinds["above" if exact > half else "below"].append(v)
            elif abs(exact - half) <= Fraction(math.ulp(scaled)):
                kinds["near"].append(v)
            v = math.nextafter(v, math.inf)
    # more true ties where 5^k can divide 2h: v = j / 2^(k + 1) with odd j
    lo, hi = 2 * 10 ** (digits - 1) // 5 ** k + 1, 2 * 10 ** digits // 5 ** k
    kinds["tie"] += [j / 2 ** (k + 1) for j in (rng.randrange(lo, hi) | 1
                                              for _ in range(20 if lo < hi else 0))
                     if j * 5 ** k < 2 * 10 ** digits]
    return kinds


@pytest.mark.parametrize("k", [0, 1, 11, 22, 23])
@pytest.mark.parametrize("fmt, spec", FORMATS, ids=["cube", "export"])
def test_formatter_decides_decimal_ties_exactly(fmt, spec, k, monkeypatch):
    # where 10^k is exact, only a true tie reaches '%'; every text is '%'s
    digits = spec["digits"]
    kinds = _decimal_ties(digits, k, random.Random(digits * 100 + k))
    assert kinds["near"]
    assert bool(kinds["above"]) == bool(kinds["below"]) == (1 <= k <= 22)
    assert bool(kinds["tie"]) == (5 ** k < 2 * 10 ** digits)
    percent, formatted = attopmm_io._percent, []

    def counting(values, *args):
        formatted.extend(np.abs(values).tolist())
        return percent(values, *args)

    monkeypatch.setattr(attopmm_io, "_percent", counting)
    values = np.array([v for vs in kinds.values() for v in vs])
    with np.errstate(all="raise"):
        _same_as_percent(np.concatenate([values, -values]), fmt, spec)
    want = kinds["tie"] if k <= 22 else values.tolist()
    assert sorted(formatted) == sorted(2 * want)


def _is_true_tie_or_inexact(v, digits):
    """Whether '%' must format v: a true decimal tie at `digits` digits, a
    value that is not finite or subnormal, or one whose 10^k is not exact."""
    a = Fraction(abs(v)) if math.isfinite(v) else Fraction(0)
    if a < Fraction(np.finfo(float).tiny):
        return True
    e = math.floor(math.log10(a))
    e += (a >= Fraction(10) ** (e + 1)) - (a < Fraction(10) ** e)
    k = digits - 1 - e
    return not 0 <= k <= 22 or (2 * a * 10 ** k).denominator == 1


def test_map_export_formats_almost_nothing_by_percent(tmp_path, scenario, monkeypatch):
    pmm = pmm_cut(97.3, 0.0, scenario.pulse, scenario.wave_packet, scenario.finals,
                  scenario.mos, resolution=201)
    percent, formatted = attopmm_io._percent, []

    def counting(values, *args):
        formatted.extend(values.tolist())
        return percent(values, *args)

    monkeypatch.setattr(attopmm_io, "_percent", counting)
    export_pmm(tmp_path / "map.dat", pmm)
    assert len(formatted) <= 10
    assert all(_is_true_tie_or_inexact(v, EXPORT["digits"]) for v in formatted)


def test_digit_group_and_exponent_tables():
    assert _DIGIT_GROUPS.view("S4").tolist() == [b"%04d" % k for k in range(10 ** 4)]
    assert _EXP10[0] == -308 and _EXP10[-1] == 308
    entries = [e.replace(b"\0", b"") for e in _EXPONENTS.view("S4").tolist()]
    for fmt, letter in (("%.12e", "e"), ("% .8E", "E")):
        texts = [(fmt % float(f"1e{e}")).partition(letter)[2].encode("ascii")
                 for e in _EXP10.tolist()]
        assert entries == texts


@pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 6 * _BLOCK_LINES - 1, 6 * _BLOCK_LINES,
                               6 * _BLOCK_LINES + 1, 6 * (_BLOCK_LINES + 1)])
@pytest.mark.parametrize("fmt, spec", FORMATS, ids=["cube", "export"])
def test_formatter_line_layout(n, fmt, spec):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    for sep in (" ", "\t"):
        assert _table(values, 6, sep, spec) == _reference_table(values, 6, sep, fmt)


def test_cube_matches_reference_writer(tmp_path):
    # 105 values: the last line holds 3
    counts = (3, 5, 7)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(counts) * 10.0 ** rng.integers(-9, 3, counts)
    values[0, 0, :2] = (0.0, -0.0)
    grid = VolumetricGrid(origin=(-1.5, 2.0, -3.25), axes=np.diag((0.5, 0.4, 0.3)),
                          counts=counts, values=values)
    atoms = [(6, 6.0, (0.1, -0.2, 0.3)), (1, 1.0, (1.0, 2.0, 3.0))]
    got = write_cube(tmp_path / "new.cube", grid, atoms=atoms, comments=("a", "b\nc"))
    want = reference_write_cube(tmp_path / "ref.cube", grid, atoms=atoms,
                                comments=("a", "b\nc"))
    _same_file(got, want)


def test_density_frame_matches_reference_writer(tmp_path, scenario):
    frame = density_timeseries(scenario.wave_packet, scenario.mos,
                               default_density_grid(scenario.mos), [0.7])[0]
    atoms = scenario.atoms
    got = export_density(tmp_path / "new.cube", frame, atoms=atoms, digest="d")
    comments = tuple(got.read_text(encoding="utf-8").split("\n", 2)[:2])
    want = reference_write_cube(tmp_path / "ref.cube", frame.grid, atoms=atoms,
                                comments=comments)
    _same_file(got, want)


def _same_pmm(tmp_path, pmm, digest=None):
    got = export_pmm(tmp_path / "new.dat", pmm, digest=digest)
    want = reference_export_pmm(tmp_path / "ref.dat", pmm, digest=digest)
    _same_file(got, want)


def test_short_mode_map_matches_reference_writer(tmp_path, scenario):
    pmm = pmm_cut(97.3, 1.1, scenario.pulse, scenario.wave_packet, scenario.finals,
                  scenario.mos, resolution=201)
    _same_pmm(tmp_path, pmm, digest=scenario.digest)


def test_energy_averaged_long_mode_map_matches_reference_writer(tmp_path, scenario):
    pulse = dataclasses.replace(scenario.pulse,
                                duration_fwhm_fs=scenario.period_fs / 4.0)
    pmm = energy_average_pmm(99.0, 1.0, 5, 0.3, pulse, scenario.wave_packet,
                             scenario.finals, scenario.mos, resolution=101, mode="long")
    assert pmm.metadata["energy_average"]["n_energies"] == 5
    _same_pmm(tmp_path, pmm)


def test_map_without_disc_matches_reference_writer(tmp_path):
    axis = np.linspace(-2.0, 2.0, 41)
    values = np.random.default_rng(3).random((41, 41)) ** 4
    pmm = PMM(energy_ev=98.0, t_p_fs=0.0, values=values, axis_x=axis,
              axis_y=axis * 0.9, metadata={"mode": "short"})
    _same_pmm(tmp_path, pmm)
    rows = [line for line in (tmp_path / "new.dat").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 41 * 41


def _tie_axis(rng, n, q_max):
    """n raster coordinates over [-q_max, q_max] with 13-digit decimal
    near-ties of '%.12e', their 1-ulp neighbours, -0.0 and 0.0 spliced in."""
    axis = np.linspace(-q_max, q_max, n)
    m = rng.integers(10 ** 12, 2 * 10 ** 12, 6)
    ties = np.array([float(f"{a}5e{e}") for a in m.tolist() for e in (-13, -14)])
    special = np.concatenate([ties, np.nextafter(ties, np.inf),
                              np.nextafter(ties, -np.inf), -ties, [-0.0, 0.0]])
    axis[rng.choice(n, len(special), replace=False)] = special
    return axis


@pytest.mark.parametrize("disc", [1.9, None], ids=["disc", "no-disc"])
def test_hand_built_map_matches_reference_writer(tmp_path, disc):
    # nx != ny, more than one block of rows inside the disc, negative
    # coordinates, and values with 3-digit exponents, -0.0 and near-ties of
    # their own (a PMM holds no negative probability)
    rng = np.random.default_rng(11)
    axis_x, axis_y = _tie_axis(rng, 131, 2.0), _tie_axis(rng, 97, 2.0)
    values = np.abs(rng.standard_normal((131, 97))
                    * 10.0 ** rng.integers(-150, 150, (131, 97)))
    values.flat[rng.choice(values.size, 60, replace=False)] = np.abs(
        _tie_axis(rng, 60, 1.0))
    values.flat[rng.choice(values.size, 20, replace=False)] = -0.0
    metadata = {"mode": "short"}
    if disc is not None:
        metadata["q_disc_inv_angstrom"] = disc
    pmm = PMM(energy_ev=98.0, t_p_fs=0.5, values=values, axis_x=axis_x,
              axis_y=axis_y, metadata=metadata)
    _same_pmm(tmp_path, pmm)
    n_rows = sum(1 for line in (tmp_path / "new.dat").read_text().splitlines()
                 if not line.startswith("#"))
    assert n_rows > _BLOCK_LINES
    assert (n_rows == 131 * 97) == (disc is None)


def test_map_export_formats_each_axis_value_once(tmp_path, scenario, monkeypatch):
    # the coordinates are formatted per axis and gathered, not once per row
    pmm = pmm_cut(97.3, 1.1, scenario.pulse, scenario.wave_packet, scenario.finals,
                  scenario.mos, resolution=201)
    formatted = []
    records = attopmm_io._records

    def counting(flat, *args, **kwargs):
        formatted.append(len(flat))
        return records(flat, *args, **kwargs)

    monkeypatch.setattr(attopmm_io, "_records", counting)
    path = export_pmm(tmp_path / "map.dat", pmm)
    n_rows = sum(1 for line in path.read_text().splitlines()
                 if not line.startswith("#"))
    assert 30_000 < n_rows < 201 * 201
    assert sum(formatted) <= 201 + 201 + n_rows


def test_spectra_match_reference_writer(tmp_path, scenario):
    energies = np.linspace(94.0, 100.0, 13)
    spectra = [angle_integrated_spectrum(energies, t, scenario.pulse,
                                         scenario.wave_packet, scenario.finals,
                                         scenario.mos, n_polar=12, n_azimuth=24)
               for t in (0.0, 1.3)]
    got = export_spectra(tmp_path / "new.dat", spectra, digest=scenario.digest)
    want = reference_export_spectra(tmp_path / "ref.dat", spectra,
                                    digest=scenario.digest)
    _same_file(got, want)


def _body_floats(path, skip):
    """Bit patterns of float() of every token, one row per line: the lines
    after the first `skip`, '#' lines left out."""
    lines = [line.split() for line in path.read_text().splitlines()[skip:]
             if not line.startswith("#")]
    return np.array([[float(t) for t in line] for line in lines]).view(np.int64)


def test_readers_return_float_of_each_written_token(tmp_path, hard_values):
    # a reader's one numpy conversion gives, bit for bit, float() of each token
    finite = np.random.default_rng(2).choice(hard_values[np.isfinite(hard_values)], 6000)
    cube = VolumetricGrid(origin=(0.0, 0.0, 0.0), axes=np.eye(3), counts=(10, 20, 30),
                          values=finite.reshape(10, 20, 30))
    back, _, _ = read_cube(write_cube(tmp_path / "a.cube", cube))
    assert np.array_equal(back.values.reshape(-1, 6).view(np.int64),
                          _body_floats(tmp_path / "a.cube", 6))
    pmm = PMM(energy_ev=98.0, t_p_fs=0.0, values=np.abs(finite).reshape(60, 100),
              axis_x=np.linspace(-2.0, 2.0, 60), axis_y=np.linspace(-1.0, 1.0, 100),
              metadata={"mode": "short"})
    back = read_pmm(export_pmm(tmp_path / "m.dat", pmm))
    assert np.array_equal(back.values.reshape(-1).view(np.int64),
                          _body_floats(tmp_path / "m.dat", 0)[:, 2])
    columns = finite.reshape(3, 2000)
    spectra = [Spectrum(energies_ev=columns[0], values=np.abs(v), scenario=f"s{k}",
                        metadata={}) for k, v in enumerate(columns[1:])]
    back = read_spectra(export_spectra(tmp_path / "s.dat", spectra))
    want = _body_floats(tmp_path / "s.dat", 0)
    for k, spectrum in enumerate(back, start=1):
        assert np.array_equal(spectrum.energies_ev.view(np.int64), want[:, 0])
        assert np.array_equal(spectrum.values.view(np.int64), want[:, k])
