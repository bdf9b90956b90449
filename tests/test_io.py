import json
import logging
import shutil

import numpy as np
import pytest

from attopmm.cli import main
from attopmm.density import default_density_grid, density_timeseries
from attopmm.io import (
    ConfigError,
    CubeFormatError,
    ExportFormatError,
    TableFormatError,
    as_finals,
    config_digest,
    default_scenario_path,
    export_density,
    export_pmm,
    export_spectra,
    load_scenario,
    read_cube,
    read_final_state_table,
    read_pmm,
    read_spectra,
    validate_channel_energies,
    write_cube,
)
from attopmm.model import VolumetricGrid
from attopmm.signal import Spectrum, angle_integrated_spectrum, pmm_cut

from oracles import orbital_overlap

OCCUPIED = tuple(range(-10, 1))  # the bundled pentacene's closed shell, H-10 ... H


# --- cube files -------------------------------------------------------------

def test_cube_round_trip_small(tmp_path):
    grid = VolumetricGrid(origin=(-1.0, -2.0, -3.0), axes=np.eye(3) * 0.5,
                          counts=(3, 3, 3), values=np.zeros((3, 3, 3)))
    atoms = [(6, 6.0, (0.1, -0.2, 0.3)), (1, 1.0, (1.0, 2.0, 3.0))]
    path = write_cube(tmp_path / "a.cube", grid, atoms=atoms,
                      comments=("first", "second"))
    back, back_atoms, comments = read_cube(path)
    assert comments == ("first", "second")
    assert back_atoms == [(6, 6.0, (0.1, -0.2, 0.3)), (1, 1.0, (1.0, 2.0, 3.0))]
    assert np.array_equal(back.values, grid.values)
    assert np.allclose(back.origin, grid.origin)
    assert np.allclose(back.axes, grid.axes)
    rewritten = write_cube(tmp_path / "b.cube", back, atoms=back_atoms,
                           comments=comments)
    assert rewritten.read_bytes() == path.read_bytes()


def test_cube_density_frame_round_trip(tmp_path, scenario):
    grid = default_density_grid(scenario.mos, spacing_angstrom=0.45)
    frame = density_timeseries(scenario.wave_packet, scenario.mos, grid, [0.0])[0]
    path = export_density(tmp_path / "rho.cube", frame, atoms=scenario.atoms,
                          digest="abc123")
    back, atoms, comments = read_cube(path)
    assert len(atoms) == 36
    assert "digest=abc123" in comments[1]
    assert "t_fs=" in comments[1]
    # format precision: 9 significant digits
    scale = np.max(np.abs(frame.grid.values))
    assert np.max(np.abs(back.values - frame.grid.values)) < 1e-7 * scale
    net = back.values.sum() * back.voxel_volume
    assert abs(net - frame.net_charge) < 1e-7


def test_cube_reads_foreign_line_layout(tmp_path):
    # other programs break the line after every z-run, so lines hold fewer
    # than 6 values; a blank line is skipped
    values = np.random.default_rng(5).standard_normal((3, 4, 5))
    grid = VolumetricGrid(origin=(0.0, 1.0, 2.0), axes=np.eye(3) * 0.4, counts=(3, 4, 5),
                          values=values)
    path = write_cube(tmp_path / "a.cube", grid, atoms=[(6, 6.0, (0.0, 0.0, 0.0))])
    head = path.read_text().splitlines()[:7]
    runs = [" ".join(repr(v) for v in run) for run in values.reshape(-1, 5).tolist()]
    path.write_text("\n".join(head + runs[:5] + [""] + runs[5:]) + "\n")
    back, atoms, _ = read_cube(path)
    assert atoms == [(6, 6.0, (0.0, 0.0, 0.0))]
    assert np.array_equal(back.values, values)
    assert np.array_equal(back.axes, grid.axes) and back.counts == (3, 4, 5)


def _cube_error(tmp_path, text, needle):
    path = tmp_path / "bad.cube"
    path.write_text(text)
    with pytest.raises(CubeFormatError) as err:
        read_cube(path)
    assert needle in str(err.value)


def test_cube_error_reporting(tmp_path):
    _cube_error(tmp_path, "one\ntwo\n", "line 2")
    head = "c1\nc2\n    1 0.0 0.0\n"  # natoms line with 3 fields
    _cube_error(tmp_path, head, "line 3")
    good_head = ("c1\nc2\n    0 0.0 0.0 0.0\n"
                 "    2 1.0 0.0 0.0\n    2 0.0 1.0 0.0\n    2 0.0 0.0 1.0\n")
    _cube_error(tmp_path, good_head + "1 2 3 4 5 6 7\n8\n", "more than 6 values")
    _cube_error(tmp_path, good_head + "1 2 3 4 5 6\n", "expected 8 values")
    _cube_error(tmp_path, good_head + "1 2 3 4 5 6\n7 eight\n", "expected float")
    _cube_error(tmp_path, good_head + "1 2 3 4 5 6\n7 nan\n", "line 8: non-finite")
    _cube_error(tmp_path, good_head.replace(" 1.0 0.0 0.0", " inf 0.0 0.0"),
                "line 4: non-finite")
    _cube_error(tmp_path, good_head.replace("0 0.0 0.0 0.0", "0 -Infinity 0.0 0.0"),
                "line 3: non-finite")
    atom_head = good_head.replace("    0 0.0", "    1 0.0") + "6 6.0 0.0 NaN 0.0\n"
    _cube_error(tmp_path, atom_head + "1 2 3 4 5 6 7 8\n", "line 7: non-finite")
    _cube_error(tmp_path, good_head.replace(" 1.0 0.0 0.0", " 0.0 0.0 0.0") + "1\n" * 8,
                "line 4: grid axes are linearly dependent")


# --- final-state tables -------------------------------------------------------

def test_shipped_table_parses(scenario):
    rows = read_final_state_table(
        default_scenario_path().parent / "final_states_pentacene.tsv", OCCUPIED)
    assert [r.index for r in rows] == [1, 2, 3, 4, 5, 6]
    assert rows[0].state.energy_ev == 5.0
    assert rows[0].center_ev == 98.9
    # one-hole channel: single CSF with the printed weight
    (c, csf), = rows[0].state.expansion
    assert c == -0.95
    assert csf.holes == (0,) and csf.particles == ()
    assert len(rows[5].state.expansion) == 3
    finals = as_finals(rows)
    assert [i for i, _ in finals] == [1, 2, 3, 4, 5, 6]


def _table_error(tmp_path, body, needle):
    path = tmp_path / "t.tsv"
    path.write_text(body)
    with pytest.raises(TableFormatError) as err:
        read_final_state_table(path, OCCUPIED)
    assert needle in str(err.value)
    assert str(path) in str(err.value)


def test_table_error_reporting(tmp_path):
    _table_error(tmp_path, "", "no data rows")
    _table_error(tmp_path, "# only comments\n", "no data rows")
    _table_error(tmp_path, "1\t5.0\n", "3 or 4 tab-separated columns")
    _table_error(tmp_path, "x\t5.0\t0.5 h(H)\n", "bad index")
    _table_error(tmp_path, "1\t-5.0\t0.5 h(H)\n", "must be positive")
    _table_error(tmp_path, "1\tinf\t0.5 h(H)\n", "finite")
    _table_error(tmp_path, "1\t5.0\tnan\t0.5 h(H)\n", "finite")
    _table_error(tmp_path, "1\t5.0\t0.5 h(H)\n1\t6.0\t0.5 h(H-1)\n",
                 "duplicate index")
    _table_error(tmp_path, "1\t5.0\t0.99 h(H) + 0.99 h(H-1)\n", "norm")
    _table_error(tmp_path, "1\t5.0\t0.5 h(H-1,H) p(L) [abc]\n", "coupling tag")
    _table_error(tmp_path, "1\t5.0\t0.5 h(H-1,H) p(L)\n", "[udu] or [uud]")
    _table_error(tmp_path, "1\t5.0\t0.5 h(H) junk\n", "junk")
    _table_error(tmp_path, "1\t5.0\t0.5 h(L)\n", "not occupied")
    _table_error(tmp_path, "1\t5.0\t0.5 h(H,H)\n", "term shape")


def test_table_normalize_mode(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("1\t5.0\t-0.6 h(H)\n2\t6.0\t0.3 h(H,H) p(L) + 0.4 h(H-2)\n")
    rows = read_final_state_table(path, OCCUPIED, normalize=True)
    for row in rows:
        norm = sum(c * c for c, _ in row.state.expansion)
        assert norm == pytest.approx(1.0, abs=1e-12)
    # sign and ratio of printed coefficients survive normalization
    assert rows[0].state.expansion[0][0] == pytest.approx(-1.0)
    c1, c2 = (c for c, _ in rows[1].state.expansion)
    assert c1 / c2 == pytest.approx(0.75)


def test_validate_channel_energies(tmp_path, scenario):
    wp, pulse = scenario.wave_packet, scenario.pulse
    path = tmp_path / "t.tsv"
    # stated center 98.9 vs computed 100 + 3.9 - 5.0 = 98.9 -> consistent
    path.write_text("1\t5.0\t98.9\t-0.95 h(H)\n")
    rows = read_final_state_table(path, OCCUPIED)
    assert validate_channel_energies(rows, wp, pulse) == []
    path.write_text("1\t5.0\t98.5\t-0.95 h(H)\n")
    bad = validate_channel_energies(read_final_state_table(path, OCCUPIED),
                                    wp, pulse)
    assert bad == [(1, 98.5, pytest.approx(98.9))]
    # rows without a stated center are never flagged
    path.write_text("1\t5.0\t-0.95 h(H)\n")
    rows = read_final_state_table(path, OCCUPIED)
    assert validate_channel_energies(rows, wp, pulse) == []


# --- scenario configs -----------------------------------------------------------

def test_default_scenario_contents(scenario):
    assert scenario.name == "pentacene-two-state"
    assert scenario.wave_packet.n_members == 2
    assert scenario.wave_packet.mean_energy_ev == pytest.approx(3.9)
    assert scenario.period_fs == pytest.approx(5.730054868251615, abs=1e-12)
    assert scenario.pulse.photon_energy_ev == 100.0
    assert len(scenario.finals) == 6
    assert scenario.binding_energies_ev == {"H": 5.0, "H-2": 6.7, "H-4": 7.5}
    assert len(scenario.digest) == 64
    assert scenario.digest == config_digest(scenario.raw)
    assert scenario.outputs["map_resolution"] == 201
    assert scenario.outputs["density_times"] == ["0", "T/4", "T/2", "3T/4"]


def _stage_table(tmp_path):
    # configs resolve the finals table relative to their own directory
    shutil.copy(default_scenario_path().parent / "final_states_pentacene.tsv",
                tmp_path / "final_states_pentacene.tsv")


def test_scenario_round_trip(tmp_path, scenario):
    _stage_table(tmp_path)
    path = tmp_path / "pentacene.json"
    path.write_text(json.dumps(scenario.raw, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    again = load_scenario(path)
    assert again.digest == scenario.digest
    assert again.wave_packet.members[0][:2] == scenario.wave_packet.members[0][:2]
    assert [i for i, _ in again.finals] == [i for i, _ in scenario.finals]


def _config_error(tmp_path, raw, needle):
    _stage_table(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw) if not isinstance(raw, str) else raw)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert needle in str(err.value)


def test_config_error_reporting(tmp_path, scenario):
    _config_error(tmp_path, "", "empty config")
    _config_error(tmp_path, "{not json", "invalid JSON")
    raw = json.loads(json.dumps(scenario.raw))
    raw["bogus"] = 1
    _config_error(tmp_path, raw, "bogus")
    raw = json.loads(json.dumps(scenario.raw))
    raw["outputs"] = {"bogus_key": 3}
    _config_error(tmp_path, raw, "outputs: unknown key")
    raw = json.loads(json.dumps(scenario.raw))
    raw["coefficient_mode"] = "verbatim"
    _config_error(tmp_path, raw, "coefficient_mode")
    raw = json.loads(json.dumps(scenario.raw))
    del raw["wave_packet"]
    _config_error(tmp_path, raw, "wave_packet")
    raw = json.loads(json.dumps(scenario.raw))
    raw["pulse"]["duration_fwhm_fs"] = -0.5
    _config_error(tmp_path, raw, "duration")
    raw = json.loads(json.dumps(scenario.raw))
    raw["ground_state_binding_energies_ev"]["H"] = -5.0
    _config_error(tmp_path, raw, "H")
    # the point count is an integer >= 2, never truncated (2.7 -> 2)
    for window in ([85.0, 105.0, 2.7], [85.0, 105.0, 1], [105.0, 85.0, 5],
                   [85.0, 85.0, 5], [0.0, 105.0, 5], [85.0, 105.0, "5"]):
        raw = json.loads(json.dumps(scenario.raw))
        raw.setdefault("outputs", {})["spectrum_window_ev"] = window
        _config_error(tmp_path, raw, "outputs.spectrum_window_ev")


def test_config_member_norm_guard(tmp_path, scenario):
    raw = json.loads(json.dumps(scenario.raw))
    raw["wave_packet"]["members"][0]["coefficient"] = [0.9, 0.0]
    _config_error(tmp_path, raw, "sum of |coefficient|^2")


def test_config_table_requires_finals_section(tmp_path, scenario):
    raw = json.loads(json.dumps(scenario.raw))
    del raw["final_states"]
    _config_error(tmp_path, raw, "final_states")


def _butadiene_config(tmp_path, scenario):
    """A four-site LCAO-file molecule with a one-member packet (H -> L)."""
    (tmp_path / "butadiene.json").write_text(json.dumps({
        "exponent": 1.0,
        "centers_angstrom": [[-1.9, 0.0, 0.0], [-0.7, 0.0, 0.0],
                             [0.7, 0.0, 0.0], [1.9, 0.0, 0.0]],
        "orbitals": [
            {"label": "H-1", "coefficients": [0.37, 0.60, 0.60, 0.37]},
            {"label": "H", "coefficients": [0.60, 0.37, -0.37, -0.60]},
            {"label": "L", "coefficients": [0.60, -0.37, -0.37, 0.60]},
            {"label": "L+1", "coefficients": [0.37, -0.60, 0.60, -0.37]}]}))
    (tmp_path / "finals.tsv").write_text("1\t5.0\t-0.9 h(H)\n2\t6.0\t0.8 h(H-1)\n")
    raw = json.loads(json.dumps(scenario.raw))
    raw["molecule"] = {"source": "lcao-file", "path": "butadiene.json"}
    raw["final_states"] = {"table": "finals.tsv"}
    raw["wave_packet"] = {"members": [{"coefficient": 1.0, "energy_ev": 4.0, "terms": [
        {"coefficient": 1.0, "hole": "H", "particle": "L"}]}]}
    raw["ground_state_binding_energies_ev"] = {"H": 5.0}
    path = tmp_path / "butadiene-config.json"
    path.write_text(json.dumps(raw))
    return path


def test_lcao_file_orthonormality_reported(tmp_path, scenario, caplog):
    # the butadiene file's orbitals are loaded as given, with one warning
    # naming the largest |<i|j> - delta_ij|: <L+1|L+1> = 0.904
    with caplog.at_level(logging.WARNING, logger="attopmm.io"):
        load_scenario(_butadiene_config(tmp_path, scenario))
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "not orthonormal" in warnings[0]
    assert "= 0.0958 at <L+1|L+1>" in warnings[0]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="attopmm.io"):
        load_scenario(default_scenario_path())
    assert not caplog.records


def test_occupied_set_from_molecule(tmp_path, scenario):
    # the bundled Hueckel pentacene keeps its closed shell H-10 ... H
    assert scenario.occupied == OCCUPIED
    # a four-site LCAO-file molecule gets the closed shell of its own orbitals
    small = load_scenario(_butadiene_config(tmp_path, scenario))
    assert small.occupied == (-1, 0)
    assert small.wave_packet.n_electrons == 4
    assert [state.n_electrons for _, state in small.finals] == [3, 3]


_LCAO = {"source": "lcao-file", "path": "butadiene.json"}


@pytest.mark.parametrize("molecule, message", [
    (dict(_LCAO, bogus=1), "molecule: key(s) bogus not valid for lcao-file"),
    (dict(_LCAO, p_exponent=5.0), "molecule: key(s) p_exponent not valid for lcao-file"),
    ([_LCAO], "molecule: expected an object"),
    (dict(_LCAO, source=["lcao-file"]), "molecule.source: unknown source"),
], ids=["bogus", "p-exponent", "list", "source-list"])
def test_molecule_section_rejects_other_keys(tmp_path, scenario, molecule, message):
    # a key of another source (or of none) is refused, not silently ignored
    config = _butadiene_config(tmp_path, scenario)
    raw = json.loads(config.read_text())
    raw["molecule"] = molecule
    config.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        load_scenario(config)
    assert str(err.value).startswith(message)


def test_density_of_lcao_file_molecule(tmp_path, scenario):
    # any packet on the closed shell has a density change; an LCAO file lists
    # no atoms, so its cubes carry none
    config = _butadiene_config(tmp_path, scenario)
    out = tmp_path / "out"
    assert main(["density", "--config", str(config), "--tp", "0", "1.0",
                 "--out", str(out)]) == 0
    cubes = sorted(out.glob("density_tp*.cube"))
    assert [p.name for p in cubes] == ["density_tp0.cube", "density_tp1.cube"]
    # the file's orbitals are not normalized (<H|H> = 1.053, <L|L> = 0.934),
    # so moving one electron H -> L changes the charge by <L|L> - <H|H>
    mos = {mo.label: mo for mo in load_scenario(config).mos}
    moved = orbital_overlap(mos["L"], mos["L"]) - orbital_overlap(mos["H"], mos["H"])
    assert abs(moved) > 0.1
    for path in cubes:
        grid, atoms, _ = read_cube(path)
        assert atoms == []
        assert abs(grid.values.sum() * grid.voxel_volume - moved) < 1e-6


# --- result exports ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_map(scenario):
    return pmm_cut(99.0, 0.0, scenario.pulse, scenario.wave_packet,
                   scenario.finals, scenario.mos, resolution=31)


def test_export_pmm_round_trip(tmp_path, small_map, scenario):
    path = export_pmm(tmp_path / "map.tsv", small_map, digest=scenario.digest)
    data_rows = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")]
    # rows cover exactly the kinematic disc of the 31x31 hemisphere
    assert len(data_rows) == 709
    back = read_pmm(path)
    assert back.energy_ev == small_map.energy_ev
    assert back.t_p_fs == small_map.t_p_fs
    assert np.allclose(back.axis_x, small_map.axis_x, atol=1e-12)
    scale = small_map.values.max()
    assert np.max(np.abs(back.values - small_map.values)) < 1e-12 * scale
    assert back.metadata["config_digest"] == scenario.digest
    assert back.metadata["q_disc_inv_angstrom"] == pytest.approx(
        small_map.metadata["q_disc_inv_angstrom"])
    # deterministic writer: re-export byte-identical
    again = export_pmm(tmp_path / "map2.tsv", small_map, digest=scenario.digest)
    assert again.read_bytes() == path.read_bytes()


def test_read_pmm_rejects_foreign_and_corrupt(tmp_path, small_map):
    path = tmp_path / "x.tsv"
    path.write_text("# format: something-else\n1 2 3\n")
    with pytest.raises(ExportFormatError):
        read_pmm(path)
    good = export_pmm(tmp_path / "m.tsv", small_map)
    lines = good.read_text().splitlines()
    lines[-1] = "1.0\t2.0"
    bad = tmp_path / "m2.tsv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ExportFormatError) as err:
        read_pmm(bad)
    assert "3 columns" in str(err.value)


_READER_DEFECTS = {
    # (file kind, header prefix to replace or "last" for the last row, new
    # line; or "value" and the new last field of the last row)
    "map-axis-nan": ("map", "# axis_x:", "# axis_x: nan 1.0 31"),
    "map-axis-one-point": ("map", "# axis_y:", "# axis_y: -1.0 1.0 1"),
    # hi - lo overflows: the raster spacing would be inf
    "map-axis-span-overflow": ("map", "# axis_x:", "# axis_x: -1e308 1e308 31"),
    "map-energy-average-two-fields": ("map", "# energy_average:",
                                      "# energy_average: 99.0 1.0"),
    "map-energy-nan": ("map", "# energy_ev:", "# energy_ev: nan"),
    "map-tp-inf": ("map", "# t_p_fs:", "# t_p_fs: inf"),
    "map-row-nan": ("map", "last", "nan\t0.0\t1.0"),
    "spectra-energy-nan": ("spectra", "last", "nan\t1.0"),
    "spectra-energy-inf": ("spectra", "last", "inf\t1.0"),
    "spectra-tp-nan": ("spectra", "# column 2:", "# column 2: scenario=excited t_p_fs=nan"),
    "map-value-nan": ("map", "value", "nan"),
    "map-value-overflow": ("map", "value", "1e999"),
    "map-value-negative": ("map", "value", "-1.0"),
    "spectra-value-nan": ("spectra", "value", "nan"),
    "spectra-short-row": ("spectra", "last", "96.0"),
    "map-row-non-numeric": ("map", "value", "1.0x"),
    "spectra-row-non-numeric": ("spectra", "value", "one"),
    "map-row-off-raster": ("map", "last", "50.0\t0.0\t1.0"),
    # a 10^12-point axis is refused before any raster is allocated (7.28 TiB)
    "map-axis-huge": ("map", "# axis_x:", "# axis_x: -1.0 1.0 1000000000000"),
}


@pytest.mark.parametrize("kind, target, line", list(_READER_DEFECTS.values()),
                         ids=list(_READER_DEFECTS))
def test_readers_refuse_non_finite_or_malformed_input(tmp_path, small_map, kind, target,
                                                      line):
    # the error names the file and the offending line, never a bare ValueError
    if kind == "map":
        path, reader = export_pmm(tmp_path / "m.tsv", small_map), read_pmm
    else:
        spectrum = Spectrum(energies_ev=np.array([95.0, 96.0]),
                            values=np.array([1.0, 2.0]), scenario="excited",
                            metadata={"t_p_fs": 0.0})
        path, reader = export_spectra(tmp_path / "s.tsv", [spectrum]), read_spectra
    lines = path.read_text().splitlines()
    if target == "last":
        lines[-1] = line
        lineno = len(lines)
    elif target == "value":
        lines[-1] = "\t".join(lines[-1].split()[:-1] + [line])
        lineno = len(lines)
    else:
        lines = [lines[0], line] + [l for l in lines[1:] if not l.startswith(target)]
        lineno = 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ExportFormatError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path} line {lineno}: ")


def test_export_spectra_round_trip(tmp_path, scenario):
    energies = np.linspace(94.0, 100.0, 5)
    kw = dict(n_polar=16, n_azimuth=32)
    s0 = angle_integrated_spectrum(energies, 0.0, scenario.pulse,
                                   scenario.wave_packet, scenario.finals,
                                   scenario.mos, **kw)
    s1 = angle_integrated_spectrum(energies, 1.0, scenario.pulse,
                                   scenario.wave_packet, scenario.finals,
                                   scenario.mos, **kw)
    path = export_spectra(tmp_path / "spec.tsv", [s0, s1], digest=scenario.digest)
    back = read_spectra(path)
    assert len(back) == 2
    for orig, parsed in zip((s0, s1), back):
        assert parsed.scenario == "excited"
        assert np.allclose(parsed.energies_ev, energies, atol=1e-12)
        assert np.allclose(parsed.values, orig.values,
                           rtol=0, atol=1e-12 * orig.values.max())
        assert parsed.metadata["t_p_fs"] == orig.metadata["t_p_fs"]


def test_read_spectra_keeps_column_order_past_nine(tmp_path):
    # "# column 10" is the tenth spectrum, not the one after "# column 1"
    spectra = [Spectrum(energies_ev=np.array([95.0, 96.0]), values=np.array([1.0, 2.0]) * k,
                        scenario=f"s{k}", metadata={"t_p_fs": float(k)}) for k in range(12)]
    back = read_spectra(export_spectra(tmp_path / "s.tsv", spectra))
    assert [(s.scenario, s.metadata["t_p_fs"], s.values[0]) for s in back] == [
        (f"s{k}", float(k), float(k)) for k in range(12)]


def test_export_spectra_grid_mismatch(tmp_path, scenario):
    kw = dict(n_polar=16, n_azimuth=32)
    a = angle_integrated_spectrum(np.array([94.0, 99.0]), 0.0, scenario.pulse,
                                  scenario.wave_packet, scenario.finals,
                                  scenario.mos, **kw)
    b = angle_integrated_spectrum(np.array([95.0, 99.0]), 0.0, scenario.pulse,
                                  scenario.wave_packet, scenario.finals,
                                  scenario.mos, **kw)
    with pytest.raises(ExportFormatError):
        export_spectra(tmp_path / "s.tsv", [a, b])
    with pytest.raises(ExportFormatError):
        export_spectra(tmp_path / "s.tsv", [])
    short = Spectrum(energies_ev=a.energies_ev, values=a.values[:1],
                     scenario="short", metadata={})
    with pytest.raises(ExportFormatError):
        export_spectra(tmp_path / "s.tsv", [a, short])
