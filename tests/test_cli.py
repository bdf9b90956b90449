import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attopmm import signal as signal_mod
from attopmm.cli import main, parse_time_token, time_label
from attopmm.density import default_density_grid
from attopmm.io import (
    ConfigError,
    default_scenario_path,
    load_scenario,
    read_cube,
    read_pmm,
    write_cube,
)
from attopmm.model import evaluate_orbital


PERIOD = 5.730054868251615


def test_parse_time_token():
    assert parse_time_token("0", PERIOD) == 0.0
    assert parse_time_token("1.25", PERIOD) == 1.25
    assert parse_time_token("T", PERIOD) == PERIOD
    assert parse_time_token("T/4", PERIOD) == PERIOD / 4.0
    assert parse_time_token("3T/4", PERIOD) == 3.0 * PERIOD / 4.0
    assert parse_time_token("0.5T", PERIOD) == 0.5 * PERIOD
    assert parse_time_token("3T/8", PERIOD) == 3.0 * PERIOD / 8.0
    with pytest.raises(ConfigError):
        parse_time_token("quarter", PERIOD)
    with pytest.raises(ConfigError):
        parse_time_token("T/4", None)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError):
            parse_time_token(bad, PERIOD)


def test_time_label():
    assert time_label("T/4") == "T4"
    assert time_label("0") == "0"
    assert time_label("1.250") == "1.25"
    assert time_label("0.5T") == "0.5T"


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "pentacene-two-state" in out
    assert "5.730055" in out          # beat period (fs)
    assert "3.900000" in out          # mean wave-packet energy (eV)
    assert "F  E_F(eV)" in out        # channel table header
    assert "time-dep" in out
    assert "0.581754" in out          # |dyson| of the first channel
    assert out.count("yes") == 2      # two time-dependent channels


def test_dyson_command(capsys):
    assert main(["dyson", "--final", "1", "--tp", "0"]) == 0
    out = capsys.readouterr().out
    # |<F1| a |wp(0)>| on L and L+2 with the published table entries
    assert "4.750000000000e-01" in out
    assert "3.358757210636e-01" in out


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_error_record_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    assert main(["validate", "--config", str(bad)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "invalid JSON" in record["message"]


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] in ("FileNotFoundError", "OSError")


def test_pmm_thread_determinism(tmp_path):
    digests = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        code = main(["pmm", "--tp", "0", "T/4", "--energy", "99",
                     "--grid", "41", "--threads", str(threads),
                     "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 2
        digests[threads] = [(p.name, p.read_bytes())
                            for p in sorted(out.iterdir())]
    assert digests[1] == digests[4] == digests[8]


def test_spectrum_command_writes_columns(tmp_path):
    out = tmp_path / "spec"
    code = main(["spectrum", "--tp", "0", "--window", "94", "100", "4",
                 "--states", "both", "--out", str(out)])
    assert code == 0
    files = list(out.iterdir())
    assert len(files) == 1
    text = files[0].read_text()
    assert "scenario=excited" in text and "scenario=s0" in text


def test_density_command_writes_cubes(tmp_path):
    out = tmp_path / "rho"
    code = main(["density", "--tp", "0", "T/2", "--spacing", "0.6",
                 "--out", str(out)])
    assert code == 0
    cubes = sorted(p.name for p in out.iterdir())
    assert len(cubes) == 2
    assert all(name.endswith(".cube") for name in cubes)
    assert any("T2" in name for name in cubes)


@pytest.mark.parametrize("field", ["t0_fs", "coefficient", "energy_ev"])
def test_non_finite_config_value_exits_1(tmp_path, capsys, field):
    # json writes float("nan") as NaN, which the standard parser reads back
    raw = json.loads(json.dumps(load_scenario(default_scenario_path()).raw))
    packet = raw["wave_packet"]
    if field == "t0_fs":
        packet["t0_fs"] = float("nan")
    elif field == "coefficient":
        packet["members"][0]["coefficient"] = [float("nan"), 0.0]
    else:
        packet["members"][1]["energy_ev"] = float("nan")
    shutil.copy(default_scenario_path().parent / raw["final_states"]["table"], tmp_path)
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["pmm", "--energy", "97", "--grid", "11", "--config", str(config),
                 "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert field in record["message"] and "finite" in record["message"]
    assert not out.exists()


def _cube_files_scenario(tmp_path, spacing_angstrom=1.0):
    """The bundled scenario with every orbital read from a coarse cube file."""
    scenario = load_scenario(default_scenario_path())
    grid = default_density_grid(scenario.mos, spacing_angstrom=spacing_angstrom)
    orbitals = {}
    for mo in scenario.mos:
        orbitals[mo.label] = f"{mo.label}.cube"
        write_cube(tmp_path / orbitals[mo.label],
                   dataclasses.replace(grid, values=evaluate_orbital(mo, grid)))
    raw = json.loads(json.dumps(scenario.raw))
    raw["molecule"] = {"source": "cube-files", "orbitals": orbitals}
    shutil.copy(default_scenario_path().parent / raw["final_states"]["table"], tmp_path)
    config = tmp_path / "cubes.json"
    config.write_text(json.dumps(raw))
    return config


def test_non_finite_cube_voxel_exits_1(tmp_path, capsys):
    config = _cube_files_scenario(tmp_path)
    assert main(["validate", "--config", str(config)]) == 0
    lines = (tmp_path / "H.cube").read_text().splitlines()
    lineno = len(lines) - 3
    values = lines[lineno - 1].split()
    values[2] = "nan"
    lines[lineno - 1] = " ".join(values)
    (tmp_path / "H.cube").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", "--config", str(config)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "CubeFormatError"
    assert "H.cube" in record["message"]
    assert f"line {lineno}: non-finite" in record["message"]


def test_cube_orbitals_make_maps_and_spectra(tmp_path, capsys):
    # grid-backed orbitals take the numeric transform on the map raster and
    # on the sphere quadrature; the half-period maps are x-mirror images
    config = _cube_files_scenario(tmp_path)
    for argv, count in ((["pmm", "--energy", "99", "--tp", "0", "T/2", "--grid", "41"], 2),
                        (["spectrum", "--tp", "0", "--states", "excited",
                          "--window", "95", "100", "3"], 1)):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        files = sorted(out.iterdir())
        assert len(files) == count and all(str(p) in printed for p in files)
    a, b = (read_pmm(p).values for p in sorted((tmp_path / "pmm").iterdir()))
    assert np.max(np.abs(b - a[::-1, :])) <= 1e-10 * np.max(a)


def test_density_of_cube_files_scenario(tmp_path):
    # grid-backed orbitals bound the density box by their own grid's
    # corners; on that grid's lattice the orbitals are their cube values,
    # and the frames carry no net charge (test_density's 1e-4 e)
    config = _cube_files_scenario(tmp_path, spacing_angstrom=0.3)
    out = tmp_path / "out"
    assert main(["density", "--config", str(config), "--spacing", "0.3",
                 "--tp", "0", "T/4", "--out", str(out)]) == 0
    orbital, _, _ = read_cube(tmp_path / "H.cube")
    cubes = sorted(out.glob("density_tp*.cube"))
    assert [p.name for p in cubes] == ["density_tp0.cube", "density_tpT4.cube"]
    for path in cubes:
        grid, _, _ = read_cube(path)
        assert np.all(grid.origin <= orbital.origin + 1e-5)
        assert np.array_equal(grid.axes, orbital.axes)
        assert np.any(grid.values)
        assert abs(grid.values.sum() * grid.voxel_volume) < 1e-4


def _artifacts_with_blas_threads(tmp_path, blas_threads, argv):
    out = tmp_path / f"blas{blas_threads}"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "attopmm.cli", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["pmm", "--tp", "0", "T/4", "--energy", "99", "--grid", "41", "--threads", "2"],
    ["pmm", "--average", "1", "--mode", "long", "--tau", "T/2", "--grid", "81"],
    ["spectrum", "--tp", "0", "--window", "94", "100", "4", "--states", "both"],
], ids=["pmm", "pmm-average-long", "spectrum"])
def test_artifacts_independent_of_blas_threads(tmp_path, argv):
    # amplitudes are BLAS products: the bytes must not depend on its threads;
    # the 81^2 average spans two sample blocks of the folded kernel
    one = _artifacts_with_blas_threads(tmp_path, 1, argv)
    two = _artifacts_with_blas_threads(tmp_path, 2, argv)
    assert one and one == two


@pytest.mark.parametrize("argv, error", [
    (["pmm", "--energy", "99", "--grid", "0"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "1"], "MomentumError"),
    (["reproduce-figure", "fig4", "--grid", "0"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "11", "--qmax", "0"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "11", "--qmax", "-2"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "11", "--qmax", "nan"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "11", "--qmax", "inf"], "MomentumError"),
    (["pmm", "--energy", "99", "--grid", "11", "--average", "0"], "SignalError"),
    (["pmm", "--energy", "99", "--grid", "11", "--average", "1",
      "--average-samples", "0"], "SignalError"),
    (["density", "--spacing", "0"], "DensityError"),
    (["density", "--padding", "0"], "DensityError"),
], ids=["grid-0", "grid-1", "fig4-grid-0", "qmax-0", "qmax-negative", "qmax-nan",
        "qmax-inf", "average-0", "average-samples-0", "spacing-0", "padding-0"])
def test_zero_or_invalid_numeric_option_exits_1(tmp_path, capsys, argv, error):
    # 0 is a value, not "unset": it must be rejected, never replaced by a default
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == error


@pytest.mark.parametrize("argv", [
    ["pmm", "--energy", "inf", "--grid", "11"],
    ["pmm", "--energy", "nan", "--grid", "11"],
    ["pmm", "--energy", "inf", "--grid", "11", "--average", "1"],
    ["pmm", "--energy", "0.2", "--grid", "11", "--average", "1"],
    ["spectrum", "--energy", "nan"],
    ["spectrum", "--energy", "inf"],
    ["spectrum", "--window", "90", "nan", "5"],
], ids=["pmm-inf", "pmm-nan", "average-inf", "average-below-0", "spectrum-nan",
        "spectrum-inf", "window-nan"])
def test_non_finite_or_negative_energy_exits_1(tmp_path, capsys, argv):
    # rejected at entry with a message naming the photoelectron energy
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SignalError"
    assert "photoelectron energy must be positive and finite" in record["message"]


def test_bad_later_map_energy_writes_nothing(tmp_path, capsys):
    # every row's energy is checked before the first map is computed
    out = tmp_path / "out"
    assert main(["pmm", "--energy", "99", "-1", "--grid", "11", "--out", str(out)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()
               if line.startswith("{")]
    assert [r["error"] for r in records] == ["SignalError"]
    assert not list(tmp_path.rglob("*.dat"))


def test_pmm_and_fig4_write_identical_maps(tmp_path):
    args = ["--energy", "99", "--tp", "0", "T/4", "--grid", "41"]
    assert main(["pmm", *args, "--out", str(tmp_path / "pmm")]) == 0
    assert main(["reproduce-figure", "fig4", *args, "--out", str(tmp_path)]) == 0
    pmm = {p.name: p.read_bytes() for p in sorted((tmp_path / "pmm").iterdir())}
    fig4 = {p.name: p.read_bytes() for p in sorted((tmp_path / "fig4").iterdir())}
    assert sorted(pmm) == ["pmm_e99_tp0.dat", "pmm_e99_tpT4.dat"]
    assert pmm == fig4


_WINDOW = ["spectrum", "--states", "excited", "--window"]
_PMM = ["pmm", "--energy", "99", "--grid", "11"]
_CONTRACT = {
    "window-lo-nan": (_WINDOW + ["nan", "100", "3"], "SignalError"),
    "window-hi-inf": (_WINDOW + ["90", "inf", "3"], "SignalError"),
    "window-lo-negative": (_WINDOW + ["-1", "100", "3"], "SignalError"),
    "window-lo-0": (_WINDOW + ["0", "100", "3"], "SignalError"),
    "window-n-nan": (_WINDOW + ["90", "100", "nan"], "ConfigError"),
    "window-n-inf": (_WINDOW + ["90", "100", "inf"], "ConfigError"),
    "window-n-negative": (_WINDOW + ["90", "100", "-1"], "ConfigError"),
    "window-n-0": (_WINDOW + ["90", "100", "0"], "ConfigError"),
    "window-n-2.7": (_WINDOW + ["90", "100", "2.7"], "ConfigError"),
    "window-descending": (_WINDOW + ["100", "90", "3"], "ConfigError"),
    "window-equal": (_WINDOW + ["95", "95", "3"], "ConfigError"),
    "window-n-3.0": (_WINDOW + ["94", "100", "3.0"], None),
    # the point count is capped before the energies are allocated
    "window-n-huge": (_WINDOW + ["90", "100", "1e9"], "ConfigError"),
    "pmm-tp-huge": (["pmm", "--energy", "99", "--grid", "11", "--tp", "1e308"],
                    "SignalError"),
    "pmm-tp-huge-negative": (["pmm", "--energy", "99", "--grid", "11", "--tp=-1e308"],
                             "SignalError"),
    "spectrum-tp-huge": (_WINDOW + ["94", "100", "3", "--tp", "1e308"], "SignalError"),
    "spectrum-tp-huge-negative": (_WINDOW + ["94", "100", "3", "--tp=-1e308"],
                                  "SignalError"),
    "density-tp-huge": (["density", "--spacing", "0.6", "--tp", "1e308"], "DensityError"),
    "density-tp-huge-negative": (["density", "--spacing", "0.6", "--tp=-1e308"],
                                 "DensityError"),
    "dyson-tp-huge": (["dyson", "--final", "1", "--tp", "1e308"], "SignalError"),
    # a bare negative number in exponent form is a value, not an option name
    "pmm-tp-huge-negative-bare": (["pmm", "--energy", "99", "--grid", "11",
                                   "--tp", "-1e308"], "SignalError"),
    "spectrum-tp-huge-negative-bare": (_WINDOW + ["94", "100", "3", "--tp", "-1e308"],
                                       "SignalError"),
    "density-tp-huge-negative-bare": (["density", "--spacing", "0.6", "--tp", "-1e308"],
                                      "DensityError"),
    "pmm-energy-huge-negative": (["pmm", "--energy", "-1e308", "--grid", "11"],
                                 "SignalError"),
    # integer options given a non-integer
    "pmm-grid-2.7": (["pmm", "--energy", "99", "--grid", "2.7"], "ConfigError"),
    "pmm-average-samples-2.7": (["pmm", "--energy", "99", "--grid", "11", "--average",
                                 "1", "--average-samples", "2.7"], "ConfigError"),
    "dyson-final-1.5": (["dyson", "--final", "1.5"], "ConfigError"),
    "pmm-threads-2.7": (["pmm", "--energy", "99", "--grid", "11", "--threads", "2.7"],
                        "ConfigError"),
    # a detuning whose square overflows gives a zero window, not a warning
    "pmm-energy-huge": (["pmm", "--energy", "1e308", "--grid", "11"], None),
    "spectrum-energy-huge": (["spectrum", "--energy", "1e308"], None),
    "fig6-energy-huge": (["reproduce-figure", "fig6", "--energy", "1e308", "--grid", "11"],
                         None),
    # widths and sizes must be finite, not only positive
    "pmm-average-inf": (["pmm", "--energy", "99", "--grid", "11", "--average", "inf"],
                        "SignalError"),
    "density-padding-inf": (["density", "--padding", "inf"], "DensityError"),
    "density-spacing-nan": (["density", "--spacing", "nan"], "DensityError"),
    "density-spacing-inf": (["density", "--spacing", "inf"], "DensityError"),
    "density-spacing-negative": (["density", "--spacing", "-1"], "DensityError"),
    "density-padding-nan": (["density", "--padding", "nan"], "DensityError"),
    "density-padding-negative": (["density", "--padding", "-1"], "DensityError"),
    # a voxel volume that overflows, and grids above the voxel ceiling, are
    # refused before any allocation
    "density-grid-overflow": (["density", "--padding", "1e300", "--spacing", "1e300"],
                              "DensityError"),
    "density-spacing-tiny": (["density", "--spacing", "1e-6"], "DensityError"),
    "density-padding-huge": (["density", "--padding", "1e300"], "DensityError"),
    "pmm-qmax-huge": (["pmm", "--energy", "99", "--grid", "11", "--qmax", "1e308"],
                      "MomentumError"),
    # a pulse duration must stay finite in atomic units (1e307 fs is not)
    "spectrum-tau-huge": (_WINDOW + ["94", "100", "3", "--tau", "1e307"], "ModelError"),
    "pmm-long-tau-huge": (["pmm", "--energy", "99", "--grid", "11", "--mode", "long",
                           "--tau", "1e308"], "ModelError"),
    "fig6-tau-huge": (["reproduce-figure", "fig6", "--grid", "11", "--tau", "1e308"],
                      "ModelError"),
    "spectrum-tau-1e306": (_WINDOW + ["94", "100", "3", "--tau", "1e306"], None),
    # zero, negative and nan widths, durations, raster sizes and indices
    "pmm-qmax-0": (_PMM + ["--qmax", "0"], "MomentumError"),
    "pmm-qmax-negative": (_PMM + ["--qmax", "-1"], "MomentumError"),
    "pmm-qmax-nan": (_PMM + ["--qmax", "nan"], "MomentumError"),
    "pmm-tau-0": (_PMM + ["--tau", "0"], "ModelError"),
    "pmm-tau-negative": (_PMM + ["--tau", "-1"], "ModelError"),
    "pmm-tau-nan": (_PMM + ["--tau", "nan"], "ConfigError"),
    "pmm-average-0": (_PMM + ["--average", "0"], "SignalError"),
    "pmm-average-negative": (_PMM + ["--average", "-1"], "SignalError"),
    "pmm-average-nan": (_PMM + ["--average", "nan"], "SignalError"),
    "spectrum-tau-0": (_WINDOW + ["94", "100", "3", "--tau", "0"], "ModelError"),
    "spectrum-tau-nan": (_WINDOW + ["94", "100", "3", "--tau", "nan"], "ConfigError"),
    "pmm-grid-0": (["pmm", "--energy", "99", "--grid", "0"], "MomentumError"),
    "pmm-grid-1": (["pmm", "--energy", "99", "--grid", "1"], "MomentumError"),
    "pmm-grid-negative": (["pmm", "--energy", "99", "--grid", "-1"], "MomentumError"),
    "fig4-grid-0": (["reproduce-figure", "fig4", "--grid", "0"], "MomentumError"),
    "fig4-grid-1": (["reproduce-figure", "fig4", "--grid", "1"], "MomentumError"),
    "fig4-grid-negative": (["reproduce-figure", "fig4", "--grid", "-1"], "MomentumError"),
    # a raster whose kernel (--grid 100000: 640 GB) or maps at all delays
    # pass the size ceiling is refused before anything is allocated
    "pmm-grid-huge": (["pmm", "--energy", "99", "--grid", "100000"], "ConfigError"),
    "pmm-average-grid-huge": (_PMM[:3] + ["--grid", "100000", "--average", "1"],
                              "ConfigError"),
    "fig4-grid-huge": (["reproduce-figure", "fig4", "--grid", "100000"], "ConfigError"),
    "fig6-grid-huge": (["reproduce-figure", "fig6", "--grid", "100000"], "ConfigError"),
    # fig6's durations share one call, so the preflight counts every one:
    # one needs 1.35e8 bytes at --grid 2049, eight 1.08e9
    "fig6-taus-grid-huge": (["reproduce-figure", "fig6", "--grid", "2049", "--tau",
                             *["0.5"] * 8], "ConfigError"),
    "pmm-delays-huge": (["pmm", "--energy", "99", "--grid", "2049", "--tp", *["0"] * 40],
                        "ConfigError"),
    "pmm-average-samples-1": (_PMM + ["--average", "1", "--average-samples", "1"],
                              "SignalError"),
    "pmm-average-samples-negative": (_PMM + ["--average", "1", "--average-samples", "-1"],
                                     "SignalError"),
    "dyson-final-0": (["dyson", "--final", "0"], "SignalError"),
    "dyson-final-negative": (["dyson", "--final", "-1"], "SignalError"),
    # every row's lowest averaged energy (here 0.3 - 1/2 eV) is checked
    # before the first map is written
    "pmm-average-later-row-below-0": (["pmm", "--energy", "99", "0.3", "--grid", "11",
                                       "--average", "1"], "SignalError"),
    # a figure target refuses an option it does not read, and a second value
    # of one it reads once
    "fig2-energy": (["reproduce-figure", "fig2", "--energy", "99"], "ConfigError"),
    "fig3-tp-two": (["reproduce-figure", "fig3", "--tp", "0", "T/4"], "ConfigError"),
    "fig4-tau": (["reproduce-figure", "fig4", "--grid", "11", "--tau", "T/2"],
                 "ConfigError"),
    "fig5-tau": (["reproduce-figure", "fig5", "--grid", "11", "--tau", "T/2"],
                 "ConfigError"),
    "fig6-energy-two": (["reproduce-figure", "fig6", "--grid", "11", "--energy", "99",
                         "0.3"], "ConfigError"),
    # a thread count is an integer >= 1
    "pmm-threads-0": (_PMM + ["--threads", "0"], "ConfigError"),
    "pmm-threads-negative": (_PMM + ["--threads", "-1"], "ConfigError"),
    "pmm-threads-nan": (_PMM + ["--threads", "nan"], "ConfigError"),
    "pmm-threads-inf": (_PMM + ["--threads", "inf"], "ConfigError"),
    "pmm-threads-huge": (_PMM + ["--threads", "1e308"], "ConfigError"),
    # the averaging table (10^11 energies: 745 GiB) is refused before the
    # energies are allocated, from the option or from the config
    "pmm-average-samples-huge": (_PMM + ["--average", "1", "--average-samples",
                                         "100000000000"], "ConfigError"),
    "fig6-average-samples-huge": (["reproduce-figure", "fig6", "--grid", "11", "--config",
                                   {"outputs": {"average_samples": 10 ** 11}}],
                                  "ConfigError"),
    # a config or table that is not UTF-8 text
    "validate-config-latin-1": (["validate", "--config",
                                 {"name": "caf\u00e9", "encoding": "latin-1"}],
                                "ConfigError"),
    "validate-table-not-utf-8": (["validate", "--config", {"table_tail": b"\xff"}],
                                 "TableFormatError"),
}


def _staged_config(directory, name=None, outputs=None, encoding="utf-8", table_tail=b""):
    """A --config value: the bundled config with `name` and `outputs` set,
    written in `encoding` beside its final-state table, which gains table_tail."""
    raw = json.loads(json.dumps(load_scenario(default_scenario_path()).raw))
    if name is not None:
        raw["name"] = name
    raw.setdefault("outputs", {}).update(outputs or {})
    table = default_scenario_path().parent / raw["final_states"]["table"]
    (directory / table.name).write_bytes(table.read_bytes() + table_tail)
    config = directory / "staged.json"
    config.write_bytes(json.dumps(raw, ensure_ascii=False).encode(encoding))
    return str(config)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, error", list(_CONTRACT.values()), ids=list(_CONTRACT))
def test_cli_exits_0_or_1_with_one_error_record(tmp_path, capsys, argv, error):
    # a run succeeds, or exits 1 with one JSON record on stderr and writes no
    # artifact; never a traceback, and no warning on the way (a dict in argv
    # holds the keyword arguments of a config staged by _staged_config)
    argv = [_staged_config(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()
               if line.startswith("{")]
    if error is None:
        assert code == 0 and records == []
        return
    assert code == 1
    assert [r["error"] for r in records] == [error]
    assert records[0]["message"]
    assert not out.exists() or not any(out.iterdir())


class _Reached(Exception):
    """Raised by a stubbed map call: the run got past its preflight."""


@pytest.mark.parametrize("basis", ["planar", "non-planar"])
def test_map_preflight_counts_what_a_run_holds(tmp_path, capsys, monkeypatch, basis):
    # at --grid 4097 a planar run holds its 134 MB map and one kernel block,
    # so it passes the 2^30-byte preflight and reaches the (stubbed) cut;
    # orbitals read from cube files also hold their whole kernels (1.07e9
    # bytes) and the raster's samples (403 MB), and are refused first
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr(signal_mod, "pmm_cut", reached)
    argv = ["pmm", "--energy", "99", "--tp", "0", "--grid", "4097",
            "--out", str(tmp_path / "out")]
    if basis == "planar":
        with pytest.raises(_Reached):
            main(argv)
        return
    assert main(argv + ["--config", str(_cube_files_scenario(tmp_path))]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["message"].startswith("--grid: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, option", [
    ("fig2-energy", "--energy"), ("fig3-tp-two", "--tp"), ("fig4-tau", "--tau"),
    ("fig5-tau", "--tau"), ("fig6-energy-two", "--energy"), ("pmm-grid-huge", "--grid"),
    ("fig4-grid-huge", "--grid"), ("pmm-delays-huge", "--grid"),
    ("fig6-taus-grid-huge", "--grid"),
    *((f"pmm-threads-{v}", "--threads") for v in ("0", "negative", "nan", "inf", "huge"))])
def test_figure_refusal_names_the_option(tmp_path, capsys, case, option):
    argv, _ = _CONTRACT[case]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["message"].startswith(f"{option}: ")
