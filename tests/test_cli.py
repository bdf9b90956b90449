import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from attopmm.cli import main, parse_time_token, time_label
from attopmm.io import ConfigError, default_scenario_path, load_scenario


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
    ["spectrum", "--tp", "0", "--window", "94", "100", "4", "--states", "both"],
], ids=["pmm", "spectrum"])
def test_artifacts_independent_of_blas_threads(tmp_path, argv):
    # amplitudes are BLAS products: the bytes must not depend on its threads
    one = _artifacts_with_blas_threads(tmp_path, 1, argv)
    two = _artifacts_with_blas_threads(tmp_path, 2, argv)
    assert one and one == two
