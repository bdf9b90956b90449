"""Mutated cube, map and spectra files: a reader returns, or raises its own
format error, never an IndexError, OverflowError, MemoryError,
UnicodeDecodeError or any other exception."""

import numpy as np
import pytest

from attopmm.io import (
    CubeFormatError,
    ExportFormatError,
    export_pmm,
    export_spectra,
    read_cube,
    read_pmm,
    read_spectra,
    write_cube,
)
from attopmm.model import VolumetricGrid
from attopmm.signal import PMM, Spectrum

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# tokens a line mutation writes in place of a field
_TOKENS = ["nan", "-inf", "1e999", "-1.0", "0", "2", "x", "1e12", "1" * 400, "ÿ", "",
           "1 2", "#", "# format: attopmm-pmm-1"]

_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.integers(1, 64)),
    st.tuples(st.just("line"), st.integers(0, 1 << 16),
              st.sampled_from(["drop", "twice", "blank"])),
    st.tuples(st.just("field"), st.integers(0, 1 << 16), st.integers(0, 8),
              st.sampled_from(_TOKENS)),
)


def _mutate(data, mutations):
    """data with each mutation applied in turn: a byte set, inserted or cut,
    a line dropped, doubled or blanked, or a field of a line replaced."""
    for kind, at, *args in mutations:
        lines = data.split(b"\n")
        line = at % len(lines)
        at %= len(data) + 1
        if kind == "set":
            data = data[:at] + bytes(args) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + bytes(args) + data[at:]
        elif kind == "cut":
            data = data[:at] + data[at + args[0]:]
        elif kind == "line":
            lines[line:line + 1] = {"drop": [], "twice": [lines[line]] * 2,
                                    "blank": [b""]}[args[0]]
            data = b"\n".join(lines)
        else:
            fields = lines[line].split()
            if fields:
                fields[args[0] % len(fields)] = args[1].encode("utf-8")
            lines[line] = b" ".join(fields)
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """kind -> (bytes of a small valid file, its reader, the reader's error)."""
    root = tmp_path_factory.mktemp("valid")
    values = np.random.default_rng(3).standard_normal((3, 2, 4))
    cube = write_cube(root / "a.cube", VolumetricGrid(
        origin=(0.0, 0.0, 0.0), axes=np.eye(3) * 0.5, counts=(3, 2, 4), values=values),
        atoms=[(6, 6.0, (0.0, 0.1, 0.2))])
    pmm = export_pmm(root / "m.dat", PMM(
        energy_ev=98.0, t_p_fs=0.5, values=np.abs(values[0]), axis_x=[-1.0, 1.0],
        axis_y=np.linspace(-1.0, 1.0, 4),
        metadata={"mode": "short", "q_disc_inv_angstrom": 1.2, "tau_fs": 0.25,
                  "energy_average": {"center_ev": 98.0, "width_ev": 1.0, "n_energies": 3}}),
        digest="abc")
    spectra = export_spectra(root / "s.dat", [Spectrum(
        energies_ev=np.array([95.0, 96.0, 97.0]), values=np.abs(values[k, 0, :3]),
        scenario=f"s{k}", metadata={"t_p_fs": 0.5 * k, "mode": "long"}) for k in range(2)])
    return {"cube": (cube.read_bytes(), read_cube, CubeFormatError),
            "map": (pmm.read_bytes(), read_pmm, ExportFormatError),
            "spectra": (spectra.read_bytes(), read_spectra, ExportFormatError)}


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(kind=st.sampled_from(["cube", "map", "spectra"]),
                  mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_readers_return_or_raise_their_format_error(tmp_path, valid_files, kind, mutations):
    data, reader, error = valid_files[kind]
    path = tmp_path / kind
    path.write_bytes(_mutate(data, mutations))
    try:
        reader(path)
    except error:
        pass
