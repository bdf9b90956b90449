import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from attopmm import density
from attopmm.algebra import singlet_excitation_csf
from attopmm.density import (
    DensityError,
    DensityFrame,
    default_density_grid,
    density_matrix_changes,
    density_timeseries,
)
from attopmm.model import ElectronicState, GaussianPrimitive, WavePacket
from attopmm.momentum import planar_basis

from oracles import two_state_density


@pytest.fixture(scope="module")
def coarse_grid(scenario):
    # 0.45 A spacing keeps the whole module under a second
    return default_density_grid(scenario.mos, spacing_angstrom=0.45)


@pytest.fixture(scope="module")
def frames(scenario, coarse_grid):
    """Density-change frames of the bundled packet at the given times."""
    def at(*times):
        return density_timeseries(scenario.wave_packet, scenario.mos,
                                  coarse_grid, times)
    return at


def _packets(occ):
    """Packets outside the two-state shape: one member; two members with no
    shared hole or particle; a single-term second member."""
    s1 = ElectronicState(energy_ev=3.5, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    s2 = ElectronicState(energy_ev=4.3, expansion=(
        (1 / math.sqrt(2), singlet_excitation_csf(occ, -1, 2)),
        (-1 / math.sqrt(2), singlet_excitation_csf(occ, -3, 4)),))
    s2_single = ElectronicState(energy_ev=4.3, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 3)),))
    half = 1 / math.sqrt(2)
    return {
        "one-member": WavePacket(members=((1.0 + 0.0j, 3.5, s1),)),
        "no-shared-orbital": WavePacket(members=((half, 3.5, s1), (half, 4.3, s2))),
        "single-term-member": WavePacket(members=((half, 3.5, s1),
                                                  (half, 4.3, s2_single))),
    }


def test_matches_two_state_closed_form(scenario, coarse_grid):
    period = scenario.wave_packet.beat_period_fs()
    times = [0.0, 0.295 * period, period / 4.0, 0.37 * period, period / 2.0,
             3.0 * period / 4.0, 0.91 * period]
    got = [f.grid.values for f in density_timeseries(
        scenario.wave_packet, scenario.mos, coarse_grid, times)]
    want = two_state_density(scenario.wave_packet, scenario.mos, coarse_grid, times)
    scale = max(np.max(np.abs(w)) for w in want)
    for t, g, w in zip(times, got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * scale, t


def test_planar_and_voxel_paths_agree(scenario, coarse_grid):
    # a zero-coefficient primitive above the plane leaves the physics as it
    # is but takes the orbitals off the planar path onto the 3-D one
    assert planar_basis(scenario.mos) is not None
    homo = next(mo for mo in scenario.mos if mo.offset == 0)
    lifted = GaussianPrimitive(center=homo.primitives[0].center + [0.0, 0.0, 1.0],
                               exponent=homo.primitives[0].exponent,
                               powers=homo.primitives[0].powers)
    off_plane = [dataclasses.replace(mo, coefficients=[*mo.coefficients, 0.0],
                                     primitives=(*mo.primitives, lifted))
                 if mo is homo else mo for mo in scenario.mos]
    assert planar_basis(off_plane) is None
    period = scenario.wave_packet.beat_period_fs()
    times = [0.0, 0.3 * period, period / 2.0]
    planar = density_timeseries(scenario.wave_packet, scenario.mos, coarse_grid, times)
    voxel = density_timeseries(scenario.wave_packet, off_plane, coarse_grid, times)
    scale = max(np.max(np.abs(f.grid.values)) for f in voxel)
    for a, b in zip(planar, voxel):
        assert np.max(np.abs(a.grid.values - b.grid.values)) <= 1e-14 * scale


def test_planar_frames_allocate_no_orbital_volumes(scenario):
    # on the production grid nothing is 3-D: two frames, their planes and
    # the transients stay below the bytes of one 3-D frame
    grid = default_density_grid(scenario.mos)
    frame_bytes = 8 * math.prod(grid.counts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frames = density_timeseries(scenario.wave_packet, scenario.mos, grid, [0.0, 1.0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(frames) == 2
    assert peak < frame_bytes, (peak, frame_bytes)


def test_general_packets(scenario):
    # at 0.2 A the Riemann sums of the orbital products are converged
    # (net charge ~2e-15); at 0.45 A they leave up to 2e-3 e
    grid = default_density_grid(scenario.mos, spacing_angstrom=0.2)
    times = [0.0, 0.4, 1.3, 2.9]
    for name, wp in _packets(scenario.occupied).items():
        _, changes, _ = density_matrix_changes(wp, scenario.mos, times)
        for dg in changes:
            assert abs(np.trace(dg)) <= 1e-13, name
        series = density_timeseries(wp, scenario.mos, grid, times)
        for frame in series:
            assert abs(frame.net_charge) < 1e-12, name
            assert frame.charge_gained > 0.0 > frame.charge_lost, name
        if wp.n_members == 1:
            v0 = series[0].grid.values
            for frame in series[1:]:
                assert (np.max(np.abs(frame.grid.values - v0))
                        <= 1e-14 * np.max(np.abs(v0)))


def test_missing_orbital_detected(scenario, coarse_grid):
    no_l2 = [mo for mo in scenario.mos if mo.offset != 3]
    with pytest.raises(DensityError, match=r"no orbital supplied for offsets \[3\]"):
        density_timeseries(scenario.wave_packet, no_l2, coarse_grid, [0.0])
    frontier = [mo for mo in scenario.mos if mo.offset in (0, 1, 3)]  # no H-2
    with pytest.raises(DensityError):
        density_timeseries(scenario.wave_packet, frontier, coarse_grid, [0.0])


def test_electron_count_must_fill_closed_shell(scenario, coarse_grid):
    # without H-10 the molecule's closed shell holds 20 electrons, not 22
    short = [mo for mo in scenario.mos if mo.offset != -10]
    with pytest.raises(DensityError, match="22 electrons"):
        density_timeseries(scenario.wave_packet, short, coarse_grid, [0.0])


@pytest.mark.filterwarnings("error")
def test_non_finite_phase_rejected_before_orbital_evaluation(scenario, coarse_grid,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a non-finite phase")
    monkeypatch.setattr(density, "member_pair_matrices", refuse)
    monkeypatch.setattr(density, "evaluate_orbital", refuse)
    monkeypatch.setattr(density, "axis_factors", refuse)
    for bad in ([1e308], [0.0, -1e308], [math.inf], [math.nan]):
        with pytest.raises(DensityError, match="non-finite wave-packet phase"):
            density_timeseries(scenario.wave_packet, scenario.mos, coarse_grid, bad)


@pytest.mark.filterwarnings("error")
def test_frame_rejects_non_finite_values(coarse_grid):
    # a 3-D frame, and a planar frame's two factors and the product of their
    # largest magnitudes, must be finite: 1e200 x 1e200 overflows in a voxel
    # that is never formed
    values = np.zeros(coarse_grid.counts)
    values[1, 2, 3] = np.nan
    nx, ny, nz = coarse_grid.counts
    plane, profile = np.ones((nx, ny)), np.ones(nz)
    big_plane, nan_plane, big_profile, nan_profile = (
        plane.copy(), plane.copy(), profile.copy(), profile.copy())
    big_plane[3, 4], nan_plane[0, 1], big_profile[5], nan_profile[nz - 1] = (
        -1e200, np.nan, 1e200, np.nan)
    for bad in (values, (big_plane, big_profile), (nan_plane, profile),
                (plane, nan_profile)):
        with pytest.raises(DensityError, match="non-finite"):
            DensityFrame(coarse_grid, bad, 0.0)
    for bad in ((plane[1:], profile), (plane, profile[1:]), (plane, -profile)):
        with pytest.raises(DensityError, match="do not fit"):
            DensityFrame(coarse_grid, bad, 0.0)
    for good in ((big_plane, profile), (plane, big_profile)):
        frame = DensityFrame(coarse_grid, good, 0.0)
        assert math.isfinite(frame.charge_gained) and math.isfinite(frame.charge_lost)


def test_charge_conservation(frames, scenario):
    # Riemann-sum neutrality at 0.45 A spacing; the production 0.15 A grid
    # reaches ~1e-15 (exercised by the acceptance suite)
    period = scenario.wave_packet.beat_period_fs()
    for frame in frames(0.0, period / 8.0, period / 3.0):
        assert abs(frame.net_charge) < 1e-4
        assert frame.charge_gained > 0.0 > frame.charge_lost
        assert frame.net_charge == frame.charge_gained + frame.charge_lost


def test_periodicity_and_quarter_equality(frames, scenario):
    period = scenario.wave_packet.beat_period_fs()
    f0, f1, q1, q3 = (f.grid.values for f in frames(
        0.3, 0.3 + period, period / 4.0, 3.0 * period / 4.0))
    scale = np.max(np.abs(f0))
    assert np.max(np.abs(f1 - f0)) < 1e-12 * scale
    assert np.max(np.abs(q1 - q3)) < 1e-12 * scale


def test_half_period_x_reflection(frames, scenario):
    period = scenario.wave_packet.beat_period_fs()
    v0, vh = (f.grid.values for f in frames(0.0, period / 2.0))
    scale = np.max(np.abs(v0))
    assert np.max(np.abs(vh - v0[::-1, :, :])) < 1e-10 * scale
    # the map is a genuine motion: the two ends differ strongly
    assert np.max(np.abs(vh - v0)) > 0.5 * scale


def test_single_beat_harmonic(frames, scenario):
    # rho(t) = A + B cos(w t) + C sin(w t): three frames predict a fourth
    period = scenario.wave_packet.beat_period_fs()
    f = [frame.grid.values
         for frame in frames(0.0, period / 4.0, period / 2.0, period / 5.0)]
    mean = 0.5 * (f[0] + f[2])
    c_cos = f[0] - mean
    c_sin = mean - f[1]
    ang = 2.0 * math.pi / 5.0
    predicted = mean + c_cos * math.cos(ang) + c_sin * math.sin(ang)
    assert np.max(np.abs(predicted - f[3])) < 1e-12 * np.max(np.abs(f[0]))


def test_oscillating_part_quadrant_pattern(frames, scenario):
    # the beat term is odd in x and in y: opposite corners move together
    period = scenario.wave_packet.beat_period_fs()
    v0, vh = (f.grid.values for f in frames(0.0, period / 2.0))
    osc = v0 - vh
    osc = 0.5 * osc
    n0, n1, _ = osc.shape
    h0, h1 = n0 // 2, n1 // 2
    pp = osc[h0 + 1:, h1 + 1:, :]
    mm = osc[:h0, :h1, :][::-1, ::-1, :]
    pm = osc[h0 + 1:, :h1, :][:, ::-1, :]
    scale = np.max(np.abs(osc))
    assert np.max(np.abs(pp - mm)) < 1e-10 * scale  # even under point reflection
    assert np.max(np.abs(pp + pm)) < 1e-10 * scale  # odd under y flip


def test_timeseries(scenario, coarse_grid):
    # a frame has the same bits alone and inside series of other lengths
    times = [0.7, 1.1, 1.3, 2.7, 4.1]
    series = density_timeseries(scenario.wave_packet, scenario.mos, coarse_grid, times)
    assert [f.t_fs for f in series] == times
    # planar frames hold (drho2, Z^2), read-only, and share one Z^2
    assert all(not a.flags.writeable for f in series for a in f.values)
    assert all(f.values[1] is series[0].values[1] for f in series)
    for batch in [[t] for t in times] + [times[:2], times[1:4]]:
        for frame in density_timeseries(scenario.wave_packet, scenario.mos,
                                        coarse_grid, batch):
            same = series[times.index(frame.t_fs)]
            assert frame.grid.values.tobytes() == same.grid.values.tobytes()
            assert (frame.charge_gained, frame.charge_lost) == \
                (same.charge_gained, same.charge_lost)
    with pytest.raises(DensityError):
        density_timeseries(scenario.wave_packet, scenario.mos, coarse_grid, [])


def test_default_grid_symmetric(scenario):
    grid = default_density_grid(scenario.mos, spacing_angstrom=0.5)
    assert all(n % 2 == 1 for n in grid.counts)
    pts = grid.points()
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    assert np.allclose(lo, -hi, atol=1e-12)
    # covers the carbon frame plus the requested padding
    centers = np.array([p.center for p in scenario.mos[0].primitives])
    pad = 4.0 / 0.529177
    assert np.all(hi >= centers.max(axis=0) + pad - 1e-9)
    with pytest.raises(DensityError):
        default_density_grid(scenario.mos, spacing_angstrom=0.0)
    with pytest.raises(DensityError):
        default_density_grid(scenario.mos, padding_angstrom=-1.0)
    # the voxel ceiling leaves room for a grid three times finer than 0.15 A
    fine = default_density_grid(scenario.mos, spacing_angstrom=0.05)
    assert math.prod(fine.counts) <= density._MAX_VOXELS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("padding, spacing, option", [
    (math.nan, 0.15, "--padding"), (4.0, math.inf, "--spacing"),
    (1e300, 1e300, "--spacing"), (4.0, 1e-6, "voxels"), (1e300, 0.15, "voxels"),
    (1.7e308, 0.15, "voxels"), (4.0, 5e-324, "voxels"),
])
def test_default_grid_preflight(scenario, padding, spacing, option):
    # refused before any allocation, without an overflow on the way
    with pytest.raises(DensityError, match=option):
        default_density_grid(scenario.mos, padding, spacing)
