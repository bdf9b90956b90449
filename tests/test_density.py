import math

import numpy as np
import pytest

from attopmm.algebra import singlet_excitation_csf
from attopmm.density import (
    DensityError,
    DensityFrame,
    TwoStateDensity,
    default_density_grid,
    density_change,
    density_timeseries,
    resolve_two_state_structure,
)
from attopmm.model import ElectronicState, WavePacket


@pytest.fixture(scope="module")
def coarse_grid(scenario):
    # 0.45 A spacing keeps the whole module under a second
    return default_density_grid(scenario.mos, spacing_angstrom=0.45)


@pytest.fixture(scope="module")
def engine(scenario, coarse_grid):
    return TwoStateDensity(scenario.wave_packet, scenario.mos, coarse_grid)


def test_structure_resolution(scenario):
    st = resolve_two_state_structure(scenario.wave_packet)
    assert (st.hole_0, st.particle_0) == (0, 1)       # H -> L
    assert (st.particle_1, st.hole_1) == (3, -2)      # H -> L+2, H-2 -> L
    assert st.a == pytest.approx(1.0)
    assert st.b1 == pytest.approx(1.0 / math.sqrt(2.0))
    assert st.b2 == pytest.approx(-1.0 / math.sqrt(2.0))


def _one_member_packet(occ):
    state = ElectronicState(energy_ev=3.9, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    return WavePacket(members=((1.0 + 0.0j, 3.9, state),))


def test_structure_rejects_wrong_shapes(scenario):
    occ = sorted(mo.offset for mo in scenario.mos if mo.offset <= 0)
    with pytest.raises(DensityError):
        resolve_two_state_structure(_one_member_packet(occ))
    # two members but no shared hole/particle pattern
    s1 = ElectronicState(energy_ev=3.5, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    s2 = ElectronicState(energy_ev=4.3, expansion=(
        (1 / math.sqrt(2), singlet_excitation_csf(occ, -1, 2)),
        (-1 / math.sqrt(2), singlet_excitation_csf(occ, -3, 4)),))
    wp = WavePacket(members=((1 / math.sqrt(2), 3.5, s1),
                             (1 / math.sqrt(2), 4.3, s2)))
    with pytest.raises(DensityError):
        resolve_two_state_structure(wp)
    # member 2 with a single excitation
    s2_single = ElectronicState(energy_ev=4.3, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 3)),))
    wp_single = WavePacket(members=((1 / math.sqrt(2), 3.5, s1),
                                    (1 / math.sqrt(2), 4.3, s2_single)))
    with pytest.raises(DensityError):
        resolve_two_state_structure(wp_single)


def test_missing_orbital_detected(scenario, coarse_grid):
    frontier = [mo for mo in scenario.mos if mo.offset in (0, 1, 3)]  # no H-2
    with pytest.raises(DensityError):
        TwoStateDensity(scenario.wave_packet, frontier, coarse_grid)


def test_frame_rejects_non_finite_values(coarse_grid):
    values = np.zeros(coarse_grid.counts)
    values[1, 2, 3] = np.nan
    with pytest.raises(DensityError, match="non-finite"):
        DensityFrame.from_values(coarse_grid, values, 0.0)


def test_charge_conservation(engine, scenario):
    # Riemann-sum neutrality at 0.45 A spacing; the production 0.15 A grid
    # reaches ~1e-15 (exercised by the acceptance suite)
    period = scenario.wave_packet.beat_period_fs()
    for t in (0.0, period / 8.0, period / 3.0):
        frame = engine.frame(t)
        assert abs(frame.net_charge) < 1e-4
        assert frame.charge_gained > 0.0 > frame.charge_lost
        assert frame.net_charge == frame.charge_gained + frame.charge_lost


def test_periodicity_and_quarter_equality(engine, scenario):
    period = scenario.wave_packet.beat_period_fs()
    f0 = engine.frame(0.3).grid.values
    f1 = engine.frame(0.3 + period).grid.values
    scale = np.max(np.abs(f0))
    assert np.max(np.abs(f1 - f0)) < 1e-12 * scale
    q1 = engine.frame(period / 4.0).grid.values
    q3 = engine.frame(3.0 * period / 4.0).grid.values
    assert np.max(np.abs(q1 - q3)) < 1e-12 * scale


def test_half_period_x_reflection(engine, scenario):
    period = scenario.wave_packet.beat_period_fs()
    v0 = engine.frame(0.0).grid.values
    vh = engine.frame(period / 2.0).grid.values
    scale = np.max(np.abs(v0))
    assert np.max(np.abs(vh - v0[::-1, :, :])) < 1e-10 * scale
    # the map is a genuine motion: the two ends differ strongly
    assert np.max(np.abs(vh - v0)) > 0.5 * scale


def test_single_beat_harmonic(engine, scenario):
    # rho(t) = A + B cos(w t) + C sin(w t): three frames predict a fourth
    period = scenario.wave_packet.beat_period_fs()
    f = [engine.frame(t).grid.values
         for t in (0.0, period / 4.0, period / 2.0, period / 5.0)]
    mean = 0.5 * (f[0] + f[2])
    c_cos = f[0] - mean
    c_sin = mean - f[1]
    ang = 2.0 * math.pi / 5.0
    predicted = mean + c_cos * math.cos(ang) + c_sin * math.sin(ang)
    assert np.max(np.abs(predicted - f[3])) < 1e-12 * np.max(np.abs(f[0]))


def test_oscillating_part_quadrant_pattern(engine, scenario):
    # the beat term is odd in x and in y: opposite corners move together
    period = scenario.wave_packet.beat_period_fs()
    osc = engine.frame(0.0).grid.values - engine.frame(period / 2.0).grid.values
    osc = 0.5 * osc
    n0, n1, _ = osc.shape
    h0, h1 = n0 // 2, n1 // 2
    pp = osc[h0 + 1:, h1 + 1:, :]
    mm = osc[:h0, :h1, :][::-1, ::-1, :]
    pm = osc[h0 + 1:, :h1, :][:, ::-1, :]
    scale = np.max(np.abs(osc))
    assert np.max(np.abs(pp - mm)) < 1e-10 * scale  # even under point reflection
    assert np.max(np.abs(pp + pm)) < 1e-10 * scale  # odd under y flip


def test_density_change_and_timeseries(scenario, coarse_grid):
    frame = density_change(scenario.wave_packet, scenario.mos, coarse_grid, 0.7)
    series = density_timeseries(scenario.wave_packet, scenario.mos,
                                coarse_grid, [0.7])
    assert np.array_equal(series[0].grid.values, frame.grid.values)
    assert series[0].t_fs == 0.7
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
