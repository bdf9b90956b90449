import cmath
import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from attopmm.algebra import closed_shell_state, singlet_excitation_csf
from attopmm import momentum, signal
from attopmm.cli import main
from attopmm.io import export_pmm
from attopmm.huckel import huckel_orbitals
from attopmm.model import (
    HARTREE_EV,
    ElectronicState,
    GaussianPrimitive,
    ProbePulse,
    VolumetricGrid,
    WavePacket,
    at_delays,
    evaluate_orbital,
    fs_to_au,
)
from attopmm.momentum import MomentumError, build_hemisphere
from attopmm.signal import (
    PMM,
    SignalError,
    Spectrum,
    angle_integrated_spectrum,
    build_channels,
    energy_average_pmm,
    envelope_long,
    envelope_short,
    ground_state_scenario,
    pmm_cut,
    probability,
)

from oracles import (
    ReferenceAmplitudes,
    dense_annihilation_map,
    gaussian_ft,
    per_energy_structure_factors,
    quadrature_spectrum,
    reference_probability,
)


@pytest.fixture(scope="module")
def ctx(scenario):
    return dict(wp=scenario.wave_packet, pulse=scenario.pulse,
                finals=scenario.finals, mos=scenario.mos,
                period=scenario.wave_packet.beat_period_fs())


def _map(ctx, t_p, energy=99.0, resolution=41, **kw):
    return pmm_cut(energy, t_p, ctx["pulse"], ctx["wp"], ctx["finals"],
                   ctx["mos"], resolution=resolution, **kw)


# --- envelopes ------------------------------------------------------------

def test_envelope_short_values():
    # half-period beat detuning of the two time-dependent channels
    assert envelope_short(99.0, 99.0 + 1.826, 0.5) == pytest.approx(0.4996, abs=1e-3)
    # channel centered at 98.9 eV probed at 99 eV barely decays
    assert envelope_short(98.9, 99.0, 0.5) == pytest.approx(0.99792, abs=1e-4)
    assert envelope_short(99.0, 99.0, 0.5) == 1.0
    # centers, energies and durations broadcast: one call per grid of them
    grid = envelope_short(np.array([98.9, 99.0]), 99.0, np.array([[0.5], [0.25]]))
    assert grid.shape == (2, 2) and grid[0, 1] == 1.0
    assert grid[0, 0] == envelope_short(98.9, 99.0, 0.5)
    assert grid[1, 0] == envelope_short(98.9, 99.0, 0.25)
    for bad in (0.0, [0.5, 0.0], [0.5, np.nan]):
        with pytest.raises(SignalError):
            envelope_short(99.0, 99.0, bad)


def test_envelope_short_frozen_channel_values(ctx):
    channels = build_channels(ctx["wp"], ctx["finals"], ctx["pulse"])
    frozen = {1: 0.99792, 2: 0.5095, 3: 0.2449, 4: 0.0494, 5: 0.0101, 6: 0.0082}
    for ch in channels:
        env = envelope_short(ch.omega_ev, 99.0, 0.5)
        assert env == pytest.approx(frozen[ch.index], abs=2e-4), ch.index


def test_envelope_long_wider_than_short():
    # amplitude-level window: exponent denominator doubles
    short = envelope_short(99.0, 101.0, 0.5)
    long_ = envelope_long(100.0, 3.9, 4.9, 101.0, 0.5)
    assert long_ == pytest.approx(math.sqrt(short), abs=1e-12)


def test_envelope_fwhm():
    # probability-level spectral FWHM 4 ln2 hbar / tau, sqrt(2) wider at
    # amplitude level
    w = 4.0 * math.log(2.0) * HARTREE_EV / fs_to_au(0.5)
    assert w == pytest.approx(3.65, abs=0.01)
    assert envelope_short(99.0, 99.0 + w / 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    w_amp = math.sqrt(2.0) * w
    assert w_amp == pytest.approx(3.65 * math.sqrt(2.0), abs=0.02)
    assert envelope_long(99.0, 0.0, 0.0, 99.0 + w_amp / 2.0, 0.5) == pytest.approx(
        0.5, abs=1e-12)


# --- channel construction ---------------------------------------------------

def test_build_channels_structure(ctx):
    channels = build_channels(ctx["wp"], ctx["finals"], ctx["pulse"])
    assert [ch.index for ch in channels] == [1, 2, 3, 4, 5, 6]
    assert [ch.time_dependent for ch in channels] == [
        True, False, False, False, False, True]
    for ch in channels:
        assert ch.omega_ev == pytest.approx(100.0 + 3.9 - ch.final_energy_ev, abs=1e-12)
    with pytest.raises(SignalError):
        build_channels(ctx["wp"], [], ctx["pulse"])


# --- pointwise probabilities -------------------------------------------------

def test_polarization_projection_zero(ctx):
    # q orthogonal to the z polarization (and q = 0) gives no signal
    qs = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.3, -0.4, 0.0],
                   [0.0, 0.0, 0.0]])
    p = probability(qs, 0.0, ctx["pulse"], ctx["wp"], ctx["finals"],
                    ctx["mos"])
    assert np.allclose(p, 0.0, atol=1e-30)


def test_tilted_polarization_nodal_plane(ctx):
    # x-polarized probe: products of even/odd pi orbitals all vanish at q_x=0
    pulse = dataclasses.replace(ctx["pulse"], polarization=(1.0, 0.0, 0.0))
    qs = np.array([[0.0, 0.7, 1.9], [0.0, -1.2, 0.3]])
    p = probability(qs, 0.0, pulse, ctx["wp"], ctx["finals"],
                    ctx["mos"])
    assert np.allclose(p, 0.0, atol=1e-30)
    q_on = np.array([[0.8, 0.7, 1.9]])
    p_on = probability(q_on, 0.0, pulse, ctx["wp"], ctx["finals"],
                       ctx["mos"])
    assert p_on[0] > 0.0


def test_probability_even_in_qz(ctx):
    rng = np.random.default_rng(3)
    q = rng.uniform(-2.0, 2.0, size=(6, 3))
    mirrored = q * np.array([1.0, 1.0, -1.0])
    a = probability(q, 0.3, ctx["pulse"], ctx["wp"], ctx["finals"],
                    ctx["mos"])
    b = probability(mirrored, 0.3, ctx["pulse"], ctx["wp"], ctx["finals"],
                    ctx["mos"])
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_single_member_packet_time_independent(ctx):
    occ = sorted(mo.offset for mo in ctx["mos"] if mo.offset <= 0)
    state = ElectronicState(energy_ev=3.9, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    wp = WavePacket(members=((1.0 + 0.0j, 3.9, state),))
    q = np.array([[0.5, 0.9, 1.7], [-1.1, 0.2, 0.8]])
    a = probability(q, 0.0, ctx["pulse"], wp, ctx["finals"], ctx["mos"])
    b = probability(q, 1.234, ctx["pulse"], wp, ctx["finals"], ctx["mos"])
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def _normalized_l2(a, b):
    return np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))


def test_long_pulse_approaches_short_at_small_tau(ctx):
    # broadband limit: per-member envelopes converge to the common window,
    # quadratically in the pulse duration
    diffs = []
    for tau in (0.1, 0.05):
        pulse = dataclasses.replace(ctx["pulse"], duration_fwhm_fs=tau)
        kw = dict(resolution=31)
        a = pmm_cut(99.0, 0.4, pulse, ctx["wp"], ctx["finals"], ctx["mos"],
                    mode="short", **kw)
        b = pmm_cut(99.0, 0.4, pulse, ctx["wp"], ctx["finals"], ctx["mos"],
                    mode="long", **kw)
        diffs.append(_normalized_l2(a.values, b.values))
    assert diffs[0] < 0.01
    assert diffs[1] < 0.30 * diffs[0]


# --- momentum maps ----------------------------------------------------------

def test_map_periodicity_and_quarter_symmetry(ctx):
    t_q = ctx["period"] / 4.0
    m0 = _map(ctx, 0.0)
    assert np.allclose(_map(ctx, ctx["period"]).values, m0.values,
                       rtol=0.0, atol=1e-10 * m0.values.max())
    m_quarter = _map(ctx, t_q)
    m_three = _map(ctx, 3.0 * t_q)
    assert np.allclose(m_quarter.values, m_three.values,
                       rtol=0.0, atol=1e-12 * m0.values.max())


def test_map_half_period_is_x_mirror(ctx):
    m0 = _map(ctx, 0.0)
    m_half = _map(ctx, ctx["period"] / 2.0)
    assert np.allclose(m_half.values, m0.values[::-1, :],
                       rtol=0.0, atol=1e-10 * m0.values.max())
    # each individual map is already point symmetric (centrosymmetric frame)
    assert np.allclose(m0.values, m0.values[::-1, ::-1],
                       rtol=0.0, atol=1e-12 * m0.values.max())


def test_map_single_beat_cosine(ctx):
    # P(q, t) = A + B cos(dE t + phi): three samples predict a fourth
    period = ctx["period"]
    i, j = 28, 12  # off-axis raster point
    ts = np.array([0.0, period / 4.0, period / 2.0, period / 3.0])
    vals = np.array([_map(ctx, t).values[i, j] for t in ts])
    mean = 0.5 * (vals[0] + vals[2])
    amp_cos = vals[0] - mean
    amp_sin = mean - vals[1]  # cos at T/4 advanced by pi/2
    predicted = mean + amp_cos * math.cos(2.0 * math.pi / 3.0) \
        + amp_sin * math.sin(2.0 * math.pi / 3.0)
    assert predicted == pytest.approx(vals[3], abs=1e-8 * max(vals))


def test_map_metadata_and_channel_skipping(ctx):
    m = _map(ctx, 0.0, resolution=21)
    meta = m.metadata
    assert meta["tau_fs"] == 0.5
    assert meta["omega_in_ev"] == 100.0
    assert meta["mode"] == "short"
    assert meta["q_disc_inv_angstrom"] == pytest.approx(5.097489076422, abs=1e-9)
    skipped = [r["index"] for r in meta["channels"] if r["skipped"]]
    assert skipped == []
    tight = _map(ctx, 0.0, resolution=21, channel_min_envelope=5e-2)
    skipped = [r["index"] for r in tight.metadata["channels"] if r["skipped"]]
    assert skipped == [4, 5, 6]
    # dropping sub-threshold channels only perturbs the map at the 1 % level
    diff = np.max(np.abs(tight.values - _map(ctx, 0.0, resolution=21).values))
    assert diff < 2e-2 * m.values.max()


def test_energy_average_keeps_mirror_relation(ctx):
    kw = dict(resolution=31, n_energies=5)
    a = energy_average_pmm(99.0, 1.0, kw["n_energies"], 0.0, ctx["pulse"],
                           ctx["wp"], ctx["finals"], ctx["mos"],
                           resolution=kw["resolution"])
    b = energy_average_pmm(99.0, 1.0, kw["n_energies"], ctx["period"] / 2.0,
                           ctx["pulse"], ctx["wp"], ctx["finals"], ctx["mos"],
                           resolution=kw["resolution"])
    assert np.allclose(b.values, a.values[::-1, :],
                       rtol=0.0, atol=1e-10 * a.values.max())
    assert a.metadata["energy_average"] == {
        "center_ev": 99.0, "width_ev": 1.0, "n_energies": 5}
    with pytest.raises(SignalError):
        energy_average_pmm(99.0, -1.0, 5, 0.0, ctx["pulse"], ctx["wp"],
                           ctx["finals"], ctx["mos"], resolution=11)
    with pytest.raises(SignalError):
        energy_average_pmm(99.0, 1.0, 1, 0.0, ctx["pulse"], ctx["wp"],
                           ctx["finals"], ctx["mos"], resolution=11)


def test_half_period_pulse_plus_averaging_keeps_contrast(ctx):
    # even smearing tau to T/2 with 1 eV energy averaging leaves half-period
    # contrast above the 10 % level when envelopes act per member
    period = ctx["period"]
    pulse = dataclasses.replace(ctx["pulse"], duration_fwhm_fs=period / 2.0)
    kw = dict(resolution=31, mode="long")
    a = energy_average_pmm(99.0, 1.0, 5, 0.0, pulse, ctx["wp"], ctx["finals"],
                           ctx["mos"], **kw)
    b = energy_average_pmm(99.0, 1.0, 5, period / 2.0, pulse, ctx["wp"],
                           ctx["finals"], ctx["mos"], **kw)
    na = a.values / np.linalg.norm(a.values)
    nb = b.values / np.linalg.norm(b.values)
    assert np.linalg.norm(na - nb) > 0.1


# --- angle-integrated spectra -------------------------------------------------

def _spectrum(ctx, t_p, energies=(94.0, 97.0, 99.0, 101.0), mos=None, **kw):
    return angle_integrated_spectrum(np.array(energies), t_p, ctx["pulse"],
                                     ctx["wp"], ctx["finals"], mos or ctx["mos"],
                                     **kw)


def test_spectrum_time_invariant(ctx):
    period = ctx["period"]
    ref = _spectrum(ctx, 0.0)
    for t_p in (period / 8.0, period / 4.0, 3.0 * period / 8.0):
        s = _spectrum(ctx, t_p)
        assert np.max(np.abs(s.values - ref.values)) < 1e-6 * ref.values.max()


def _voxel_homo(mos):
    """mos with the HOMO replaced by its values on a coarse two-layer grid:
    a grid-backed orbital, so the spectrum takes the sphere quadrature."""
    grid = VolumetricGrid(origin=(-14.25, -5.25, -0.75), axes=np.eye(3) * 1.5,
                          counts=(20, 8, 2))
    return [dataclasses.replace(mo, coefficients=None, primitives=None,
                                grid=grid.with_values(evaluate_orbital(mo, grid)))
            if mo.label == "H" else mo for mo in mos]


def test_spectrum_quadrature_converged(ctx):
    mos = _voxel_homo(ctx["mos"])
    coarse = _spectrum(ctx, 0.0, energies=(97.0, 99.0), mos=mos)
    fine = _spectrum(ctx, 0.0, energies=(97.0, 99.0), mos=mos,
                     n_polar=96, n_azimuth=192)
    assert coarse.metadata["angular"] == (48, 96)
    assert fine.metadata["angular"] == (96, 192)
    assert np.max(np.abs(coarse.values - fine.values)) < 1e-8 * fine.values.max()


def test_spectrum_input_validation(ctx):
    with pytest.raises(SignalError):
        _spectrum(ctx, 0.0, energies=(0.0, 99.0))
    with pytest.raises(SignalError):
        _spectrum(ctx, 0.0, energies=())
    # the quadrature order is checked whether or not a quadrature runs
    assert _spectrum(ctx, 0.0).metadata["angular"] == "closed-form"
    for mos in (ctx["mos"], _voxel_homo(ctx["mos"])):
        for order in (dict(n_polar=1), dict(n_azimuth=2)):
            with pytest.raises(MomentumError):
                _spectrum(ctx, 0.0, mos=mos, **order)


# closed form against the sphere-quadrature oracle

_OBLIQUE = tuple(np.array([0.48, -0.36, 0.8]) / np.linalg.norm([0.48, -0.36, 0.8]))
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
         "oblique": _OBLIQUE}


def _remap_primitives(mos, remap):
    """LCAO orbitals with every primitive replaced by remap(primitive)."""
    return [dataclasses.replace(mo, primitives=tuple(remap(p) for p in mo.primitives))
            for mo in mos]


def _lifted(prim):
    # centres at different heights, fixed by the in-plane position
    x, y, _ = prim.center
    return dataclasses.replace(prim, center=(x, y, 0.6 * math.sin(1.7 * x + 0.9 * y)))


def _mixed_s_px_py(prim):
    # s, p_x and p_y primitives of two exponents at the pentacene sites
    kind = int(round(prim.center[0] / 1.3 + prim.center[1])) % 3
    powers = [(0, 0, 0), (1, 0, 0), (0, 1, 0)][kind]
    return GaussianPrimitive(center=prim.center, exponent=0.8 + 0.3 * (kind == 0),
                             powers=powers)


def _states(ctx, scenario, state, mos):
    if state == "excited":
        return ctx["wp"], ctx["finals"]
    return ground_state_scenario(mos, scenario.binding_energies_ev)


def _closed_form_vs_oracle(ctx, scenario, state, mode, polarization, mos):
    wp, finals = _states(ctx, scenario, state, mos)
    pulse = dataclasses.replace(ctx["pulse"], polarization=polarization)
    energies = np.linspace(91.0, 101.0, 6)
    delays = [0.024 * ctx["period"], 0.524 * ctx["period"]]
    got = angle_integrated_spectrum(energies, delays, pulse, wp, finals, mos,
                                    mode=mode)
    ref = quadrature_spectrum(energies, delays, pulse, wp, finals, mos, 96, 192,
                              mode=mode)
    peak = max(r.max() for r in ref)
    assert peak > 0
    for s, r in zip(got, ref):
        assert s.metadata["angular"] == "closed-form"
        assert np.max(np.abs(s.values - r)) <= 1e-13 * peak


@pytest.mark.parametrize("polarization", sorted(_AXES))
@pytest.mark.parametrize("mode", ["short", "long"])
@pytest.mark.parametrize("state", ["excited", "s0"])
def test_closed_form_spectrum_matches_quadrature(ctx, scenario, state, mode,
                                                 polarization):
    _closed_form_vs_oracle(ctx, scenario, state, mode, _AXES[polarization],
                           ctx["mos"])


@pytest.mark.parametrize("remap", [_lifted, _mixed_s_px_py],
                         ids=["different-heights", "s-px-py"])
@pytest.mark.parametrize("state", ["excited", "s0"])
def test_closed_form_spectrum_general_primitives(ctx, scenario, state, remap):
    mos = _remap_primitives(ctx["mos"], remap)
    if remap is _mixed_s_px_py:
        kinds = {p.powers for mo in mos for p in mo.primitives}
        assert kinds == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    else:
        assert len({p.center[2] for mo in mos for p in mo.primitives}) > 10
    for mode in ("short", "long"):
        _closed_form_vs_oracle(ctx, scenario, state, mode, _OBLIQUE, mos)


def test_lcao_spectrum_runs_without_sphere_quadrature(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sphere quadrature on the LCAO spectrum path")

    monkeypatch.setattr(momentum, "orbital_ft", refuse)
    monkeypatch.setattr(signal, "build_sphere", refuse)
    monkeypatch.setattr(signal, "sphere_quadrature", refuse)
    assert main(["spectrum", "--tp", "0", "T/4", "--states", "both",
                 "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum_tp0.dat",
                                                           "spectrum_tpT4.dat"]


def test_closed_form_spectra_non_negative(ctx, scenario):
    energies = np.linspace(60.0, 140.0, 161)
    for axis in ("x", "y", "z"):
        pulse = dataclasses.replace(ctx["pulse"], polarization=_AXES[axis])
        for state in ("excited", "s0"):
            wp, finals = _states(ctx, scenario, state, ctx["mos"])
            for mode in ("short", "long"):
                spectra = angle_integrated_spectrum(
                    energies, [0.0, 0.3 * ctx["period"]], pulse, wp, finals,
                    ctx["mos"], mode=mode)
                for s in spectra:
                    assert np.all(np.isfinite(s.values))
                    assert np.all(s.values >= 0.0)
                    assert s.values.max() > 0.0


def test_closed_form_spectrum_exactly_delay_invariant(ctx, scenario):
    lo, hi, n = scenario.outputs["spectrum_window_ev"]
    t, period = 0.137 * ctx["period"], ctx["period"]
    spectra = _spectrum(ctx, [t, t + period / 4.0, t + period / 2.0],
                        energies=np.linspace(lo, hi, n))
    peak = spectra[0].values.max()
    for s in spectra[1:]:
        assert np.max(np.abs(s.values - spectra[0].values)) <= 1e-12 * peak


@pytest.mark.parametrize("mode", ["short", "long"])
@pytest.mark.parametrize("state", ["excited", "s0"])
def test_blocked_spectrum_equals_one_energy_per_call(ctx, scenario, state, mode):
    # the closed form takes energies in blocks, and 67 is not a multiple of
    # the block size; no value depends on which energies or delays share
    # the call
    wp, finals = _states(ctx, scenario, state, ctx["mos"])
    delays = [0.0, 1.3, 2.7]

    def spectra(energies, times):
        out = angle_integrated_spectrum(energies, times, ctx["pulse"], wp, finals,
                                        ctx["mos"], mode=mode)
        assert out[0].metadata["angular"] == "closed-form"
        return np.array([s.values for s in out])

    lo, hi, n = scenario.outputs["spectrum_window_ev"]
    for energies in (np.linspace(lo, hi, n), np.linspace(85.0, 105.0, 67)):
        batch = spectra(energies, delays)
        single = [spectra(energies[k:k + 1], delays) for k in range(len(energies))]
        assert batch.tobytes() == np.concatenate(single, axis=1).tobytes()
        assert spectra(energies, delays[1:2]).tobytes() == batch[1:2].tobytes()


def _count_bessel_calls(monkeypatch):
    calls = []
    bessel = momentum.spherical_bessel

    def counted(x):
        calls.append(np.shape(x))
        return bessel(x)

    monkeypatch.setattr(momentum, "spherical_bessel", counted)
    return calls


def test_blocked_spectrum_one_bessel_call_per_block(tmp_path, monkeypatch):
    calls = _count_bessel_calls(monkeypatch)
    assert main(["spectrum", "--tp", "0", "T/4", "--states", "both",
                 "--window", "85", "105", "67", "--out", str(tmp_path)]) == 0
    # two states, at most ceil(67 / 16) = 5 blocks each
    assert 0 < len(calls) <= 10
    assert all(shape[0] <= signal._ENERGY_BLOCK for shape in calls)


@pytest.mark.parametrize("mode", ["short", "long"])
def test_spectrum_with_every_channel_skipped_is_zero(ctx, monkeypatch, mode):
    calls = _count_bessel_calls(monkeypatch)
    spectrum = _spectrum(ctx, 0.0, energies=np.linspace(20.0, 30.0, 41), mode=mode)
    assert calls == []
    assert spectrum.values.tolist() == [0.0] * 41


# --- ground-state scenario ---------------------------------------------------

def test_ground_state_scenario_channels(ctx, scenario):
    wp, finals = ground_state_scenario(ctx["mos"], scenario.binding_energies_ev)
    assert wp.n_members == 1
    assert wp.members[0][1] == 0.0
    assert [idx for idx, _ in finals] == [1, 2, 3]
    assert [st.energy_ev for _, st in finals] == [5.0, 6.7, 7.5]
    channels = build_channels(wp, finals, ctx["pulse"])
    assert [ch.omega_ev for ch in channels] == [95.0, 93.3, 92.5]
    assert not any(ch.time_dependent for ch in channels)
    # Koopmans channels: exactly one Dyson term of unit weight each
    for ch in channels:
        assert np.count_nonzero(ch.dyson) == 1
        assert np.abs(ch.dyson).max() == pytest.approx(1.0, abs=1e-12)
        assert ch.dyson_norm == pytest.approx(1.0, abs=1e-12)


def test_ground_state_scenario_errors(ctx):
    with pytest.raises(SignalError):
        ground_state_scenario(ctx["mos"], {})
    with pytest.raises(SignalError):
        ground_state_scenario(ctx["mos"], {"L+1": 5.0})


# --- result containers ---------------------------------------------------------

def test_pmm_validation():
    axis = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(SignalError):
        PMM(energy_ev=10.0, t_p_fs=0.0, values=-np.ones((3, 3)),
            axis_x=axis, axis_y=axis, metadata={})
    with pytest.raises(SignalError):
        PMM(energy_ev=10.0, t_p_fs=0.0, values=np.ones((2, 3)),
            axis_x=axis, axis_y=axis, metadata={})
    for bad in (np.nan, np.inf):
        with pytest.raises(SignalError, match="non-finite"):
            PMM(energy_ev=10.0, t_p_fs=0.0, values=np.full((3, 3), bad),
                axis_x=axis, axis_y=axis, metadata={})
    good = PMM(energy_ev=10.0, t_p_fs=0.0, values=np.ones((3, 3)),
               axis_x=axis, axis_y=axis, metadata={})
    assert not good.values.flags.writeable


def test_spectrum_validation():
    with pytest.raises(SignalError):
        Spectrum(energies_ev=np.array([1.0, 2.0]), values=np.array([1.0, -2.0]),
                 scenario="excited", metadata={})
    for bad in (np.nan, np.inf):
        with pytest.raises(SignalError, match="non-finite"):
            Spectrum(energies_ev=np.array([1.0, 2.0]), values=np.array([1.0, bad]),
                     scenario="excited", metadata={})


# --- full-formula cross-check ----------------------------------------------------

@pytest.mark.parametrize("mode", ["short", "long"])
def test_three_channel_manual_reconstruction(ctx, mode):
    """probability rebuilt term by term for the one-hole channels.

    Restricts the finals to channels 1-3 and recomputes the signal from
    scratch: bitstring overlap maps per wave-packet member
    (oracles.dense_annihilation_map), explicit C_I exp(-i E_I (t - t0))
    phases, per-primitive Gaussian transforms,
    the energy window (short mode: one probability-level window per
    channel; long mode: the amplitude-level envelope of each member inside
    the coherent sum), and the polarization projection. Nothing from the
    channel/kernel assembly path is reused.
    """
    wp, pulse = ctx["wp"], ctx["pulse"]
    finals = [(i, s) for i, s in ctx["finals"] if i in (1, 2, 3)]
    assert len(finals) == 3
    mo_by_offset = {mo.offset: mo for mo in ctx["mos"]}
    t_p = 0.37 * ctx["period"]

    # directions spread over the sphere, radii spanning the energy window
    rng = np.random.default_rng(5)
    n_pts = 12
    vec = rng.normal(size=(n_pts, 3))
    vec /= np.linalg.norm(vec, axis=1)[:, None]
    eps_ev = rng.uniform(90.0, 108.0, size=n_pts)
    qs = vec * np.sqrt(2.0 * eps_ev / HARTREE_EV)[:, None]
    got = probability(qs, t_p, pulse, wp, finals, ctx["mos"], mode=mode)

    ft = {}   # (offset, sample index) -> transform: each is asked for many times

    def lcao_ft(offset, k):
        if (offset, k) not in ft:
            mo = mo_by_offset[offset]
            ft[offset, k] = sum(c * gaussian_ft(p, qs[k])
                                for c, p in zip(mo.coefficients, mo.primitives))
        return ft[offset, k]

    def window(delta_ev, ln2_factor):
        delta = delta_ev / HARTREE_EV
        return math.exp(-delta * delta * tau_au * tau_au / (ln2_factor * math.log(2.0)))

    t_au = fs_to_au(t_p - wp.t0_fs)
    tau_au = fs_to_au(pulse.duration_fwhm_fs)
    manual = np.zeros(n_pts)
    for k, q in enumerate(qs):
        eps = 0.5 * float(q @ q) * HARTREE_EV
        proj = float(q @ np.asarray(pulse.polarization)) ** 2
        total = 0.0
        for index, state in finals:
            omega = pulse.photon_energy_ev + wp.mean_energy_ev - state.energy_ev
            amp = {}
            for c_i, e_i, member in wp.members:
                phase = c_i * cmath.exp(-1j * (e_i / HARTREE_EV) * t_au)
                if mode == "long":
                    phase *= window(eps - (pulse.photon_energy_ev + e_i - state.energy_ev), 8.0)
                for (orb, spin), coeff in dense_annihilation_map(state, member).items():
                    amp[spin] = amp.get(spin, 0.0 + 0.0j) \
                        + phase * coeff * lcao_ft(orb, k)
            weight = window(eps - omega, 4.0) if mode == "short" else 1.0
            total += weight * sum(abs(a) ** 2 for a in amp.values())
        manual[k] = proj * total
    assert np.max(np.abs(got - manual)) <= 1e-12 * got.max()


@pytest.mark.parametrize("mode", ["short", "long"])
def test_probability_at_one_momentum_equals_it_in_a_block(ctx, mode):
    # a free momentum alone takes the products it takes inside a larger
    # call, so its probability keeps every bit, for LCAO and cube orbitals
    q = np.random.default_rng(11).normal(size=(300, 3)) * 1.2 + [0.0, 0.0, 2.5]
    delays = [0.0, 0.3 * ctx["period"]]
    args = (delays, _probe(ctx, mode), ctx["wp"], ctx["finals"])
    for mos in (ctx["mos"], _voxel_homo(ctx["mos"])):
        block = probability(q, *args, mos, mode=mode)
        for n in range(0, len(q), 6):
            assert probability(q[n], *args, mos, mode=mode) == [b[n] for b in block]


# --- member-pair kernels against the per-delay reference -----------------------

@pytest.mark.parametrize("mode", ["short", "long"])
def test_kernel_matches_per_delay_reference(ctx, mode):
    # one delay-series call per energy (and one energy average) against the
    # per-delay, per-mode amplitude evaluation of tests/oracles.py, on the
    # same skipped channels
    period = ctx["period"]
    pulse = ctx["pulse"] if mode == "short" else dataclasses.replace(
        ctx["pulse"], duration_fwhm_fs=period / 2.0)
    delays = [0.0, 0.13 * period, period / 4.0, 0.37 * period, 0.81 * period]
    channels = build_channels(ctx["wp"], ctx["finals"], pulse)
    for energy in (95.6, 97.7, 99.0):
        maps = pmm_cut(energy, delays, pulse, ctx["wp"], ctx["finals"],
                       ctx["mos"], resolution=61, mode=mode)
        assert [m.t_p_fs for m in maps] == delays
        skip = [r["skipped"] for r in maps[0].metadata["channels"]]
        grid = build_hemisphere(energy, 61, 61)
        amps = ReferenceAmplitudes(channels, ctx["mos"], grid)
        for t, m in zip(delays, maps):
            ref = reference_probability(channels, amps, grid.samples, ctx["wp"],
                                        pulse, t, mode, skip=skip, energy_ev=energy)
            ref = np.where(grid.valid, ref, 0.0).reshape(grid.shape)
            assert np.max(np.abs(m.values - ref)) <= 1e-15 * ref.max(), (energy, t)
        # a delay series is the same numbers as one call per delay
        single = pmm_cut(energy, delays[3], pulse, ctx["wp"], ctx["finals"],
                         ctx["mos"], resolution=61, mode=mode)
        assert np.array_equal(single.values, maps[3].values)
    # energy average: the mean of the masked per-energy reference maps
    avg = energy_average_pmm(99.0, 1.0, 3, delays[:2], pulse, ctx["wp"],
                             ctx["finals"], ctx["mos"], resolution=61, mode=mode,
                             channel_min_envelope=0.0)
    energies = (98.5, 99.0, 99.5)
    grids = [build_hemisphere(e, 61, 61, avg[0].axis_x[-1]) for e in energies]
    for t, m in zip(delays[:2], avg):
        ref = sum(np.where(g.valid, reference_probability(
            channels, ReferenceAmplitudes(channels, ctx["mos"], g), g.samples,
            ctx["wp"], pulse, t, mode, energy_ev=e), 0.0)
            for e, g in zip(energies, grids)) / 3.0
        ref = ref.reshape(m.values.shape)
        assert np.max(np.abs(m.values - ref)) <= 1e-15 * ref.max(), t
    q = np.array([[0.4, -1.1, 2.4], [1.3, 0.2, 2.3]])
    series = probability(q, delays, pulse, ctx["wp"], ctx["finals"], ctx["mos"],
                         mode=mode)
    assert len(series) == len(delays) and series[2].shape == (2,)
    point = probability(q[0], delays[2], pulse, ctx["wp"], ctx["finals"],
                        ctx["mos"], mode=mode)
    assert isinstance(point, float)
    assert point == pytest.approx(series[2][0], rel=1e-14, abs=0.0)


# --- folded hemisphere kernel against per-energy kernels -------------------------

def _probe(ctx, mode):
    if mode == "short":
        return ctx["pulse"]
    return dataclasses.replace(ctx["pulse"], duration_fwhm_fs=ctx["period"] / 2.0)


def _per_energy_mean(ctx, energies, delays, pulse, mode, resolution, q_max, mos):
    """Mean over energies of the maps from one _kernel per energy, each on
    its own hemisphere over the shared raster (zero outside its disc)."""
    wp = ctx["wp"]
    channels = build_channels(wp, ctx["finals"], pulse)
    basis, matrices = signal._dyson_matrices(channels, mos)
    total = 0.0
    weights, _, _ = signal._weights(channels, np.asarray(energies, dtype=float), [pulse],
                                    wp, mode, signal.DEFAULT_CHANNEL_MIN_ENVELOPE)
    for k, e in enumerate(energies):
        grid = build_hemisphere(e, resolution, resolution, q_max)
        kernel, = signal._kernel(
            np.zeros((1, wp.n_members, wp.n_members, grid.n_samples), dtype=complex),
            grid, weights[..., k:k + 1], basis, matrices, pulse.polarization)
        total = total + at_delays(kernel, wp.phases(delays))
    return [m.reshape(grid.shape) for m in total / len(energies)]


@pytest.mark.parametrize("mode", ["short", "long"])
def test_folded_maps_match_per_energy_kernels(ctx, monkeypatch, mode):
    # 71^2 samples span two transform blocks; the bundled p_z basis is
    # planar, so no orbital transform runs on the map path
    def refuse(*args, **kwargs):
        raise AssertionError("per-energy orbital transform on a planar basis")

    monkeypatch.setattr(momentum, "orbital_ft", refuse)
    pulse, period = _probe(ctx, mode), ctx["period"]
    delays = [0.0, 0.3 * period]
    avg = energy_average_pmm(99.0, 1.0, 11, delays, pulse, ctx["wp"], ctx["finals"],
                             ctx["mos"], resolution=71, mode=mode)
    cut = pmm_cut(97.7, delays, pulse, ctx["wp"], ctx["finals"], ctx["mos"],
                  resolution=71, mode=mode)
    monkeypatch.undo()
    refs = [_per_energy_mean(ctx, np.linspace(98.5, 99.5, 11), delays, pulse, mode,
                             71, avg[0].axis_x[-1], ctx["mos"]),
            _per_energy_mean(ctx, [97.7], delays, pulse, mode, 71, None, ctx["mos"])]
    for maps, ref in zip((avg, cut), refs):
        for m, r in zip(maps, ref):
            assert r.max() > 0
            assert np.max(np.abs(m.values - r)) <= 2e-15 * r.max()


@pytest.mark.parametrize("mode", ["short", "long"])
def test_envelope_calls_independent_of_sample_blocks(ctx, monkeypatch, mode):
    # the pair weights of all channels and energies come from one envelope
    # call per observable call: 41^2 samples fill one block of the folded
    # kernel, 71^2 two
    calls = []

    def counting(envelope):
        def wrapped(*args):
            calls.append(envelope.__name__)
            return envelope(*args)
        return wrapped

    monkeypatch.setattr(signal, "envelope_short", counting(envelope_short))
    monkeypatch.setattr(signal, "envelope_long", counting(envelope_long))
    pulse = _probe(ctx, mode)
    args = ([0.0, 0.3 * ctx["period"]], pulse, ctx["wp"], ctx["finals"], ctx["mos"])
    observables = [
        lambda: pmm_cut(97.7, *args, resolution=41, mode=mode),
        lambda: energy_average_pmm(99.0, 1.0, 11, *args, resolution=41, mode=mode),
        lambda: energy_average_pmm(99.0, 1.0, 11, *args, resolution=71, mode=mode),
        lambda: angle_integrated_spectrum(np.linspace(85.0, 105.0, 67), *args,
                                          mode=mode),
        lambda: probability(np.array([[0.4, -1.1, 2.4], [1.3, 0.2, 2.3]]), *args,
                            mode=mode),
    ]
    for call in observables:
        calls.clear()
        call()
        assert calls == [f"envelope_{mode}"]


def _lift_one_center(mos):
    # every primitive on the first center moves 0.4 bohr out of the plane
    first = mos[0].primitives[0].center
    return _remap_primitives(mos, lambda p: dataclasses.replace(
        p, center=(p.center[0], p.center[1], 0.4)) if np.array_equal(p.center, first)
        else p)


@pytest.mark.parametrize("basis", ["one-center-lifted", "s-px-py"])
def test_non_planar_or_mixed_basis_takes_per_energy_path(ctx, monkeypatch, basis):
    # a lifted center breaks the common height, several shapes the common
    # shape factor: both keep one _kernel per energy, checked against the
    # per-delay oracle
    def refuse(*args, **kwargs):
        raise AssertionError("folded kernel on a non-planar or mixed basis")

    if basis == "s-px-py":
        mos = _remap_primitives(ctx["mos"], _mixed_s_px_py)
    else:
        mos = _lift_one_center(ctx["mos"])
        assert len({p.center[2] for mo in mos for p in mo.primitives}) == 2
    assert momentum.planar_basis(mos) is None
    assert momentum.planar_basis(ctx["mos"]) is not None
    monkeypatch.setattr(signal, "_folded_kernel", refuse)
    delays = [0.0, 0.37 * ctx["period"]]
    for mode in ("short", "long"):
        pulse = _probe(ctx, mode)
        channels = build_channels(ctx["wp"], ctx["finals"], pulse)
        maps = pmm_cut(97.7, delays, pulse, ctx["wp"], ctx["finals"], mos,
                       resolution=41, mode=mode)
        skip = [r["skipped"] for r in maps[0].metadata["channels"]]
        grid = build_hemisphere(97.7, 41, 41)
        amps = ReferenceAmplitudes(channels, mos, grid)
        for t, m in zip(delays, maps):
            ref = reference_probability(channels, amps, grid.samples, ctx["wp"],
                                        pulse, t, mode, skip=skip, energy_ev=97.7)
            ref = np.where(grid.valid, ref, 0.0).reshape(grid.shape)
            assert ref.max() > 0
            assert np.max(np.abs(m.values - ref)) <= 1e-15 * ref.max(), (mode, t)


# --- the folded kernel's per-axis kinematic factor and pulse axis ----------------

_PLANAR_SHAPES = {"s": (0, 0, 0), "p_x": (1, 0, 0), "d_xz": (1, 0, 1)}


@pytest.mark.parametrize("polarization", ["z", "oblique"])
@pytest.mark.parametrize("shape", sorted(_PLANAR_SHAPES))
def test_folded_maps_of_planar_shapes_match_per_delay_reference(ctx, shape, polarization):
    # single-shape planar bases other than p_z take the folded kernel with
    # every axis factor and projection term in play; cuts and an average
    # against the per-delay oracle, in both modes
    wp, finals = ctx["wp"], ctx["finals"]
    mos = _remap_primitives(ctx["mos"], lambda p: dataclasses.replace(
        p, powers=_PLANAR_SHAPES[shape]))
    assert momentum.planar_basis(mos) is not None
    delays = [0.0, 0.37 * ctx["period"]]
    for mode in ("short", "long"):
        pulse = dataclasses.replace(_probe(ctx, mode), polarization=_AXES[polarization])
        channels = build_channels(wp, finals, pulse)
        for energy in (95.6, 99.0):
            maps = pmm_cut(energy, delays, pulse, wp, finals, mos, resolution=61, mode=mode)
            skip = [r["skipped"] for r in maps[0].metadata["channels"]]
            grid = build_hemisphere(energy, 61, 61)
            amps = ReferenceAmplitudes(channels, mos, grid)
            for t, m in zip(delays, maps):
                ref = reference_probability(channels, amps, grid.samples, wp, pulse, t,
                                            mode, skip=skip, energy_ev=energy)
                ref = np.where(grid.valid, ref, 0.0).reshape(grid.shape)
                assert ref.max() > 0
                assert np.max(np.abs(m.values - ref)) <= 2e-15 * ref.max(), (mode, energy)
        avg = energy_average_pmm(99.0, 1.0, 3, delays, pulse, wp, finals, mos,
                                 resolution=61, mode=mode, channel_min_envelope=0.0)
        grids = {e: build_hemisphere(e, 61, 61, avg[0].axis_x[-1]) for e in (98.5, 99.0, 99.5)}
        for t, m in zip(delays, avg):
            ref = sum(np.where(g.valid, reference_probability(
                channels, ReferenceAmplitudes(channels, mos, g), g.samples, wp, pulse, t,
                mode, energy_ev=e), 0.0) for e, g in grids.items()) / 3.0
            ref = ref.reshape(m.values.shape)
            assert np.max(np.abs(m.values - ref)) <= 2e-15 * ref.max(), (mode, t)


@pytest.mark.filterwarnings("error")
def test_folded_map_far_from_every_channel_is_zero(ctx):
    # at 1e308 eV every channel is skipped, so no kinematic factor is formed:
    # an f_z^3 basis, whose z factor overflows there, still gives zero maps
    mos = _remap_primitives(ctx["mos"], lambda p: dataclasses.replace(p, powers=(0, 0, 3)))
    for mode in ("short", "long"):
        cut = pmm_cut(1e308, 0.0, _probe(ctx, mode), ctx["wp"], ctx["finals"], mos,
                      resolution=11, mode=mode)
        assert not cut.values.any()


@pytest.mark.parametrize("mode", ["short", "long"])
def test_per_axis_kinematic_factor_is_bit_identical(ctx, monkeypatch, mode):
    # the bundled p_z basis with eps along z: the default-raster cut and
    # average keep every bit of the maps whose T comes from one lift and
    # one shape_factor per energy (the oracle)
    args = ([0.0, 0.3 * ctx["period"]], _probe(ctx, mode), ctx["wp"], ctx["finals"],
            ctx["mos"])
    calls = [lambda: pmm_cut(97.7, *args, mode=mode),
             lambda: energy_average_pmm(99.0, 1.0, 11, *args, mode=mode)]
    got = [call() for call in calls]
    monkeypatch.setattr(momentum, "structure_factors", per_energy_structure_factors)
    for maps, call in zip(got, calls):
        for m, r in zip(maps, call()):
            assert m.values.shape == (201, 201) and r.values.max() > 0
            assert np.array_equal(m.values, r.values)


def _durations(ctx, pulse):
    return [dataclasses.replace(pulse, duration_fwhm_fs=tau)
            for tau in (0.5, ctx["period"] / 4.0, ctx["period"] / 2.0)]


@pytest.mark.parametrize("mode", ["short", "long"])
def test_pulse_sequence_maps_equal_one_call_per_pulse(ctx, mode):
    # a sequence of durations shares one raster's transforms, and each of
    # its results is, bit for bit and record for record, the one-pulse call
    pulses = _durations(ctx, _probe(ctx, mode))
    rest = (ctx["wp"], ctx["finals"], ctx["mos"])
    for delays in ([0.0, 0.3 * ctx["period"]], 0.7):
        for call in (lambda p: pmm_cut(97.7, delays, p, *rest, resolution=41, mode=mode),
                     lambda p: energy_average_pmm(99.0, 1.0, 5, delays, p, *rest,
                                                  resolution=41, mode=mode)):
            for result, pulse in zip(call(pulses), pulses):
                one = call(pulse)
                if not isinstance(one, list):
                    result, one = [result], [one]
                for m, r in zip(result, one):
                    assert np.array_equal(m.values, r.values)
                    assert m.metadata == r.metadata and m.t_p_fs == r.t_p_fs
    if mode == "long":
        # 16 delays x 3 durations over two disc blocks: each map is the call
        # for its one pulse and one delay
        delays = [k * ctx["period"] / 16 for k in range(16)]
        maps = pmm_cut(97.7, delays, pulses, *rest, resolution=81, mode=mode)
        for result, pulse in zip(maps, pulses):
            assert len(result) == len(delays)
            for m, t in zip(result, delays):
                one = pmm_cut(97.7, t, pulse, *rest, resolution=81, mode=mode)
                assert np.array_equal(m.values, one.values) and m.metadata == one.metadata
    other = dataclasses.replace(pulses[0], photon_energy_ev=101.0)
    for bad in ([], [pulses[0], other]):
        with pytest.raises(SignalError, match="pulses"):
            pmm_cut(97.7, 0.0, bad, *rest, resolution=11, mode=mode)


def test_folded_maps_call_no_per_energy_lift_or_shape_factor(ctx, monkeypatch, tmp_path):
    # a folded cut or average never lifts, not even its raster, whose disc is
    # its spans, and never calls shape_factor; fig6's three durations share
    # one raster and so one structure_factors call
    calls = collections.Counter()

    def counting(name):
        original = getattr(momentum, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(momentum, name, wrapped)

    for name in ("lift", "shape_factor", "structure_factors"):
        counting(name)
    pulse = _probe(ctx, "long")
    args = ([0.0, 0.3 * ctx["period"]], ctx["wp"], ctx["finals"], ctx["mos"])
    observables = [
        lambda: pmm_cut(97.7, args[0], pulse, *args[1:], resolution=71, mode="long"),
        lambda: energy_average_pmm(99.0, 1.0, 11, args[0], pulse, *args[1:],
                                   resolution=71, mode="long"),
        lambda: energy_average_pmm(99.0, 1.0, 11, args[0], _durations(ctx, pulse),
                                   *args[1:], resolution=71, mode="long"),
        lambda: main(["reproduce-figure", "fig6", "--grid", "41", "--tp", "0",
                      "--out", str(tmp_path)]),
    ]
    for call in observables:
        calls.clear()
        call()
        assert calls == {"structure_factors": 1}


def test_map_memory_peak(ctx):
    # one 201^2 cut holds the raster's axes and disc spans, its map and one
    # disc block of the kernel, structure and kinematic factors and delay
    # values: 2.0 MB traced, against 3.3 MB with the raster's (N, 3) samples,
    # 7.8 MB with the whole (M, M, N) kernel and 10.4 MB when every energy
    # built its full (orbital, sample) transform
    _map(ctx, 0.0, resolution=11)
    tracemalloc.start()
    try:
        _map(ctx, 0.0, resolution=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0e6, peak


def test_map_memory_grows_by_the_maps_alone(ctx):
    # each disc block's kernel becomes every delay's map values before the
    # next block is formed, written straight into the maps' own arrays: at
    # 201^2 one delay traces 2.0 MB and four 3.1 MB (7.8 MB each with the
    # whole kernel, full-raster delay work arrays and a copy of every map),
    # and each further delay adds about its 0.32 MB map
    period = ctx["period"]
    _map(ctx, 0.0, resolution=11)
    peaks = {}
    for n in (1, 4, 16):
        tracemalloc.start()
        try:
            _map(ctx, [k * period / n for k in range(n)] if n > 1 else 0.0, resolution=201)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3.5e6 and peaks[4] < 4.5e6, peaks
    assert peaks[16] - peaks[4] <= 12 * 0.5e6, peaks


def test_fine_raster_holds_its_map_and_one_block(ctx, tmp_path):
    # a 1001^2 raster is its axes and disc spans, its map is written into
    # by line slices and exported from the spans: pmm_cut and export_pmm
    # trace ~10 MiB with the 8 MiB map, against 47 MiB with the raster's
    # (N, 3) samples, its masks and the exporter's (row, column) indices
    _map(ctx, 0.0, resolution=11)
    tracemalloc.start()
    try:
        export_pmm(tmp_path / "map.dat", _map(ctx, 0.0, resolution=1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_density_memory_peak(tmp_path):
    # a planar frame is its plane and Z^2, and the cube writer streams it
    # through buffers it holds for the call: the `density` command on the
    # default grid traces ~2 MiB for 2 or 8 frames, where each 3-D frame
    # would add 4.2 MiB
    peaks = []
    for n in (2, 8):
        tracemalloc.start()
        try:
            assert main(["density", "--tp", *(f"{k / 8}T" for k in range(n)),
                         "--out", str(tmp_path / str(n))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 * 2**20, peaks
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_delay_sequence_results(ctx):
    period = ctx["period"]
    delays = (0.0, period / 2.0)
    avg = energy_average_pmm(99.0, 1.0, 3, delays, ctx["pulse"], ctx["wp"],
                             ctx["finals"], ctx["mos"], resolution=21)
    assert [m.t_p_fs for m in avg] == list(delays)
    one = energy_average_pmm(99.0, 1.0, 3, delays[1], ctx["pulse"], ctx["wp"],
                             ctx["finals"], ctx["mos"], resolution=21)
    assert np.array_equal(one.values, avg[1].values)
    spectra = _spectrum(ctx, list(delays))
    assert [s.metadata["t_p_fs"] for s in spectra] == list(delays)
    assert np.array_equal(_spectrum(ctx, delays[1]).values, spectra[1].values)
    for bad in ([], [[0.0, 1.0]]):
        with pytest.raises(SignalError):
            _map(ctx, bad)


@pytest.mark.filterwarnings("error")
def test_non_finite_phase_rejected_before_any_work(ctx, monkeypatch):
    # E_I (t - t0) overflows at |t| = 1e308 fs: the delay is refused before
    # any channel, kernel or transform is built, and without a warning
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a non-finite phase")
    monkeypatch.setattr(signal, "build_channels", refuse)
    calls = [
        lambda t: _map(ctx, t),
        lambda t: energy_average_pmm(99.0, 1.0, 3, t, ctx["pulse"], ctx["wp"],
                                     ctx["finals"], ctx["mos"], resolution=21),
        lambda t: _spectrum(ctx, t),
        lambda t: probability([0.4, -1.1, 2.4], t, ctx["pulse"], ctx["wp"],
                              ctx["finals"], ctx["mos"]),
    ]
    for bad in (1e308, [0.0, -1e308], math.inf, math.nan):
        for call in calls:
            with pytest.raises(SignalError, match="non-finite wave-packet phase"):
                call(bad)


def test_long_mode_channel_record_holds_compared_value(ctx):
    # the record's envelope is the value the skip rule compares:
    # max_I W_II, i.e. max_I envelope_long^2 in long mode
    period = ctx["period"]
    pulse = dataclasses.replace(ctx["pulse"], duration_fwhm_fs=period / 2.0)
    threshold = 1e-2
    records = pmm_cut(97.7, 0.0, pulse, ctx["wp"], ctx["finals"], ctx["mos"],
                      resolution=11, mode="long",
                      channel_min_envelope=threshold).metadata["channels"]
    for rec in records:
        expected = max(envelope_long(pulse.photon_energy_ev, e_i,
                                     rec["final_energy_ev"], 97.7, period / 2.0) ** 2
                       for _, e_i, _ in ctx["wp"].members)
        assert rec["envelope"] == pytest.approx(expected, rel=1e-12)
        assert rec["skipped"] == (rec["envelope"] < threshold)
    first = records[0]
    assert first["index"] == 1 and first["envelope"] == pytest.approx(8.1e-3, rel=0.01)
    short = _map(ctx, 0.0, energy=97.7, resolution=11).metadata["channels"]
    for rec in short:
        assert rec["envelope"] == envelope_short(rec["omega_ev"], 97.7, 0.5)
