import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from attopmm.algebra import closed_shell_state, singlet_excitation_csf
from attopmm import momentum, signal
from attopmm.cli import main
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
from attopmm.momentum import MomentumError, build_hemisphere, gaussian_ft
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
    with pytest.raises(SignalError):
        envelope_short(99.0, 99.0, 0.0)


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

    def lcao_ft(offset, q):
        mo = mo_by_offset[offset]
        return sum(c * gaussian_ft(p, q)
                   for c, p in zip(mo.coefficients, mo.primitives))

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
                        + phase * coeff * lcao_ft(orb, q)
            weight = window(eps - omega, 4.0) if mode == "short" else 1.0
            total += weight * sum(abs(a) ** 2 for a in amp.values())
        manual[k] = proj * total
    assert np.max(np.abs(got - manual)) <= 1e-12 * got.max()


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
                                        pulse, t, mode, skip=skip)
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
    grids = [build_hemisphere(e, 61, 61, avg[0].axis_x[-1]) for e in (98.5, 99.0, 99.5)]
    for t, m in zip(delays[:2], avg):
        ref = sum(np.where(g.valid, reference_probability(
            channels, ReferenceAmplitudes(channels, ctx["mos"], g), g.samples,
            ctx["wp"], pulse, t, mode), 0.0) for g in grids) / 3.0
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
    _, skips = signal._screen(channels, energies, pulse, wp, mode,
                              signal.DEFAULT_CHANNEL_MIN_ENVELOPE)
    for e, skip in zip(energies, skips):
        grid = build_hemisphere(e, resolution, resolution, q_max)
        kernel = signal._kernel(grid, basis, channels, matrices, skip, pulse, wp, mode)
        total = total + np.array(at_delays(kernel, wp, delays))
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
                                        pulse, t, mode, skip=skip)
            ref = np.where(grid.valid, ref, 0.0).reshape(grid.shape)
            assert ref.max() > 0
            assert np.max(np.abs(m.values - ref)) <= 1e-15 * ref.max(), (mode, t)


def test_map_memory_peak(ctx):
    # one 201^2 cut holds the (M, M, N) kernel, the raster and one block of
    # structure factors: 8.2 MB traced, against 10.4 MB when every energy
    # built its full (orbital, sample) transform
    _map(ctx, 0.0, resolution=11)
    tracemalloc.start()
    try:
        _map(ctx, 0.0, resolution=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0e6, peak


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
