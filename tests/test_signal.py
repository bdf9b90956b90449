import cmath
import dataclasses
import math

import numpy as np
import pytest

from attopmm.algebra import (
    closed_shell_state,
    singlet_excitation_csf,
    state_overlap_map,
)
from attopmm.huckel import huckel_orbitals
from attopmm.model import HARTREE_EV, ElectronicState, ProbePulse, WavePacket, fs_to_au
from attopmm.momentum import gaussian_ft
from attopmm.signal import (
    PMM,
    SignalError,
    Spectrum,
    angle_integrated_spectrum,
    build_channels,
    energy_average_pmm,
    envelope_fwhm_ev,
    envelope_long,
    envelope_short,
    ground_state_scenario,
    pmm_cut,
    probability_long,
    probability_short,
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
    assert envelope_fwhm_ev(0.5) == pytest.approx(3.65, abs=0.01)
    assert envelope_fwhm_ev(0.5, level="amplitude") == pytest.approx(
        3.65 * math.sqrt(2.0), abs=0.02)
    # width at half maximum truly is the FWHM of the probability envelope
    w = envelope_fwhm_ev(0.5)
    assert envelope_short(99.0, 99.0 + w / 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)


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
    p = probability_short(qs, 0.0, ctx["pulse"], ctx["wp"], ctx["finals"],
                          ctx["mos"])
    assert np.allclose(p, 0.0, atol=1e-30)


def test_tilted_polarization_nodal_plane(ctx):
    # x-polarized probe: products of even/odd pi orbitals all vanish at q_x=0
    pulse = dataclasses.replace(ctx["pulse"], polarization=(1.0, 0.0, 0.0))
    qs = np.array([[0.0, 0.7, 1.9], [0.0, -1.2, 0.3]])
    p = probability_short(qs, 0.0, pulse, ctx["wp"], ctx["finals"],
                          ctx["mos"])
    assert np.allclose(p, 0.0, atol=1e-30)
    q_on = np.array([[0.8, 0.7, 1.9]])
    p_on = probability_short(q_on, 0.0, pulse, ctx["wp"], ctx["finals"],
                             ctx["mos"])
    assert p_on[0] > 0.0


def test_probability_even_in_qz(ctx):
    rng = np.random.default_rng(3)
    q = rng.uniform(-2.0, 2.0, size=(6, 3))
    mirrored = q * np.array([1.0, 1.0, -1.0])
    a = probability_short(q, 0.3, ctx["pulse"], ctx["wp"], ctx["finals"],
                          ctx["mos"])
    b = probability_short(mirrored, 0.3, ctx["pulse"], ctx["wp"], ctx["finals"],
                          ctx["mos"])
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_single_member_packet_time_independent(ctx):
    occ = sorted(mo.offset for mo in ctx["mos"] if mo.offset <= 0)
    state = ElectronicState(energy_ev=3.9, expansion=(
        (1.0, singlet_excitation_csf(occ, 0, 1)),))
    wp = WavePacket(members=((1.0 + 0.0j, 3.9, state),))
    q = np.array([[0.5, 0.9, 1.7], [-1.1, 0.2, 0.8]])
    a = probability_short(q, 0.0, ctx["pulse"], wp, ctx["finals"], ctx["mos"])
    b = probability_short(q, 1.234, ctx["pulse"], wp, ctx["finals"], ctx["mos"])
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

def _spectrum(ctx, t_p, energies=(94.0, 97.0, 99.0, 101.0), **kw):
    return angle_integrated_spectrum(np.array(energies), t_p, ctx["pulse"],
                                     ctx["wp"], ctx["finals"], ctx["mos"], **kw)


def test_spectrum_time_invariant(ctx):
    period = ctx["period"]
    ref = _spectrum(ctx, 0.0)
    for t_p in (period / 8.0, period / 4.0, 3.0 * period / 8.0):
        s = _spectrum(ctx, t_p)
        assert np.max(np.abs(s.values - ref.values)) < 1e-6 * ref.values.max()


def test_spectrum_quadrature_converged(ctx):
    coarse = _spectrum(ctx, 0.0)
    fine = _spectrum(ctx, 0.0, n_polar=96, n_azimuth=192)
    assert np.max(np.abs(coarse.values - fine.values)) < 1e-8 * fine.values.max()


def test_spectrum_input_validation(ctx):
    with pytest.raises(SignalError):
        _spectrum(ctx, 0.0, energies=(0.0, 99.0))
    with pytest.raises(SignalError):
        _spectrum(ctx, 0.0, energies=())


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
        assert len(ch.dyson.terms) == 1
        assert abs(ch.dyson.terms[0][0]) == pytest.approx(1.0, abs=1e-12)


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

def test_three_channel_manual_reconstruction(ctx):
    """probability_short rebuilt term by term for the one-hole channels.

    Restricts the finals to channels 1-3 and recomputes the signal from
    scratch: algebra-level overlap maps per wave-packet member, explicit
    C_I exp(-i E_I (t - t0)) phases, per-primitive Gaussian transforms,
    the Gaussian energy window, and the polarization projection. Nothing
    from the channel/amplitude assembly path is reused.
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
    got = probability_short(qs, t_p, pulse, wp, finals, ctx["mos"])

    def lcao_ft(offset, q):
        mo = mo_by_offset[offset]
        return sum(c * gaussian_ft(p, q)
                   for c, p in zip(mo.coefficients, mo.primitives))

    t_au = fs_to_au(t_p - wp.t0_fs)
    tau_au = fs_to_au(pulse.duration_fwhm_fs)
    manual = np.zeros(n_pts)
    for k, q in enumerate(qs):
        eps = 0.5 * float(q @ q) * HARTREE_EV
        proj = float(q @ np.asarray(pulse.polarization)) ** 2
        total = 0.0
        for index, state in finals:
            omega = pulse.photon_energy_ev + wp.mean_energy_ev - state.energy_ev
            delta = (eps - omega) / HARTREE_EV
            window = math.exp(-delta * delta * tau_au * tau_au
                              / (4.0 * math.log(2.0)))
            amp = {}
            for c_i, e_i, member in wp.members:
                phase = c_i * cmath.exp(-1j * (e_i / HARTREE_EV) * t_au)
                for (orb, spin), coeff in state_overlap_map(state, member).items():
                    amp[spin] = amp.get(spin, 0.0 + 0.0j) \
                        + phase * coeff * lcao_ft(orb, q)
            total += window * sum(abs(a) ** 2 for a in amp.values())
        manual[k] = proj * total
    assert np.max(np.abs(got - manual)) <= 1e-12 * got.max()
