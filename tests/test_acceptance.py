"""End-to-end checks of the shipped pentacene scenario.

Each test prints one `[acceptance] name: OUTCOME` line (see conftest) and
enforces its stated runtime budget. Where a check compares against a
symmetry or an energy window, the relation is the one the model's physics
implies: the half-period map relation is a mirror along the first momentum
axis (the member cross term is odd under that mirror and even under the
in-plane C2 rotation), and the closed-shell spectral window follows from the
Gaussian time-bandwidth product of the probe.
"""

import dataclasses
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from attopmm.algebra import (
    closed_shell_state,
    dyson_matrices,
    one_hole_csf,
    singlet_excitation_csf,
    two_hole_one_particle_csf,
)
from attopmm.cli import main
from attopmm.density import default_density_grid, density_timeseries
from attopmm.model import (
    ElectronicState,
    GaussianPrimitive,
    WavePacket,
    evaluate_orbital,
    ev_to_hartree,
    inv_angstrom_to_au,
)
from attopmm.signal import (
    angle_integrated_spectrum,
    energy_average_pmm,
    ground_state_scenario,
    pmm_cut,
)

from oracles import (
    dense_annihilation_map,
    gaussian_ft,
    quadrature_ft,
    spin_orbital_basis,
)


HBAR_EV_FS = 0.6582119569  # reduced Planck constant, eV fs (CODATA 2018)


def _budget(t0, limit_s, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"{label} took {elapsed:.1f} s (budget {limit_s} s)"


# --- 1. published Dyson coefficient magnitudes -------------------------------

def test_dyson_regression(scenario):
    t0 = time.perf_counter()
    c1 = c2 = 1.0 / math.sqrt(2.0)
    expected = {
        1: sorted((0.95 / math.sqrt(2.0) * c1, 0.95 / 2.0 * c2)),
        2: [0.94 / 2.0 * c2],
        3: [0.83 / math.sqrt(2.0) * c1],
    }
    wp = scenario.wave_packet
    _, dyson = dyson_matrices([state for _, state in scenario.finals], wp)
    rows = {index: k for k, (index, _) in enumerate(scenario.finals)}
    weights = [c for c, _, _ in wp.members]  # member phases at t0 = 0
    for index, want in expected.items():
        coeffs = np.einsum("i,sip->sp", weights, dyson[rows[index]])
        got = sorted(abs(c) for c in coeffs[coeffs != 0.0])
        assert len(got) == len(want), f"channel {index}"
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12, f"channel {index}: {g} vs {w}"
    _budget(t0, 1.0, "dyson regression")


# --- 2. second-quantization algebra vs dense brute force ---------------------

def _all_even_csfs(orbitals):
    out = []
    for r in (1, 2):
        for occ in itertools.combinations(orbitals, r):
            occ = list(occ)
            virt = [o for o in orbitals if o not in occ]
            out.append(closed_shell_state(occ))
            for h in occ:
                for p in virt:
                    out.append(singlet_excitation_csf(occ, h, p))
    return out


def _all_odd_csfs(orbitals):
    out = []
    for r in (1, 2):
        for occ in itertools.combinations(orbitals, r):
            occ = list(occ)
            virt = [o for o in orbitals if o not in occ]
            for h in occ:
                out.append(one_hole_csf(occ, h))
            for h1, h2 in itertools.combinations_with_replacement(occ, 2):
                for p in virt:
                    if h1 == h2:
                        out.append(two_hole_one_particle_csf(occ, h1, h2, p))
                    else:
                        for tag in ("udu", "uud"):
                            out.append(two_hole_one_particle_csf(
                                occ, h1, h2, p, coupling=tag))
    return out


def _wrap(csf, energy=1.0):
    return ElectronicState(energy_ev=energy, expansion=((1.0, csf),))


def _channel_maps(finals, initial):
    """Per final state {(orbital, spin): <final| a_{orbital,spin} |initial>}
    from one dyson_matrices call, initial wrapped as a one-member packet."""
    offsets, d = dyson_matrices(finals, WavePacket(((1.0, 0.0, initial),)))
    return [{(offsets[p], spin): c for (spin, p), c in np.ndenumerate(df[:, 0])}
            for df in d]


def test_algebra_oracle_full_sweep():
    # every CSF the library can build on <= 4 spatial orbitals
    # (8 spin-orbitals) with <= 4 electrons, all (final, initial) pairings
    t0 = time.perf_counter()
    orbitals = range(4)
    evens = _all_even_csfs(orbitals)
    odds = _all_odd_csfs(orbitals)
    checked = 0
    for initial_csf in evens:
        initial = _wrap(initial_csf, energy=0.0)
        final_csfs = [c for c in odds if c.n_electrons == initial_csf.n_electrons - 1]
        finals = [_wrap(c) for c in final_csfs]
        for final_csf, final, got in zip(final_csfs, finals,
                                         _channel_maps(finals, initial)):
            want = dense_annihilation_map(final, initial)
            for so in spin_orbital_basis(final, initial):
                assert abs(got.get(so, 0.0) - want[so]) < 1e-12, \
                    (final_csf, initial_csf, so)
            checked += 1
    assert checked == 2056
    # randomized CI mixtures over the same spaces
    rng = np.random.default_rng(23)
    evens4 = [c for c in evens if c.n_electrons == 4]
    odds3 = [c for c in odds if c.n_electrons == 3]
    for _ in range(20):
        ci = rng.normal(size=4)
        ci /= np.linalg.norm(ci)
        cf = rng.normal(size=4)
        cf /= np.linalg.norm(cf)
        initial = ElectronicState(energy_ev=0.0, expansion=tuple(
            (c, evens4[k]) for c, k in zip(ci, rng.choice(len(evens4), 4,
                                                          replace=False))))
        final = ElectronicState(energy_ev=1.0, expansion=tuple(
            (c, odds3[k]) for c, k in zip(cf, rng.choice(len(odds3), 4,
                                                         replace=False))))
        want = dense_annihilation_map(final, initial)
        (got,) = _channel_maps([final], initial)
        for so in spin_orbital_basis(final, initial):
            assert abs(got.get(so, 0.0) - want[so]) < 1e-12
    _budget(t0, 30.0, "algebra oracle sweep")


# --- 3. closed-form Gaussian transform vs quadrature --------------------------

def test_transform_oracle_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        prim = GaussianPrimitive(
            center=rng.uniform(-2.0, 2.0, size=3),
            exponent=rng.uniform(0.3, 3.0),
            powers=tuple(rng.integers(0, 3, size=3)))
        q = rng.uniform(-3.0, 3.0, size=3)
        closed = gaussian_ft(prim, q)
        quad = quadrature_ft(prim, q)
        rel = abs(closed - quad) / max(abs(closed), abs(quad))
        worst = max(worst, rel)
        assert rel < 1e-6, (prim, q, rel)
    assert worst > 0.0  # the comparison actually exercised nonzero values
    _budget(t0, 60.0, "transform oracle")


# --- 4. constant-energy map symmetries at 99 eV: half-period mirror -----------

def test_momentum_map_symmetries(scenario):
    t0 = time.perf_counter()
    period = scenario.period_fs
    kw = dict(resolution=201)

    def cut(t_fs):
        return pmm_cut(99.0, t_fs, scenario.pulse, scenario.wave_packet,
                       scenario.finals, scenario.mos, **kw).values

    m0 = cut(0.0)
    m_half = cut(period / 2.0)
    scale = m0.max()
    failures = []

    # clause 1: the member cross term is odd under mirror_x and even under
    # the in-plane C2 rotation, so the half-period map is the mirror_x image
    # of the t=0 map and each map is point-symmetric by itself
    mirror = np.max(np.abs(m_half - m0[::-1, :])) / scale
    if mirror > 1e-8:
        failures.append(f"mirror_x(M(0)) vs M(T/2): relative deviation "
                        f"{mirror:.2e} (tolerance 1e-08)")
    for label, m in (("M(0)", m0), ("M(T/2)", m_half)):
        point = np.max(np.abs(m - m[::-1, ::-1])) / scale
        if point > 1e-8:
            failures.append(f"point symmetry of {label}: relative deviation "
                            f"{point:.2e} (tolerance 1e-08)")

    # clause 2: quarter-period pair
    quarter = np.max(np.abs(cut(period / 4.0) - cut(3 * period / 4.0))) / scale
    if quarter > 1e-10:
        failures.append(f"T/4 vs 3T/4: relative deviation {quarter:.2e} "
                        "(tolerance 1e-10)")

    # clause 3: periodicity
    worst_periodic = 0.0
    for t in (0.0, 0.37, period / 3.0):
        worst_periodic = max(worst_periodic,
                             np.max(np.abs(cut(t) - cut(t + period))) / scale)
    if worst_periodic > 1e-10:
        failures.append(f"periodicity: relative deviation {worst_periodic:.2e} "
                        "(tolerance 1e-10)")

    _budget(t0, 120.0, "map symmetries")
    assert not failures, "\n".join(failures)


# --- 5. angle-integrated spectrum ignores the probe time ----------------------

def test_spectrum_time_invariance(scenario):
    t0 = time.perf_counter()
    lo, hi, n = scenario.outputs["spectrum_window_ev"]
    energies = np.linspace(float(lo), float(hi), int(n))
    period = scenario.period_fs
    kw = dict()
    ref = angle_integrated_spectrum(energies, 0.0, scenario.pulse,
                                    scenario.wave_packet, scenario.finals,
                                    scenario.mos, **kw)
    worst = 0.0
    for t_p in (period / 8.0, period / 4.0, 3.0 * period / 8.0):
        s = angle_integrated_spectrum(energies, t_p, scenario.pulse,
                                      scenario.wave_packet, scenario.finals,
                                      scenario.mos, **kw)
        worst = max(worst, np.max(np.abs(s.values - ref.values))
                    / ref.values.max())
    assert worst < 1e-6, f"spectrum varies by {worst:.2e} across probe times"
    _budget(t0, 120.0, "spectrum invariance")


# --- 6. ground-state spectrum beyond its time-bandwidth edge -----------------

def test_ground_state_window(scenario):
    t0 = time.perf_counter()
    wp0, finals0 = ground_state_scenario(scenario.mos,
                                         scenario.binding_energies_ev)
    lo, hi, n = scenario.outputs["spectrum_window_ev"]
    energies = np.linspace(float(lo), float(hi), int(n))
    s = angle_integrated_spectrum(energies, 0.0, scenario.pulse, wp0, finals0,
                                  scenario.mos,
                                  scenario="s0")
    # each channel line has the probability-level envelope
    # exp(-4 ln2 (eps - eps_F)^2 / W^2) with W = 4 ln2 hbar / tau; beyond
    # eps_edge the outermost line has fallen below 1% of its own height
    pulse = scenario.pulse
    width = 4.0 * math.log(2.0) * HBAR_EV_FS / pulse.duration_fwhm_fs
    binding = sorted(scenario.binding_energies_ev.values())
    outermost = pulse.photon_energy_ev - binding[0]
    edge = outermost + width * math.sqrt(math.log(100.0) / (4.0 * math.log(2.0)))
    peak = s.values.max()
    peak_ev = energies[int(np.argmax(s.values))]
    above = s.values[energies > edge]
    ratio = above.max() / peak
    _budget(t0, 60.0, "ground-state window")
    assert ratio < 0.01, (
        f"closed-shell signal above {edge:.2f} eV reaches {ratio:.4f} of the "
        f"peak (threshold 0.01; peak at {peak_ev:.2f} eV). Binding energies "
        f"{binding} eV, photon {pulse.photon_energy_ev} eV, "
        f"{pulse.duration_fwhm_fs} fs pulse: window FWHM {width:.3f} eV, "
        f"outermost line at {outermost:.2f} eV.")


# --- 7. locations of the strongest beat features -------------------------------

def test_oscillation_peak_positions(scenario):
    t0 = time.perf_counter()
    period = scenario.period_fs
    kw = dict(resolution=201)
    m0 = pmm_cut(99.0, 0.0, scenario.pulse, scenario.wave_packet,
                 scenario.finals, scenario.mos, **kw)
    mh = pmm_cut(99.0, period / 2.0, scenario.pulse, scenario.wave_packet,
                 scenario.finals, scenario.mos, **kw)
    beat = np.abs(m0.values - mh.values)
    ax_x, ax_y = m0.axis_x, m0.axis_y
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            sel_x = sx * ax_x > 0.0
            sel_y = sy * ax_y > 0.0
            quadrant = beat[np.ix_(sel_x, sel_y)]
            i, j = np.unravel_index(np.argmax(quadrant), quadrant.shape)
            qx = ax_x[sel_x][i]
            qy = ax_y[sel_y][j]
            assert abs(qx - sx * 1.26) <= 0.25, (sx, sy, qx, qy)
            assert abs(qy - sy * 1.97) <= 0.25, (sx, sy, qx, qy)
    _budget(t0, 120.0, "peak positions")


# --- 8. pulse-duration limits ---------------------------------------------------

def _unit_l2_difference(a, b):
    return np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))


def test_broadening_limits(scenario):
    t0 = time.perf_counter()
    period = scenario.period_fs
    # broadband limit: per-channel envelopes collapse onto the common window
    short_pulse = dataclasses.replace(scenario.pulse, duration_fwhm_fs=0.1)
    kw = dict(resolution=201)
    a = pmm_cut(99.0, 0.4, short_pulse, scenario.wave_packet, scenario.finals,
                scenario.mos, mode="short", **kw)
    b = pmm_cut(99.0, 0.4, short_pulse, scenario.wave_packet, scenario.finals,
                scenario.mos, mode="long", **kw)
    broadband = _unit_l2_difference(a.values, b.values)
    assert broadband < 0.01, f"normalized L2 difference {broadband:.4f}"

    # narrowband limit: half the beat period plus 1 eV energy averaging must
    # still leave the two extreme probe times clearly distinguishable
    long_pulse = dataclasses.replace(scenario.pulse,
                                     duration_fwhm_fs=period / 2.0)
    n_avg = scenario.outputs["average_samples"]
    width = scenario.outputs["average_width_ev"]
    m0 = energy_average_pmm(99.0, width, n_avg, 0.0, long_pulse,
                            scenario.wave_packet, scenario.finals,
                            scenario.mos, mode="long", **kw)
    mh = energy_average_pmm(99.0, width, n_avg, period / 2.0, long_pulse,
                            scenario.wave_packet, scenario.finals,
                            scenario.mos, mode="long", **kw)
    contrast = _unit_l2_difference(m0.values, mh.values)
    assert contrast > 0.1, f"normalized L2 difference {contrast:.4f}"
    _budget(t0, 300.0, "broadening limits")


# --- 9. density-change properties ------------------------------------------------

def test_density_properties(scenario):
    t0 = time.perf_counter()
    grid = default_density_grid(
        scenario.mos, scenario.outputs["density_padding_angstrom"],
        scenario.outputs["density_spacing_angstrom"])
    period = scenario.period_fs

    times = [0.0, period / 8.0, period / 4.0, 0.37 * period, period / 2.0,
             3.0 * period / 4.0, 0.91 * period]
    *series, later = density_timeseries(scenario.wave_packet, scenario.mos, grid,
                                        times + [0.37 * period + period])
    frames = dict(zip(times, series))
    for t, frame in frames.items():
        assert abs(frame.net_charge) < 1e-8, (t, frame.net_charge)

    scale = np.max(np.abs(frames[0.0].grid.values))
    periodic = np.max(np.abs(later.grid.values
                             - frames[0.37 * period].grid.values)) / scale
    assert periodic < 1e-12, f"period deviation {periodic:.2e}"

    v0 = frames[0.0].grid.values
    vh = frames[period / 2.0].grid.values
    mirror = np.max(np.abs(vh - v0[::-1, :, :])) / scale
    assert mirror < 1e-10, f"half-period x-reflection deviation {mirror:.2e}"

    quarters = np.max(np.abs(frames[period / 4.0].grid.values
                             - frames[3.0 * period / 4.0].grid.values)) / scale
    assert quarters < 1e-12, f"T/4 vs 3T/4 deviation {quarters:.2e}"
    _budget(t0, 120.0, "density properties")


# --- 10. maps and spectra close on the sphere -------------------------------------

@pytest.fixture(scope="module")
def cube_mos(scenario):
    """The bundled orbitals as 0.5 Angstrom cubes (grid-backed orbitals)."""
    grid = default_density_grid(scenario.mos, spacing_angstrom=0.5)
    return [dataclasses.replace(mo, coefficients=None, primitives=None,
                                grid=grid.with_values(evaluate_orbital(mo, grid)))
            for mo in scenario.mos]


@pytest.mark.parametrize("basis, mode", [("lcao", "short"), ("lcao", "long"),
                                         ("cube", "short"), ("cube", "long")],
                         ids=["short", "long", "cube-short", "cube-long"])
def test_map_spectrum_closure(scenario, request, basis, mode):
    # the map kernel and the closed-form spectrum share only the Dyson
    # matrices and the pair weights. A planar pi system is even under its
    # molecular plane, so the sphere holds twice the hemisphere, and with
    # dOmega = dq_x dq_y / (q q_z) the spectrum S = q Integral P dOmega is
    # 2 sum_raster P / q_z dq_x dq_y in atomic units. Cube orbitals take the
    # numeric transform on the raster and on the sphere quadrature instead
    mos = scenario.mos if basis == "lcao" else request.getfixturevalue("cube_mos")
    t0 = time.perf_counter()
    period = scenario.period_fs
    pulse = scenario.pulse
    if mode == "long":
        pulse = dataclasses.replace(pulse, duration_fwhm_fs=period / 2.0)
    delays = [0.0, period / 4.0]
    worst = 0.0
    for energy in (95.6, 99.0):
        maps = pmm_cut(energy, delays, pulse, scenario.wave_packet, scenario.finals,
                       mos, resolution=201, mode=mode)
        spectra = angle_integrated_spectrum([energy], delays, pulse, scenario.wave_packet,
                                            scenario.finals, mos, mode=mode)
        for m, s in zip(maps, spectra):
            qx, qy = inv_angstrom_to_au(m.axis_x), inv_angstrom_to_au(m.axis_y)
            qz_sq = 2.0 * ev_to_hartree(energy) - qx[:, None] ** 2 - qy[None, :] ** 2
            inside = qz_sq > 0.0
            assert not m.values[~inside].any()
            hemisphere = np.sum(m.values[inside] / np.sqrt(qz_sq[inside]))
            closed = 2.0 * hemisphere * (qx[1] - qx[0]) * (qy[1] - qy[0])
            worst = max(worst, abs(closed - s.values[0]) / s.values[0])
    assert worst <= 1e-6, f"map-spectrum closure residual {worst:.2e} (tolerance 1e-06)"
    _budget(t0, 30.0, "map-spectrum closure")


# --- 11. artifact determinism across runs and thread counts -----------------------

def _run_target(target, extra, out_dir):
    assert main(["reproduce-figure", target, "--out", str(out_dir)]
                + extra) == 0
    digest = {}
    for path in sorted((out_dir / target).iterdir()):
        digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest
    return digest


@pytest.mark.parametrize("target,extra", [
    ("fig2", []),
    ("fig3", []),
    ("fig4", ["--grid", "41"]),
    ("fig5", ["--grid", "41"]),
    ("fig6", ["--grid", "41"]),
], ids=["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_figure_target_determinism(target, extra, tmp_path):
    runs = {}
    for tag, threads in (("t1", 1), ("t1-repeat", 1), ("t4", 4), ("t8", 8)):
        out = tmp_path / tag
        runs[tag] = _run_target(target, extra + ["--threads", str(threads)],
                                out)
    assert runs["t1"] == runs["t1-repeat"] == runs["t4"] == runs["t8"]
