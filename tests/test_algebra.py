import itertools
import math

import numpy as np
import pytest

from attopmm.algebra import (
    PRUNE_THRESHOLD,
    AlgebraError,
    closed_shell_state,
    dyson_matrices,
    member_pair_matrices,
    one_hole_csf,
    singlet_excitation_csf,
    two_hole_one_particle_csf,
)
from attopmm.model import (
    DOWN,
    UP,
    ConfigurationStateFunction,
    ElectronicState,
    ModelError,
    SlaterDeterminant,
    WavePacket,
    canonical_determinant,
)

from oracles import (
    annihilate,
    dense_annihilation_map,
    dense_one_particle_matrix,
    spin_orbital_basis,
)


def _det(*spin_orbitals):
    sign, det = canonical_determinant(spin_orbitals)
    assert sign == 1
    return det


def test_annihilate_basics():
    det = _det((0, UP), (0, DOWN), (1, UP))
    sign, out = annihilate(det, 0, UP)
    assert sign == 1 and out.spin_orbitals == ((0, DOWN), (1, UP))
    sign, out = annihilate(det, 0, DOWN)
    assert sign == -1 and out.spin_orbitals == ((0, UP), (1, UP))
    sign, out = annihilate(det, 1, UP)
    assert sign == 1 and out.spin_orbitals == ((0, UP), (0, DOWN))
    assert annihilate(det, 2, UP) is None


def test_annihilate_anticommutation():
    # a_i a_j = -a_j a_i on every 3-electron determinant over 3 orbitals
    orbitals = [(o, s) for o in range(3) for s in (UP, DOWN)]
    for occ in itertools.combinations(orbitals, 3):
        det = _det(*occ)
        for i, j in itertools.combinations(orbitals, 2):
            def apply2(first, second):
                hit = annihilate(det, *first)
                if hit is None:
                    return None
                s1, mid = hit
                hit2 = annihilate(mid, *second)
                if hit2 is None:
                    return None
                s2, out = hit2
                return s1 * s2, out
            ij = apply2(i, j)
            ji = apply2(j, i)
            if ij is None or ji is None:
                assert ij is None and ji is None
                continue
            assert ij[1] == ji[1]
            assert ij[0] == -ji[0]


def _csf_dot(a, b):
    ta = {d: c for c, d in a.expansion}
    return sum(c * ta.get(d, 0.0) for c, d in b.expansion)


def test_csf_constructors_normalized_and_orthogonal():
    occ = range(-2, 1)
    singlet = singlet_excitation_csf(occ, 0, 1)
    assert _csf_dot(singlet, singlet) == pytest.approx(1.0, abs=1e-14)
    hole = one_hole_csf(occ, 0)
    assert _csf_dot(hole, hole) == pytest.approx(1.0, abs=1e-14)
    udu = two_hole_one_particle_csf(occ, -1, 0, 1, coupling="udu")
    uud = two_hole_one_particle_csf(occ, -1, 0, 1, coupling="uud")
    assert _csf_dot(udu, udu) == pytest.approx(1.0, abs=1e-14)
    assert _csf_dot(uud, uud) == pytest.approx(1.0, abs=1e-14)
    assert _csf_dot(udu, uud) == pytest.approx(0.0, abs=1e-14)
    closed = two_hole_one_particle_csf(occ, 0, 0, 1)
    assert _csf_dot(closed, closed) == pytest.approx(1.0, abs=1e-14)


def test_two_hole_coupling_tag_required():
    occ = range(-2, 1)
    with pytest.raises(ModelError):
        two_hole_one_particle_csf(occ, -1, 0, 1)
    with pytest.raises(ModelError):
        two_hole_one_particle_csf(occ, 0, 0, 1, coupling="udu")


def _wrap(csf, energy=1.0):
    return ElectronicState(energy_ev=energy, expansion=((1.0, csf),))


def _packet(state):
    return WavePacket(((1.0, 0.0, state),))


def _channels(final, initial):
    """{(orbital, spin): <final| a_{orbital,spin} |initial>} of the nonzero
    dyson_matrices entries, initial wrapped as a one-member packet."""
    offsets, d = dyson_matrices([final], _packet(initial))
    return {(offsets[p], spin): c for (spin, p), c in np.ndenumerate(d[0, :, 0])
            if c != 0.0}


def test_overlap_requires_one_electron_difference():
    occ = range(-1, 1)
    with pytest.raises(AlgebraError):
        dyson_matrices([_wrap(singlet_excitation_csf(occ, 0, 1))],
                       _packet(_wrap(singlet_excitation_csf(occ, 0, 1))))


def _oracle_compare(final, initial, tol=1e-12):
    got = _channels(final, initial)
    want = dense_annihilation_map(final, initial)
    for so in spin_orbital_basis(final, initial):
        assert got.get(so, 0.0) == pytest.approx(want[so], abs=tol), so


def test_overlap_oracle_spot_checks():
    occ = range(-2, 1)
    finals = [
        _wrap(one_hole_csf(occ, 0)),
        _wrap(one_hole_csf(occ, -2)),
        _wrap(two_hole_one_particle_csf(occ, 0, 0, 1)),
        _wrap(two_hole_one_particle_csf(occ, -1, 0, 1, coupling="udu")),
        _wrap(two_hole_one_particle_csf(occ, -1, 0, 1, coupling="uud")),
        _wrap(two_hole_one_particle_csf(occ, -2, 0, 2, coupling="udu")),
    ]
    initials = [
        ElectronicState(energy_ev=0.0,
                        expansion=((1.0, closed_shell_state(occ)),)),
        _wrap(singlet_excitation_csf(occ, 0, 1)),
        _wrap(singlet_excitation_csf(occ, -2, 1)),
        ElectronicState(energy_ev=2.0, expansion=(
            (1 / math.sqrt(2), singlet_excitation_csf(occ, 0, 2)),
            (-1 / math.sqrt(2), singlet_excitation_csf(occ, -2, 1)),)),
    ]
    for final in finals:
        for initial in initials:
            _oracle_compare(final, initial)


def test_overlap_oracle_mixed_final_expansions():
    occ = range(-1, 1)
    final = ElectronicState(energy_ev=3.0, expansion=(
        (0.6, one_hole_csf(occ, 0)),
        (-0.5, two_hole_one_particle_csf(occ, -1, 0, 1, coupling="udu")),
        (0.3, two_hole_one_particle_csf(occ, -1, 0, 1, coupling="uud")),))
    initial = ElectronicState(energy_ev=1.0, expansion=(
        (0.8, singlet_excitation_csf(occ, 0, 1)),
        (0.6, singlet_excitation_csf(occ, -1, 2)),))
    _oracle_compare(final, initial)


def test_dyson_matrices_sorted_and_pruned():
    occ = range(-2, 1)
    final = _wrap(one_hole_csf(occ, 0))
    offsets, d = dyson_matrices([final], _packet(_wrap(singlet_excitation_csf(occ, 0, 1))))
    assert list(offsets) == sorted(set(offsets))
    assert np.all((d == 0.0) | (np.abs(d) >= PRUNE_THRESHOLD))
    rows = [(offsets[p], spin) for spin, p in zip(*np.nonzero(d[0, :, 0]))]
    assert sorted(rows) == [(1, DOWN)]


# --- published-coefficient regressions (frozen expected values) ----------

def _scenario_dyson(scenario):
    """(offsets, {final index: D[sigma, I, p]}) of the bundled packet."""
    offsets, d = dyson_matrices([state for _, state in scenario.finals],
                                scenario.wave_packet)
    return offsets, {idx: d[k] for k, (idx, _) in enumerate(scenario.finals)}


def _phased(wp, d, t_fs):
    """Dyson coefficients sum_I z_I(t) D[sigma, I, p], shape (2, n)."""
    z, = wp.phases([t_fs])
    return np.einsum("i,sip->sp", z, d)


EXPECTED_MAGNITUDES = {
    1: [0.95 / 2.0, 0.95 / (2.0 * math.sqrt(2.0))],
    2: [0.94 / (2.0 * math.sqrt(2.0))],
    3: [0.83 / 2.0],
}


def test_dyson_regression_published_channels(scenario):
    wp = scenario.wave_packet
    _, dyson = _scenario_dyson(scenario)
    for idx, d in dyson.items():
        if idx not in EXPECTED_MAGNITUDES:
            continue
        coeffs = _phased(wp, d, 0.0)
        got = sorted(abs(c) for c in coeffs[coeffs != 0.0])
        want = sorted(EXPECTED_MAGNITUDES[idx])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)


def test_dyson_channel_structure(scenario):
    wp = scenario.wave_packet
    # orbital offsets feeding each ionic channel, and which members couple
    offsets, dyson = _scenario_dyson(scenario)
    structure = {}
    for idx, d in dyson.items():
        spins, orbs = np.nonzero(_phased(wp, d, 0.0))
        orbs = tuple(sorted(offsets[p] for p in orbs))
        members = tuple(np.flatnonzero(np.any(d, axis=(0, 2))))
        spins = set(spins)
        assert spins <= {DOWN}  # M conservation: only down-spin removal
        structure[idx] = (orbs, members)
    assert structure == {
        1: ((1, 3), (0, 1)),   # L and L+2; both members -> time-dependent
        2: ((1,), (1,)),
        3: ((0,), (0,)),
        4: ((-1,), (0,)),
        5: ((-1,), (0,)),
        6: ((-2, 0), (0, 1)),  # second time-dependent channel
    }


def test_dyson_time_dependence_is_pure_phase(scenario):
    wp = scenario.wave_packet
    offsets, dyson = _scenario_dyson(scenario)
    d0 = _phased(wp, dyson[1], 0.0)
    d1 = _phased(wp, dyson[1], 1.3)
    mags0 = sorted(abs(c) for c in d0[d0 != 0.0])
    mags1 = sorted(abs(c) for c in d1[d1 != 0.0])
    assert len(mags0) == len(mags1)
    assert np.allclose(mags0, mags1, atol=1e-14)
    # but the relative phase between the two channels rotates
    l, l2 = offsets.index(1), offsets.index(3)
    rel0 = d0[DOWN, l2] / d0[DOWN, l]
    rel1 = d1[DOWN, l2] / d1[DOWN, l]
    assert abs(rel0 - rel1) > 1e-3


def test_dyson_electron_count_guard(scenario):
    with pytest.raises(AlgebraError):
        dyson_matrices(
            [ElectronicState(energy_ev=0.0, expansion=(
                (1.0, closed_shell_state(range(-10, 1))),))],
            scenario.wave_packet)


def test_overlap_oracle_full_sweep_small():
    # randomized CI vectors over a 3-orbital system, oracle at 1e-12
    rng = np.random.default_rng(17)
    occ = range(-1, 1)
    n_minus_1 = [
        one_hole_csf(occ, 0), one_hole_csf(occ, -1),
        two_hole_one_particle_csf(occ, 0, 0, 1),
        two_hole_one_particle_csf(occ, -1, -1, 1),
        two_hole_one_particle_csf(occ, -1, 0, 1, coupling="udu"),
        two_hole_one_particle_csf(occ, -1, 0, 1, coupling="uud"),
    ]
    n_full = [
        closed_shell_state(occ),
        singlet_excitation_csf(occ, 0, 1),
        singlet_excitation_csf(occ, -1, 1),
    ]
    for _ in range(20):
        cf = rng.normal(size=len(n_minus_1))
        cf /= np.linalg.norm(cf)
        ci = rng.normal(size=len(n_full))
        ci /= np.linalg.norm(ci)
        final = ElectronicState(energy_ev=1.0,
                                expansion=tuple(zip(cf, n_minus_1)))
        initial = ElectronicState(energy_ev=0.0,
                                  expansion=tuple(zip(ci, n_full)))
        _oracle_compare(final, initial)


def _compare_member_pair_matrices(wp, orbitals=()):
    offsets, g = member_pair_matrices(wp, orbitals)
    assert list(offsets) == sorted(set(offsets))
    assert set(orbitals) <= set(offsets)
    assert g.shape == (wp.n_members, wp.n_members, len(offsets), len(offsets))
    states = [state for _, _, state in wp.members]
    for i, j in np.ndindex(wp.n_members, wp.n_members):
        want = np.zeros((len(offsets), len(offsets)))
        for (p, q), amp in dense_one_particle_matrix(states[i], states[j]).items():
            want[offsets.index(p), offsets.index(q)] += amp
        assert np.max(np.abs(g[i, j] - want)) <= 1e-14, (i, j)
    return offsets, g


def test_member_pair_matrices_match_bitstring_oracle(scenario):
    offsets, g = _compare_member_pair_matrices(scenario.wave_packet)
    assert offsets == tuple(range(-10, 2)) + (3,)
    # diagonal member blocks hold the occupations: 22 electrons each
    for i in range(2):
        assert np.trace(g[i, i]) == pytest.approx(22.0, abs=1e-13)
    # an extra orbital no determinant occupies adds an empty row and column
    offsets, g = _compare_member_pair_matrices(scenario.wave_packet, (7,))
    assert offsets[-1] == 7 and not np.any(g[..., -1, :]) and not np.any(g[..., -1])


def _random_packets():
    # non-orthogonal members mixing the reference, singlet excitations and an
    # M_S = 1 triplet determinant, whose spin-flip overlaps must not count
    rng = np.random.default_rng(5)
    occ = (-1, 0)
    triplet = ConfigurationStateFunction(
        holes=(0,), particles=(1,),
        expansion=((1.0, _det((-1, UP), (-1, DOWN), (0, UP), (1, UP))),))
    csfs = [closed_shell_state(occ), singlet_excitation_csf(occ, 0, 1),
            singlet_excitation_csf(occ, -1, 1), singlet_excitation_csf(occ, 0, 2),
            singlet_excitation_csf(occ, -1, 2), triplet]
    for n_members in (1, 2, 3):
        members = []
        for k in range(n_members):
            ci = rng.normal(size=len(csfs))
            ci /= np.linalg.norm(ci)
            state = ElectronicState(energy_ev=1.0 + k, expansion=tuple(zip(ci, csfs)))
            members.append((1.0 / math.sqrt(n_members), 1.0 + k, state))
        yield WavePacket(members=tuple(members))


def test_member_pair_matrices_random_packets():
    for wp in _random_packets():
        _compare_member_pair_matrices(wp)


def _completeness_residual(wp):
    """max |sum_{F,sigma} conj(D[F,sigma,I,p]) D[F,sigma,J,q] - G[I,J,p,q]|
    over one single-determinant final state per N-1 electron determinant
    that removing one spin-orbital from a member determinant reaches."""
    reached = set()
    for _, _, state in wp.members:
        for _, csf in state.expansion:
            for _, det in csf.expansion:
                so = det.spin_orbitals
                reached.update(SlaterDeterminant(so[:k] + so[k + 1:])
                               for k in range(len(so)))
    finals = [ElectronicState(energy_ev=1.0, expansion=((1.0, ConfigurationStateFunction(
        holes=(), particles=(), expansion=((1.0, det),))),))
        for det in sorted(reached, key=lambda d: d.spin_orbitals)]
    offsets, d = dyson_matrices(finals, wp)
    g_offsets, g = member_pair_matrices(wp)
    assert offsets == g_offsets
    # every final state is reached, so none of its rows is empty
    assert np.all(np.any(d, axis=(1, 2, 3)))
    return np.max(np.abs(np.einsum("fsip,fsjq->ijpq", d.conj(), d) - g))


def test_dyson_completeness_relation(scenario):
    # summed over a complete set of N-1 electron final states, Dyson
    # coefficients give the member-pair density matrices: the Dyson and
    # density conventions of the annihilation table agree
    assert _completeness_residual(scenario.wave_packet) <= 1e-14
    for wp in _random_packets():
        assert _completeness_residual(wp) <= 1e-14
