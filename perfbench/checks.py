"""Correctness checks on artifacts read back from disk.

Every check names the items it covers; an item that fails any check, or
whose file could not be read, counts once in ``failed``.  Tolerances are the
ones the repository's tests use:

* maps: finite, >= 0, zero outside the kinematic disc; M(t + T/2) equals
  mirror_x M(t) to 1e-10 of the peak; all maps at one energy or pulse
  duration lie in span{1, cos wt, sin wt}, w = 2 pi / T, to 1e-10 of the peak;
* spectra: finite, >= 0; excited spectra at t and t + T/2 agree to 1e-6 of
  the peak; the ground-state (s0) spectra are identical;
* cubes: finite; net charge below 1e-8 e, both summed over the voxels and as
  stated in the comment line; frame(t + T/2) equals frame(t) reflected in x
  within the 9 significant digits of the cube format.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import SPECTRUM_STATES

MAP_PAIR_TOL = 1e-10
MAP_SPAN_TOL = 1e-10
SPECTRUM_PAIR_TOL = 1e-6
CHARGE_TOL_E = 1e-8
CUBE_REL_PRECISION = 0.5e-8   # "% .8E" keeps 9 significant digits


class _Report:
    def __init__(self):
        self.failed = set()
        self.residuals = {}

    def record(self, check, value, tol, covered):
        """Keep the worst value of each check; fail the covered items."""
        value = float(value) if np.isfinite(value) else math.inf
        self.residuals[check] = max(self.residuals.get(check, 0.0), value)
        ok = value <= tol
        if not ok:
            self.failed.update(covered)


def _maps(workload, loaded, period_fs, report):
    for f in workload.files:
        pmm = loaded.get(f)
        if pmm is None:
            continue
        values = pmm.values
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            report.failed.add(f)
            continue
        disc = pmm.metadata.get("q_disc_inv_angstrom", math.inf)
        r_sq = pmm.axis_x[:, None] ** 2 + pmm.axis_y[None, :] ** 2
        outside = r_sq > disc * disc * (1.0 + 1e-12)
        report.record("map_outside_disc_max", float(np.max(values[outside], initial=0.0)),
                      0.0, [f])
    for a, b in _pairs(workload, loaded, report):
        peak = float(np.max(loaded[a].values))
        dev = float(np.max(np.abs(loaded[b].values - loaded[a].values[::-1, :])))
        report.record("map_pair_mirror", dev / peak, MAP_PAIR_TOL, [a, b])
    omega = 2.0 * math.pi / period_fs
    for group in workload.groups:
        if any(loaded.get(f) is None for f in group):
            report.failed.update(group)
            continue
        t = np.array([loaded[f].t_p_fs for f in group])
        y = np.stack([loaded[f].values.ravel() for f in group])
        basis = np.stack([np.ones_like(t), np.cos(omega * t), np.sin(omega * t)], axis=1)
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        dev = float(np.max(np.abs(y - basis @ coef)))
        report.record("map_beat_span", dev / float(np.max(y)), MAP_SPAN_TOL, group)


def _spectra(workload, loaded, report):
    columns = {}
    for f in workload.files:
        by_state = {s.scenario: s.values for s in loaded.get(f) or ()}
        for state in SPECTRUM_STATES:
            item = f"{f}:{state}"
            values = by_state.get(state)
            if values is None or not np.all(np.isfinite(values)) or np.any(values < 0):
                report.failed.add(item)
            else:
                columns[item] = values
    for a, b in workload.pairs:
        ex_a, ex_b = f"{a}:excited", f"{b}:excited"
        if ex_a in columns and ex_b in columns:
            dev = float(np.max(np.abs(columns[ex_a] - columns[ex_b])))
            peak = float(np.max(columns[ex_a]))
            report.record("spectrum_excited_pair", dev / peak,
                          SPECTRUM_PAIR_TOL, [ex_a, ex_b])
        s0_a, s0_b = f"{a}:s0", f"{b}:s0"
        if s0_a in columns and s0_b in columns:
            same = np.array_equal(columns[s0_a], columns[s0_b])
            report.record("spectrum_s0_differs", 0.0 if same else 1.0, 0.0,
                          [s0_a, s0_b])


def _pairs(workload, loaded, report):
    """Pairs with both files read; a pair missing one fails both items."""
    for a, b in workload.pairs:
        if loaded.get(a) is None or loaded.get(b) is None:
            report.failed.update((a, b))
        else:
            yield a, b


_STATED = re.compile(r"gained=(\S+) lost=(\S+)")


def _cubes(workload, loaded, report):
    for f in workload.files:
        if loaded.get(f) is None:
            continue
        grid, _, comments = loaded[f]
        values = grid.values
        if not np.all(np.isfinite(values)):
            report.failed.add(f)
            continue
        report.record("cube_voxel_net_charge_e",
                      abs(float(values.sum()) * grid.voxel_volume), CHARGE_TOL_E, [f])
        stated = _STATED.search(comments[1])
        net = abs(float(stated.group(1)) + float(stated.group(2))) if stated else math.inf
        report.record("cube_stated_net_charge_e", net, CHARGE_TOL_E, [f])
    for a, b in _pairs(workload, loaded, report):
        va, vb = loaded[a][0].values, loaded[b][0].values
        mirrored = va[::-1, :, :]
        scale = float(np.max(np.abs(va)))
        allowed = CUBE_REL_PRECISION * (np.abs(vb) + np.abs(mirrored)) + 1e-12 * scale
        excess = float(np.max(np.abs(vb - mirrored) - allowed))
        report.record("cube_pair_mirror_excess", max(excess, 0.0) / scale, 0.0, [a, b])


def check(workload, loaded, period_fs):
    """-> (sorted failed item ids, worst residual per check).

    loaded maps each file of the workload to what its reader returned, or
    to None when reading failed; every item of such a file fails, and so do
    the items it is compared with.
    """
    report = _Report()
    report.failed.update(i for i in workload.items
                         if loaded.get(i.split(":")[0]) is None)
    if workload.kind == "maps":
        _maps(workload, loaded, period_fs, report)
    elif workload.kind == "spectra":
        _spectra(workload, loaded, report)
    else:
        _cubes(workload, loaded, report)
    return sorted(report.failed), report.residuals
