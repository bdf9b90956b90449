"""Seeded workload definitions.

Each workload is one ``attopmm`` command line.  The seed draws the probe
delays and photoelectron energies; the program sees only the generated
argv.  Delays are written as fractions of the beat period T and always come
in pairs (t, t + T/2), so the pair and span checks apply to every seed.

A workload also describes what it writes: the artifact files (relative to
``--out``), the items the checks count, and how the artifacts relate (pairs,
groups sharing one energy or pulse duration).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# energies are drawn on a 0.1 eV grid inside [95, 99.5] eV
_ENERGY_TENTHS = range(950, 996)
# pair start fractions of T on a 0.001 grid inside [0, 0.5)
_FRACTION_THOUSANDTHS = range(0, 500)
SPECTRUM_STATES = ("excited", "s0")


@dataclass(frozen=True)
class Workload:
    """One generated command line and the artifacts it must write.

    kind: "maps", "spectra" or "cubes" (selects the reader and the checks).
    files: artifact paths relative to the --out directory, in write order.
    pairs: (file at t, file at t + T/2).
    groups: files that share one energy or pulse duration (maps only).
    """

    name: str
    seed: int
    argv: tuple
    kind: str
    files: tuple
    pairs: tuple
    groups: tuple

    @property
    def items(self):
        """Item ids the checks count: one per map, spectrum column or cube."""
        if self.kind == "spectra":
            return [f"{f}:{s}" for f in self.files for s in SPECTRUM_STATES]
        return list(self.files)

    def command(self, out_dir):
        return list(self.argv) + ["--out", str(out_dir)]


def _time_label(token):
    # same tag attopmm.cli.time_label gives a non-numeric token
    return token.replace("/", "").replace("*", "x")


def _delay_pairs(rng, n_pairs):
    starts = sorted(rng.sample(_FRACTION_THOUSANDTHS, n_pairs))
    return [(f"{a / 1000:.3f}T", f"{a / 1000 + 0.5:.3f}T") for a in starts]


def _energies(rng, n):
    return [f"{e / 10:.1f}" for e in sorted(rng.sample(_ENERGY_TENTHS, n))]


def _flat(pairs):
    return [tok for pair in pairs for tok in pair]


def pmm_delay_scan(seed):
    rng = random.Random(f"pmm-delay-scan:{seed}")
    energies = _energies(rng, 2)
    pairs = _delay_pairs(rng, 2)
    argv = ("pmm", "--energy", *energies, "--tp", *_flat(pairs),
            "--threads", "1")

    def name(e, tok):
        return f"pmm_e{float(e):g}_tp{_time_label(tok)}.dat"

    files = tuple(name(e, tok) for e in energies for tok in _flat(pairs))
    return Workload(
        name="pmm-delay-scan", seed=seed, argv=argv, kind="maps", files=files,
        pairs=tuple((name(e, a), name(e, b)) for e in energies for a, b in pairs),
        groups=tuple(tuple(name(e, tok) for tok in _flat(pairs))
                     for e in energies))


PULSE_DURATIONS = ("T/2",)


def pmm_energy_average(seed):
    rng = random.Random(f"pmm-energy-average:{seed}")
    (energy,) = _energies(rng, 1)
    pairs = _delay_pairs(rng, 2)
    argv = ("reproduce-figure", "fig6", "--energy", energy,
            "--tp", *_flat(pairs), "--tau", *PULSE_DURATIONS, "--threads", "2")

    def name(tau, tok):
        return f"fig6/pmm_tau{_time_label(tau)}_tp{_time_label(tok)}.dat"

    files = tuple(name(tau, tok) for tau in PULSE_DURATIONS for tok in _flat(pairs))
    return Workload(
        name="pmm-energy-average", seed=seed, argv=argv, kind="maps",
        files=files,
        pairs=tuple((name(tau, a), name(tau, b))
                    for tau in PULSE_DURATIONS for a, b in pairs),
        groups=tuple(tuple(name(tau, tok) for tok in _flat(pairs))
                     for tau in PULSE_DURATIONS))


SPECTRUM_WINDOW = ("85", "105", "67")


def spectrum_window(seed):
    rng = random.Random(f"spectrum-window:{seed}")
    ((t1, t2),) = _delay_pairs(rng, 1)
    argv = ("spectrum", "--tp", t1, t2, "--states", "both",
            "--window", *SPECTRUM_WINDOW)
    files = tuple(f"spectrum_tp{_time_label(t)}.dat" for t in (t1, t2))
    return Workload(name="spectrum-window", seed=seed, argv=argv,
                    kind="spectra", files=files, pairs=(files,), groups=())


def density_cubes(seed):
    rng = random.Random(f"density-cubes:{seed}")
    pairs = _delay_pairs(rng, 1)
    argv = ("density", "--tp", *_flat(pairs))

    def name(tok):
        return f"density_tp{_time_label(tok)}.cube"

    return Workload(
        name="density-cubes", seed=seed, argv=argv, kind="cubes",
        files=tuple(name(tok) for tok in _flat(pairs)),
        pairs=tuple((name(a), name(b)) for a, b in pairs), groups=())


BY_NAME = {
    "pmm-delay-scan": pmm_delay_scan,
    "pmm-energy-average": pmm_energy_average,
    "spectrum-window": spectrum_window,
    "density-cubes": density_cubes,
}


def build(name, seed):
    return BY_NAME[name](int(seed))
