"""Spans around public attributes of the attopmm modules.

The benchmark installs these wrappers in the traced run only, from its own
files: nothing under ``src/`` knows about them.  A span records name, start,
end, parent span and a small note (a work count taken from the call's
arguments or result).  Spans stay in memory until ``dump`` writes the tree.

A span's self time is its duration minus the durations of its children;
``layer_self_s`` sums self time per layer (the part of the name before the
first dot), so over the spans under one root the layers add up to the root.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

MIB = float(1 << 20)
LAYERS = ("io", "huckel", "algebra", "momentum", "signal", "density", "cli")


def _wrap_table(cli, io, signal, momentum, density):
    """(owner, attribute, span name, note(args, kwargs, result))."""
    written = lambda a, k, r: os.path.getsize(r)  # noqa: E731 - writers return the path
    read = lambda a, k, r: os.path.getsize(a[0])  # noqa: E731
    hashed = {}   # id -> (object, hash): each distinct object is hashed once

    def value_hash(obj):
        entry = hashed.get(id(obj))
        if entry is None:
            entry = hashed[id(obj)] = (obj, hash(obj))
        return entry[1]

    return [
        (cli, "main", "cli.main", None),
        (io, "load_scenario", "io.load_scenario", None),
        (io, "huckel_orbitals", "huckel.orbitals", None),
        (io, "export_pmm", "io.export_pmm", written),
        (io, "export_spectra", "io.export_spectra", written),
        (io, "export_density", "io.export_density", written),
        (io, "write_cube", "io.write_cube", written),
        (io, "read_pmm", "io.read_pmm", read),
        (io, "read_spectra", "io.read_spectra", read),
        (io, "read_cube", "io.read_cube", read),
        # distinct (final state, wave packet) pairs; the time is ignored
        (signal, "assemble_dyson", "algebra.dyson",
         lambda a, k, r: hash((value_hash(a[0]), value_hash(a[1])))),
        (signal, "build_hemisphere", "momentum.grid", lambda a, k, r: r.n_samples),
        (signal, "build_sphere", "momentum.grid", lambda a, k, r: r.n_samples),
        # Gaussian primitives evaluated: samples x primitives of the orbital
        (momentum, "orbital_ft", "momentum.orbital_ft",
         lambda a, k, r: a[1].n_samples * len(a[0].primitives or ())),
        (getattr(momentum, "TransformCache", None), "get", "momentum.cache_get",
         lambda a, k, r: r.values.nbytes),
        (signal, "pmm_cut", "signal.pmm_cut",
         lambda a, k, r: [sum(not c["skipped"] for c in r.metadata["channels"]),
                          len(r.metadata["channels"])]),
        (signal, "energy_average_pmm", "signal.energy_average_pmm", None),
        (signal, "angle_integrated_spectrum", "signal.angle_integrated_spectrum", None),
        (density, "evaluate_orbital", "density.evaluate_orbital",
         lambda a, k, r: int(getattr(r, "size", 1))),
        (getattr(density, "TwoStateDensity", None), "frame", "density.frame", None),
        (density, "density_timeseries", "density.timeseries", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, note]
        self.missing = []    # attributes or notes the program no longer supports
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, note=None):
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{name} ({attr})")
            return
        spans, stack_of, clock, missing = self.spans, self._stack, time.perf_counter, self.missing

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                try:
                    span[4] = note(args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the run
                    reason = f"{name} note ({type(exc).__name__}: {exc})"
                    if reason not in missing:
                        missing.append(reason)
            return result

        setattr(owner, attr, traced)

    def install(self):
        from attopmm import cli, density, io, momentum, signal
        for owner, attr, name, note in _wrap_table(cli, io, signal, momentum, density):
            self.wrap(owner, attr, name, note)
        return self

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(("name", "start", "end", "parent", "note"), s))
                                 for s in self.spans]}, fh)


def self_times(spans):
    """Self time of each span: duration minus its children's durations."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_self_s(spans, root):
    """Self time per layer over the spans under (and including) root."""
    own = self_times(spans)
    under = [False] * len(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        under[i] = i == root or (s[3] is not None and under[s[3]])
        if under[i]:
            layer = s[0].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + own[i]
    return totals


def layer_metrics(spans):
    """Per-layer metrics of one traced command plus its readback."""
    own = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def total(*names, times=dur):
        return sum(times[i] for n in names for i in by.get(n, ()))

    def count(*names):
        return sum(len(by.get(n, ())) for n in names)

    def notes(*names):
        return [spans[i][4] for n in names for i in by.get(n, ()) if spans[i][4] is not None]

    exporters = ("io.export_pmm", "io.export_spectra", "io.export_density")
    readers = ("io.read_pmm", "io.read_spectra", "io.read_cube")
    # bytes count once, at the outermost writer of each file
    top_writes = [i for i in by.get("io.write_cube", ())
                  if spans[i][3] is None or not spans[spans[i][3]][0].startswith("io.export")]
    bytes_written = sum(notes(*exporters)) + sum(spans[i][4] or 0 for i in top_writes)
    write_s = total(*exporters) + sum(dur[i] for i in top_writes)
    bytes_read = sum(notes(*readers))
    read_s = total(*readers)

    dyson_keys = notes("algebra.dyson")
    gets = by.get("momentum.cache_get", ())
    transform_parents = {spans[j][3] for j in by.get("momentum.orbital_ft", ())}
    misses = [i for i in gets if i in transform_parents]
    channels = notes("signal.pmm_cut")
    signal_names = ("signal.pmm_cut", "signal.energy_average_pmm",
                    "signal.angle_integrated_spectrum")
    roots = by.get("cli.main", ())

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "io.load_scenario_s": total("io.load_scenario"),
        "huckel.orbitals_s": total("huckel.orbitals"),
        "io.export_s": total(*exporters),
        "io.write_cube_s": total("io.write_cube"),
        "io.bytes_written": bytes_written,
        "io.export_mb_per_s": ratio(bytes_written / MIB, write_s),
        "io.read_s": read_s,
        "io.bytes_read": bytes_read,
        "io.read_mb_per_s": ratio(bytes_read / MIB, read_s),
        "algebra.dyson_s": total("algebra.dyson"),
        "algebra.dyson_calls": len(dyson_keys),
        "algebra.dyson_useful_ratio": ratio(len(set(dyson_keys)), len(dyson_keys)),
        "momentum.transform_s": total("momentum.orbital_ft"),
        "momentum.transforms": count("momentum.orbital_ft"),
        "momentum.gaussian_evals": sum(notes("momentum.orbital_ft")),
        "momentum.cache_lookups": len(gets),
        "momentum.cache_hit_ratio": ratio(len(gets) - len(misses), len(gets)),
        "momentum.lookup_s": sum(own[i] for i in gets),
        "momentum.cache_mb": sum(spans[i][4] or 0 for i in misses) / MIB,
        "momentum.grid_s": total("momentum.grid"),
        "momentum.grid_samples": sum(notes("momentum.grid")),
        "signal.self_s": total(*signal_names, times=own),
        "signal.calls": count(*signal_names),
        "signal.channel_useful_ratio": ratio(sum(c[0] for c in channels),
                                             sum(c[1] for c in channels)),
        "density.orbital_eval_s": total("density.evaluate_orbital"),
        "density.voxel_evals": sum(notes("density.evaluate_orbital")),
        "density.frame_s": total("density.frame"),
        "density.frames": count("density.frame"),
        "cli.self_s": sum(own[i] for i in roots),
    }
