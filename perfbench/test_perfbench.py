"""Tests of the benchmark itself.

    python3 -m pytest perfbench

One traced run of the default pmm-delay-scan workload (a few seconds) feeds
the hash, corruption and self-time tests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def test_seed_fixes_argv_and_pairs():
    for name in workloads.BY_NAME:
        a = workloads.build(name, 7)
        assert a == workloads.build(name, 7)
        assert a.argv != workloads.build(name, 8).argv
        assert len(set(a.files)) == len(a.files)
        for first, second in a.pairs:
            t1 = float(first.rsplit("_tp", 1)[1].split("T")[0])
            t2 = float(second.rsplit("_tp", 1)[1].split("T")[0])
            assert t2 - t1 == pytest.approx(0.5)


def test_pinned_argv_is_the_default_seed_argv():
    assert REFERENCE["seed"] == workloads.DEFAULT_SEED
    assert set(REFERENCE["workloads"]) == set(workloads.BY_NAME)
    for name, pinned in REFERENCE["workloads"].items():
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        assert pinned["argv"] == list(workload.argv)
        assert sorted(pinned["sha256"]) == sorted(workload.files)


def test_benchmark_json_names_what_run_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BY_NAME)
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert per_layer == list(tracing.layer_metrics([])) + ["trace.overhead_s"]
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(end_to_end) == {"setup_s", "wall_s", "items_per_s", "peak_rss_mb"}
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced child run of the default pmm-delay-scan workload."""
    work = tmp_path_factory.mktemp("traced")
    spec = run.run_spec("pmm-delay-scan", workloads.DEFAULT_SEED, work, "result",
                        trace=True)
    res = run.run_child(spec, time.monotonic() + 120.0)
    assert res is not None
    spans = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
    return res, spans, Path(spec["out"])


def test_traced_artifacts_match_pinned_hashes(traced):
    res, _, _ = traced
    assert res["rc"] == 0 and res["printed_matches"]
    assert res["failed_items"] == []
    assert res["sha256"] == REFERENCE["workloads"]["pmm-delay-scan"]["sha256"]


def test_layer_self_times_account_for_wall(traced):
    res, dump, _ = traced
    assert dump["missing"] == []
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["note"]]
             for s in dump["spans"]]
    assert min(tracing.self_times(spans)) >= 0.0
    (root,) = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    layers = tracing.layer_self_s(spans, root)
    assert set(layers) == set(tracing.LAYERS)
    assert min(layers.values()) >= 0.0
    assert layers["cli"] == pytest.approx(res["layers"]["cli.self_s"])
    root_s = spans[root][2] - spans[root][1]
    assert sum(layers.values()) == pytest.approx(root_s, rel=1e-9)
    assert abs(res["wall_s"] - root_s) < 0.01 * res["wall_s"]
    assert set(res["layers"]) == set(tracing.layer_metrics([]))


def _corrupt_peak(path):
    """Scale the largest probability in a map file by 1.5."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    peak = max(rows, key=lambda i: float(lines[i].split()[2]))
    x, y, v = lines[peak].split()
    lines[peak] = "\t".join((x, y, "%.12e" % (1.5 * float(v))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_artifact_counts_as_failed(traced, tmp_path):
    _, _, out = traced
    sys.path.insert(0, str(run.ROOT / "src"))
    from attopmm import io as aio
    import child

    workload = workloads.build("pmm-delay-scan", workloads.DEFAULT_SEED)
    period = aio.load_scenario(aio.default_scenario_path()).period_fs
    copy = tmp_path / "artifacts"
    shutil.copytree(out, copy)
    loaded, errors = child._readback(workload, copy, aio)
    assert errors == {} and checks.check(workload, loaded, period)[0] == []

    _corrupt_peak(copy / workload.files[0])
    loaded, _ = child._readback(workload, copy, aio)
    failed, residuals = checks.check(workload, loaded, period)
    assert workload.files[0] in failed
    assert 0 < len(failed) / len(workload.items) <= 1
    assert residuals["map_pair_mirror"] > checks.MAP_PAIR_TOL

    (copy / workload.files[1]).write_text("garbage\n", encoding="utf-8")
    loaded, errors = child._readback(workload, copy, aio)
    assert workload.files[1] in errors
    assert workload.files[1] in checks.check(workload, loaded, period)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pmm-delay-scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spans_nest_and_notes_record_work():
    tracer = tracing.Tracer()

    class Owner:
        @staticmethod
        def outer(n):
            return Owner.inner(n) + 1

        @staticmethod
        def inner(n):
            time.sleep(0.001)
            return n

    tracer.wrap(Owner, "inner", "io.inner", lambda a, k, r: r)
    tracer.wrap(Owner, "outer", "cli.outer", lambda a, k, r: a[1])
    tracer.wrap(Owner, "absent", "io.absent")
    assert Owner.outer(5) == 6
    (outer, inner) = sorted(tracer.spans, key=lambda s: s[0])
    assert inner[3] == tracer.spans.index(outer) and inner[4] == 5
    # a note that no longer fits the call is reported, not raised
    assert outer[4] is None
    assert tracer.missing == ["io.absent (absent)",
                              "cli.outer note (IndexError: tuple index out of range)"]
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own) and not math.isnan(sum(own))
