"""attopmm benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, default seed

Closed loop, one client: this process starts one fresh interpreter per
iteration (perfbench/child.py), waits for it, and starts the next until the
next iteration would end after --seconds.  Each iteration runs one seeded
``attopmm`` command in-process through ``attopmm.cli.main(argv)``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 alternates untraced and traced iterations (at least
one of each) and reports the per-layer metrics; the traced artifacts must be
byte-identical to the untraced ones.  The last line of standard output is
the JSON result; the lines before it print every metric with its unit and a
JSON record of the environment, argv, samples, check residuals and hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
# one BLAS thread: with --threads 2 a run then uses at most nproc = 2 threads
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def _git_sha():
    """Commit of the checkout, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(spec, deadline):
    """Run child.py on spec; -> its result dict, or None if it failed."""
    log = Path(spec["result"]).with_suffix(".log")
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=err, stderr=err,
                timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"child timed out: {spec.get('workload', 'probe')}", file=sys.stderr)
            return None
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-2000:]
        print(f"child exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def run_spec(name, seed, work, tag, trace=False):
    """Spec of one "run" child writing into the directory work."""
    return {"root": str(ROOT), "mode": "run", "workload": name, "seed": seed,
            "trace": trace, "out": str(work / "artifacts"),
            "result": str(work / f"{tag}.json"), "spans": str(work / "spans.json")}


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name, seed, seconds, trace):
    """Run one workload for about `seconds`; -> (result line, detail record)."""
    if not (ROOT / "src" / "attopmm" / "__init__.py").is_file():
        raise BenchError(f"no attopmm sources under {ROOT / 'src'}")
    workload = workloads.build(name, seed)
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def probe(k):
        return run_child({"root": str(ROOT), "mode": "probe",
                          "result": str(work / f"probe{k}.json")}, hard_deadline)

    warm = probe("-warm")   # compiles bytecode and warms the file cache; untimed
    if warm is None:
        raise BenchError("attopmm does not import in a fresh interpreter")
    setup = [p["setup_s"] for p in map(probe, range(SETUP_PROBES)) if p is not None]

    iterations = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        spec = run_spec(name, seed, work, f"iter{len(iterations)}", traced)
        shutil.rmtree(spec["out"], ignore_errors=True)
        began = time.monotonic()
        res = run_child(spec, hard_deadline)
        took = time.monotonic() - began
        iterations.append((traced, res))
        if res is None:
            break
        setup.append(res["setup_s"])
        need_traced = trace and not any(t for t, _ in iterations)
        if not need_traced and time.monotonic() + took > start + seconds:
            break

    n_items = len(workload.items)
    attempted = n_items * len(iterations)
    failed = 0
    hashes = None
    identical = True
    for _, res in iterations:
        if res is None or res["rc"] != 0 or not res["printed_matches"]:
            failed += n_items
            identical = False
            continue
        failed += len(res["failed_items"])
        if hashes is None:
            hashes = res["sha256"]
        identical = identical and res["sha256"] == hashes

    plain = [r for t, r in iterations if r is not None and not t]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "items_per_s": _median([n_items / r["wall_s"] for r in plain]),
        "readback_s": _median([r["readback_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    traced_runs = [r for t, r in iterations if r is not None and t]
    if traced_runs:
        for key in traced_runs[0]["layers"]:
            metrics[key] = _median([r["layers"][key] for r in traced_runs])
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced_runs])
                                       - metrics["wall_s"])

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pinned = reference["workloads"].get(name)
    changed = None
    if (seed == reference["seed"] and pinned is not None and hashes is not None
            and pinned["argv"] == list(workload.argv)):
        changed = sum(hashes.get(f) != h for f, h in pinned["sha256"].items())
        changed += len(set(hashes) - set(pinned["sha256"]))
    detail = {
        "workload": name, "seed": seed, "trace": trace, "argv": list(workload.argv),
        "environment": dict(warm["environment"], nproc=os.cpu_count(),
                            blas_threads=CHILD_ENV["OPENBLAS_NUM_THREADS"],
                            git_sha=_git_sha()),
        "iterations": len(iterations), "traced_iterations": len(traced_runs),
        "fail_ratio": failed / attempted,
        "artifacts_changed": changed,
        "artifacts_identical_across_iterations": identical,
        "setup_samples_s": setup,
        "wall_samples_s": [r["wall_s"] for r in plain],
        "readback_s": metrics["readback_s"],
        "residuals": plain[-1]["residuals"] if plain else {},
        "read_errors": {k: v for _, r in iterations if r for k, v in r["read_errors"].items()},
        "missing_wrappers": traced_runs[0]["missing_wrappers"] if traced_runs else [],
        "layer_self_s": traced_runs[-1]["layer_self_s"] if traced_runs else {},
        "sha256": hashes,
    }
    line = {"correct": failed == 0 and identical, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, detail


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def report(line, detail, trace):
    """Print the metric table and detail record; -> the final result line."""
    end_to_end, per_layer = _declared()
    declared = per_layer if trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in line["metrics"]]
    if missing and line["correct"]:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"# {detail['workload']} seed={detail['seed']} trace={int(trace)} "
          f"iterations={detail['iterations']}")
    for m in declared:
        value = line["metrics"].get(m["name"], float("nan"))
        print(f"{m['name']:<30s} {value:>16.6g} {m['unit']}")
    if not trace:
        print(f"{'readback_s (not gated)':<30s} {line['metrics']['readback_s']:>16.6g} s")
    print(f"{'fail_ratio':<30s} {detail['fail_ratio']:>16.6g} ratio")
    print(f"{'artifacts_changed':<30s} {str(detail['artifacts_changed']):>16s} count")
    print(json.dumps(detail))
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {m["name"]: {"value": line["metrics"][m["name"]], "unit": m["unit"]}
                        for m in declared if m["name"] in line["metrics"]}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.BY_NAME) if args.workload == "all" else [args.workload]
    try:
        results = [report(*measure(n, args.seed, args.seconds, bool(args.trace)),
                          bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({name: r for name, r in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
