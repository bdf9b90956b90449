"""Pin the artifact hashes of every workload at the default seed.

    python3 perfbench/pin.py

Runs each workload once, untraced, checks its artifacts and writes their
sha256 to perfbench/reference.json.  run.py then reports, for the default
seed, how many artifacts differ from the pinned bytes (artifacts_changed).
Re-pin only for a change that declares new numerics.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main():
    pinned = {}
    for name in sorted(workloads.BY_NAME):
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        work = run.WORK / "pin"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        res = run.run_child(run.run_spec(name, workloads.DEFAULT_SEED, work, "result"),
                            time.monotonic() + run.RUN_LIMIT_S)
        if res is None or res["rc"] != 0 or res["failed_items"] or not res["printed_matches"]:
            print(f"{name}: run failed, nothing pinned", file=sys.stderr)
            return 1
        pinned[name] = {"argv": list(workload.argv), "sha256": res["sha256"]}
        print(f"{name}: {len(res['sha256'])} artifacts")
    run.REFERENCE.write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": pinned},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
