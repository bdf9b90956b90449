"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

spec keys: root (checkout), result (path of the JSON result to write),
mode ("probe" or "run"); for "run" also workload, seed, out (artifact
directory), trace (bool) and spans (path of the span tree, traced only).

The child times ``import attopmm`` plus loading the bundled scenario
(setup), then, in "run" mode, calls ``attopmm.cli.main(argv)`` in-process
(wall), takes ``ru_maxrss``, reads every artifact back through the public
readers (readback), checks the read-back data and hashes the files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
import resource
import sys
import time
from pathlib import Path



def _environment(attopmm, np):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "attopmm": attopmm.__file__}


def _readback(workload, out_dir, aio):
    """Read every artifact through the public readers; None if unreadable."""
    reader = {"maps": "read_pmm", "spectra": "read_spectra", "cubes": "read_cube"}[workload.kind]
    loaded, errors = {}, {}
    for f in workload.files:
        try:
            # looked up per call, so the traced run sees its wrapper
            loaded[f] = getattr(aio, reader)(out_dir / f)
        except (OSError, ValueError) as exc:
            loaded[f] = None
            errors[f] = f"{type(exc).__name__}: {exc}"
    return loaded, errors


def main(spec):
    root = Path(spec["root"])
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import attopmm
    from attopmm import io as aio
    scenario = aio.load_scenario(aio.default_scenario_path())
    setup_s = time.perf_counter() - t0

    import numpy as np
    src = (root / "src").resolve()
    if src not in Path(attopmm.__file__).resolve().parents:
        raise SystemExit(f"attopmm imported from {attopmm.__file__}, not from {src}")
    result = {"setup_s": setup_s, "environment": _environment(attopmm, np)}
    if spec["mode"] == "probe":
        return result

    import checks
    import workloads
    from attopmm import cli

    workload = workloads.build(spec["workload"], spec["seed"])
    out_dir = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer().install()
    printed = textio.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(workload.command(out_dir))
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t2 = time.perf_counter()
    loaded, errors = _readback(workload, out_dir, aio)
    readback_s = time.perf_counter() - t2

    failed, residuals = checks.check(workload, loaded, scenario.period_fs)
    expected = sorted(str(out_dir / f) for f in workload.files)
    result.update(
        rc=rc, wall_s=wall_s, peak_rss_mb=peak_rss_mb, readback_s=readback_s,
        failed_items=failed,
        residuals=residuals, read_errors=errors,
        printed_matches=sorted(printed.getvalue().split()) == expected,
        sha256={f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                for f in workload.files if (out_dir / f).is_file()})
    if tracer is not None:
        from tracing import layer_metrics, layer_self_s
        spans = tracer.spans
        roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
        result["layers"] = layer_metrics(spans)
        result["layer_self_s"] = layer_self_s(spans, roots[0]) if roots else {}
        result["missing_wrappers"] = tracer.missing
        tracer.dump(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    outcome = main(spec)
    Path(spec["result"]).write_text(json.dumps(outcome), encoding="utf-8")
