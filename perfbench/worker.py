"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py '<spec json>'

``run.py`` starts one worker per pass, with ``src`` on ``PYTHONPATH``.  The
worker imports ``stlab`` first, so the time from the parent's spawn stamp to
the end of that import is the pass's set-up time.  It then runs the pass
(traced if the spec asks) and writes a JSON summary to ``spec["out"]``.
"""

import json
import sys
import time

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    import stlab

    setup_s = time.monotonic() - spec["spawned_at"]

    import resource
    import shutil
    import tempfile
    from pathlib import Path

    if not Path(stlab.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        sys.exit(f"stlab imported from {stlab.__file__}, not from {spec['src']}")

    from tracer import Tracer
    from workloads import Context, run_pass

    scratch = Path(tempfile.mkdtemp(dir=spec["scratch"]))
    tracer = Tracer() if spec["traced"] else None
    try:
        ctx = Context(scratch=scratch, jobs=spec["jobs"], tiny=spec["tiny"])
        result = run_pass(spec["workload"], spec["seed"], spec["pass"], ctx, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    summary = {
        "traced": spec["traced"],
        "jobs": spec["jobs"],
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "op_s": result.op_s,
        "op_cpu_s": result.op_cpu_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:20],
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(result.wall_s)
        tracer.dump(Path(spec["spans"]))
    Path(spec["out"]).write_text(json.dumps(summary))
