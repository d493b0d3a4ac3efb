"""Benchmark driver for stlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload n6_sweep --seed 0 --seconds 1 --trace 0

Run from the root of a source checkout; nothing needs building or
installing, the package is imported from ``src``.  A run repeats passes of
one workload until ``--seconds`` have gone by (and at least the workload's
minimum number of passes have run).  Each pass is a fresh interpreter
(``worker.py``) started and awaited one at a time, so load comes from one
process.  ``wall_s`` and ``cpu_s`` are the timed phase (every op once) with
each op at its median over the run's passes; the op percentiles pool every
op of every untraced pass.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A trace run alternates untraced and traced passes; ``search_grid`` runs both
at ``--jobs 1`` there, because pool workers are invisible to the tracer.

Every run writes ``perfbench/results/<workload>-seed<N>-trace<T>.json`` with
the machine (commit, nproc, CPU model, Python and numpy versions, load
average at start and end), every pass and every metric; a traced run also
writes the last traced pass's spans next to it.  ``n6_sweep`` is the opt-in,
unscored n = 6 oracle sweep (81 s wall, 159 s CPU with --jobs 2 on a 2-vCPU Xeon VM);
it is not in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
TAIL_LEVELS = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


@dataclass(frozen=True)
class Settings:
    min_passes: int  # enough op samples that the tail percentile has ten beyond it
    jobs: int  # --jobs of the search commands in untraced runs
    deadline_s: float = 165.0  # no pass starts if it could end after this


SETTINGS = {
    "verify_claims": Settings(min_passes=7, jobs=1),
    "search_grid": Settings(min_passes=4, jobs=2),
    "cycles_scale": Settings(min_passes=4, jobs=1),
    "iso_canon": Settings(min_passes=8, jobs=1),
    "n6_sweep": Settings(min_passes=1, jobs=2, deadline_s=900.0),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_level(samples: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    return max((q for q in TAIL_LEVELS if samples * (1 - q) >= 10), default=TAIL_LEVELS[0])


def typical_pass(passes: list[dict], key: str) -> float:
    """The timed phase with every op at its median over the passes: sum over ops of that median.

    Ops are matched across passes by build index.  Summing per-op medians
    discards the passes' slow stretches op by op, which a median of whole
    passes cannot do when a slowdown covers only part of a pass.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def _run_worker(spec: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("STL_JOBS", None)  # the commands run at the CLI's own default, --jobs 1
    spec["spawned_at"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Also reaps pool workers a crashed pass may have left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise BenchError(f"pass {spec['pass']} of {spec['workload']} " + ("timed out" if code is None else f"exited {code}"))
    return json.loads(Path(spec["out"]).read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the record it writes to its result file."""
    if not (ROOT / "src" / "stlab" / "__init__.py").is_file():
        raise BenchError(f"no stlab package under {ROOT / 'src'}")
    settings = SETTINGS[workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    machine = machine_info()
    load_start = os.getloadavg()
    minimum = 4 if trace else settings.min_passes
    passes = []
    start = time.monotonic()
    longest = 0.0
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        while True:
            elapsed = time.monotonic() - start
            # Stop before a pass that would overrun --seconds (or, at worst, the deadline).
            if len(passes) >= minimum and elapsed + elapsed / len(passes) > seconds:
                break
            if passes and elapsed + 1.5 * longest > settings.deadline_s:
                break
            spec = {
                "workload": workload,
                "seed": seed,
                "pass": len(passes),
                "traced": trace and len(passes) % 2 == 1,
                "jobs": 1 if trace else settings.jobs,
                "tiny": tiny,
                "src": str(ROOT / "src"),
                "scratch": scratch,
                "out": str(Path(scratch) / f"pass{len(passes)}.json"),
                "spans": str(RESULTS / f"{stem}.spans.json.gz"),
            }
            began = time.monotonic()
            passes.append(_run_worker(spec, timeout=settings.deadline_s + 10 - elapsed))
            longest = max(longest, time.monotonic() - began)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    op_ms = [t * 1000 for p in plain for t in p["op_s"]]
    level = tail_level(settings.min_passes * plain[0]["attempted"])
    metrics = {
        "wall_s": typical_pass(plain, "op_s"),
        "cpu_s": typical_pass(plain, "op_cpu_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": quantile(op_ms, level),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics["trace.untraced_wall_s"] = metrics["wall_s"]
        metrics["trace.overhead_s"] = typical_pass(traced, "op_s") - metrics["wall_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "machine": machine,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "run_s": time.monotonic() - start,
        "tail_percentile": level * 100,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if not k.startswith("op_")} | {"ops": len(p["op_s"])} for p in passes],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict, declared: list[dict]) -> dict:
    metrics = record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(SETTINGS))
    target.add_argument("--all", action="store_true", help="run every scored workload and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a small subset of each workload's ops")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
        lines = []
        for name in names:
            record = run_workload(name, args.seed, seconds, bool(args.trace), args.tiny)
            for failure in [f for p in record["passes"] for f in p["failures"]][:5]:
                print(f"{name}: FAILED {failure}", file=sys.stderr)
            lines.append((name, record))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.all:
        for name, record in lines:
            line = result_line(record, declared)
            for metric, entry in line["metrics"].items():
                print(f"{name:<14} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            print(f"{name:<14} {'fail_ratio':<40} {record['fail_ratio']:>14.6g} ratio ({record['failed']}/{record['attempted']} ops)")
        return 0 if all(record["failed"] == 0 for _, record in lines) else 1
    print(json.dumps(result_line(lines[0][1], declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
