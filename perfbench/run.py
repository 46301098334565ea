"""holobundle benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload sweep|hard_m|blowup|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the
holobundle package in that checkout's src/.  Every measurement runs in
a fresh interpreter (worker.py), single-threaded, as a closed loop: one
client issues each call after the previous one returned.

--trace 0 prints the end-to-end metrics.  setup_s is the median over
several fresh interpreters of: process start, `import holobundle`,
construction of the workload's objects, up to the first timed call.
--trace 1 runs the same workload with spans around each layer's public
functions and prints the per-layer metrics; it then replays the same
operations untraced to give the tracing overhead.

The last stdout line is the JSON result; lines before it repeat the
metrics by the names README.md uses, with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9  # plus the measuring worker itself: ten set-up samples
WORKER_TIMEOUT_S = 150

# the workload's own names for ops_per_s, op_p50_ms and op_tail_ms
NAMED = {
    "sweep": ("decisions_per_s", "decide_p50_us", "decide_tail_us"),
    "hard_m": ("m_per_s", "m_p50_ms", "m_tail_ms"),
    "blowup": ("transfers_per_s", "transfer_p50_ms", "transfer_tail_ms"),
    "cli": ("cli_jobs_per_s", "cli_job_p50_ms", "cli_job_tail_ms"),
}


def spawn(workload, seed, seconds, trace, mode, limit=-1):
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(seconds),
           str(trace), str(spawn_ns), str(limit), mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({workload}, seed {seed}, trace {trace}, {mode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(result) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "timing": "wall clock, shared sandbox, no CPU pinning",
        "holobundle": result["holobundle"],
        "loop": "closed loop, one client, single-threaded",
    }


def end_to_end(args):
    # half the set-up samples before the measuring worker and half after, so
    # that their median spans the run rather than one moment of the host
    setups = [spawn(args.workload, args.seed, args.seconds, 0, "setup")["setup_s"] for _ in range(SETUP_RUNS // 2)]
    res = spawn(args.workload, args.seed, args.seconds, 0, "run", args.ops)
    setups.append(res["setup_s"])
    setups += [spawn(args.workload, args.seed, args.seconds, 0, "setup")["setup_s"]
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_tail_ms": (res["op_tail_ms"], "ms"),
    }
    thr, p50, tail = NAMED[args.workload]
    scale, unit = (1000.0, "us") if p50.endswith("_us") else (1.0, "ms")
    named = {
        thr: (res["ops_per_s"], "1/s"),
        p50: (res["op_p50_ms"] * scale, unit),
        tail: (res["op_tail_ms"] * scale, unit),
        "setup_s": metrics["setup_s"],
        "fail_ratio": (res["failed"] / res["attempted"], "ratio"),
    }
    if args.workload == "hard_m":
        named["m_d4r6_s"] = (res["by_kind"]["m_d4r6"]["p50_ms"] / 1e3, "s")
    if args.workload == "cli":
        named["cli_decide_p50_ms"] = (res["by_kind"]["decide"]["p50_ms"], "ms")
        named["cli_decide_tail_ms"] = (res["by_kind"]["decide"]["tail_ms"], "ms")
        named["check42_s"] = (res["by_kind"]["check"]["p50_ms"] / 1e3, "s")
    info = {
        "call_metrics": f"over {res['tail_samples']} instances, each its fastest of its first {res['best_of']} passes;"
                        f" tail p{res['tail_pct']}",
        "run_ops_per_s": res["run_ops_per_s"],
        "passes": res["passes"],
        "setup_samples_s": setups,
        "by_kind": res["by_kind"],
        "calls_ms": res["calls_ms"],
    }
    return res, metrics, named, info


def traced(args):
    res = spawn(args.workload, args.seed, args.seconds, 1, "run", args.ops)
    replay = spawn(args.workload, args.seed, args.seconds, 0, "replay", limit=res["attempted"])
    sys.path.insert(0, str(HERE))
    from tracer import layer_metrics

    metrics = layer_metrics(res["trace_state"], res["op_wall_ns"])
    metrics["cli.startup_ms"] = (res.get("cli_startup_ms", 0.0), "ms")
    metrics["trace.overhead_ratio"] = (res["op_wall_ns"] / replay["op_wall_ns"], "ratio")
    info = {"spans_file": res["spans_file"], "traced_ops": res["attempted"], "passes": res["passes"]}
    res["attempted"] += replay["attempted"]
    res["failed"] += replay["failed"]
    res["fails"] += replay["fails"]
    return res, metrics, dict(metrics), info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=-1,
                    help="run exactly this many operations instead of --seconds (self-test size)")
    args = ap.parse_args()
    if not (ROOT / "src" / "holobundle" / "__init__.py").is_file():
        print(f"no holobundle package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not (HERE / "data" / "pools.json").is_file():
        print("perfbench/data/pools.json is missing; run perfbench/freeze.py", file=sys.stderr)
        return 2

    res, metrics, named, info = (traced if args.trace else end_to_end)(args)
    for fail in res["fails"]:
        print(f"FAILED {fail}", file=sys.stderr)
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(res), "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    print("provenance " + json.dumps(record["provenance"]))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
