"""One workload run in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE SPAWN_NS LIMIT MODE

MODE is "setup" (stop at the first timed call and report the set-up
time), "run" (warm up, then make whole passes until SECONDS have gone,
or exactly LIMIT calls when LIMIT >= 0) or "replay" (a run without the
one-off hard_m probe, to repeat a traced run untraced).  The result is
one JSON object on the last line of stdout.  holobundle is imported
from ROOT/src and nowhere else.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, merge_states  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

APART = ("check", "m_d4r6")  # timed on their own: check42_s and m_d4r6_s


class Context:
    """What the cli workload needs to start `python -m holobundle`, traced or not."""

    def __init__(self, root: Path, work_dir: Path, tracer) -> None:
        self.root = root
        self.work_dir = work_dir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_states: list = []
        self.child_spans: list = []
        self.startup_ns: list = []

    def run_cli(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "holobundle"] + args
        else:
            state_file = self.work_dir / f"trace{len(self.child_states)}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(state_file), str(self.tracer.query), "--"] + args
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120)
        wall = time.perf_counter_ns() - t0
        if self.tracer is not None:
            child = json.loads(state_file.read_text())
            self.child_states.append(child["state"])
            self.child_spans.append(child["spans"])
            main = next(s for s in child["spans"] if s[0] == "cli.main")
            self.startup_ns.append(wall - (main[2] - main[1]))
        return proc.stdout, proc.returncode


def pct(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_ops(ops, tracer, record, fails, first_query=0):
    """Time each call, then check its result; append (kind, ns, ok, key) to record."""
    for op in ops:
        if tracer is not None:
            tracer.query = first_query + len(record)
        t0 = time.perf_counter_ns()
        try:
            res = op.call()
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, err = None, exc
        dt = time.perf_counter_ns() - t0
        ok = False
        if err is None:
            try:
                ok = bool(op.check(res))
            except Exception as exc:
                err = exc
        if not ok and len(fails) < 5:
            fails.append(f"{op.kind}: {err!r}" if err else f"{op.kind}: wrong result {res!r}"[:300])
        record.append((op.kind, dt, ok, op.key))


def main(argv) -> int:
    root = Path(argv[0])
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    spawn_ns, limit, mode = int(argv[5]), int(argv[6]), argv[7]

    sys.path.insert(0, str(root / "src"))
    import holobundle as hb

    hb_path = Path(hb.__file__).resolve()
    if (root / "src") not in hb_path.parents:
        raise SystemExit(f"holobundle resolved outside the checkout: {hb_path}")
    pools = json.loads((HERE / "data" / "pools.json").read_text())
    work_dir = HERE / "out" / f"work-{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if trace else None
        ctx = Context(root, work_dir, tracer)
        wl = WORKLOADS[workload](pools, random.Random(f"{workload}:{seed}"), hb, ctx)
        ops = wl.build_pass()
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        fails: list = []
        run_ops(wl.warmup(), None, [], fails)
        if tracer is not None:
            tracer.install()
        record: list = []
        passes = 0
        t_begin = time.perf_counter_ns()
        while True:
            if limit >= 0:
                ops = ops[: limit - len(record)]
            run_ops(ops, tracer, record, fails, first_query=len(record))
            passes += 1
            if not ops or (
                len(record) >= limit if limit >= 0 else time.perf_counter_ns() - t_begin >= seconds * 1e9
            ):
                break
            ops = wl.build_pass()
        if workload == "hard_m" and mode == "run" and not trace:
            run_ops([wl.probe()], None, record, fails)

        calls = [dt / 1e6 for kind, dt, _, _ in record if kind not in APART]
        # every pass covers the same pool: an instance's time is its fastest
        # call among its first best_of passes, and the three call metrics are
        # taken over these times.  The host's speed drifts by a fifth over tens
        # of seconds and a drift only ever adds time, so the fastest of several
        # passes moves about half as much as their median or their sum
        by_key: dict = {}
        for kind, dt, _, key in record:
            if kind not in APART:
                by_key.setdefault(key, []).append(dt / 1e6)
        best = [min(v[: wl.best_of]) for v in by_key.values()]
        out = {
            "holobundle": str(hb_path),
            "setup_s": setup_s,
            "passes": passes,
            "attempted": len(record),
            "failed": sum(1 for r in record if not r[2]),
            "fails": fails,
            "op_wall_ns": sum(dt for kind, dt, _, _ in record if kind != "m_d4r6"),
            "ops_per_s": len(best) / (sum(best) / 1e3),
            "op_p50_ms": statistics.median(best),
            "op_tail_ms": pct(best, wl.tail_pct),
            "run_ops_per_s": len(calls) / (sum(calls) / 1e3),
            "tail_pct": wl.tail_pct,
            "best_of": wl.best_of,
            "tail_samples": len(best),
            "calls_ms": calls,
            "by_kind": {},
        }
        for kind in sorted({r[0] for r in record}):
            ms = [r[1] / 1e6 for r in record if r[0] == kind]
            out["by_kind"][kind] = {"n": len(ms), "p50_ms": statistics.median(ms), "tail_ms": pct(ms, wl.tail_pct)}
        if tracer is not None:
            out["trace_state"] = merge_states([tracer.state()] + ctx.child_states)
            if ctx.startup_ns:
                out["cli_startup_ms"] = statistics.median(ctx.startup_ns) / 1e6
            spans_file = HERE / "out" / f"spans-{workload}-seed{seed}.tsv"
            write_spans(spans_file, [tracer.spans()] + ctx.child_spans)
            out["spans_file"] = str(spans_file.relative_to(root))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_spans(path: Path, groups) -> None:
    """One line per span: id, name, start_ns, end_ns, parent id, query id.

    groups holds the span lists of this process and of each traced CLI
    subprocess; their ids are renumbered into one sequence."""
    with path.open("w") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
        base = 0
        for spans in groups:
            for i, (name, start, end, parent, query) in enumerate(spans):
                parent_id = parent + base if parent >= 0 else -1
                fh.write(f"{base + i}\t{name}\t{start}\t{end}\t{parent_id}\t{query}\n")
            base += len(spans)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
