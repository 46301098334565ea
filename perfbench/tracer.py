"""Spans around the public functions of each holobundle layer, from outside.

install() rebinds every listed function in every holobundle.* module
namespace that holds it (modules import each other's functions by
name, so patching only the defining module would miss most calls).
Spans (name, start, end, parent, query) stay in memory and are written
out when the run ends; calls, total and self time are aggregated as the
spans close.  Self time is a span's duration minus its child spans.

Run as a script, this file is the traced launcher for one CLI
invocation:  python3 perfbench/tracer.py STATE_FILE QUERY_ID -- ARGS...
It traces `holobundle.cli.main_entry` with ARGS and writes the trace to
STATE_FILE, leaving the program's stdout and exit code untouched.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = {
    "minvariant": ("m_compute", "m_oracle"),
    "intlinalg": ("solve_fractions", "column_reduce", "inverse_diagonal"),
    "lattice": (
        "classify_definiteness",
        "radical_and_quotient",
        "pairing",
        "project_to_quotient",
        "lift_from_quotient",
    ),
    "bundles": ("discriminant", "euler_characteristic"),
    "criteria": ("decide_k3", "decide_class_vii", "decide_filtrable_generic"),
    "blowup": (
        "pr_transfer_check",
        "m_blowup_inequality_check",
        "normalize_twist",
        "decompose_c1",
        "pullback_invariance_check",
    ),
    "config": ("parse_config",),
    "cli": ("main", "run"),
    "checks": ("run_suite",),
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
CLAUSES = (
    "c1-outside-ns",
    "k3-criterion",
    "k3-exceptional",
    "vii-criterion",
    "vii-hypothesis-not-covered",
    "generic-filtrable-criterion",
)
CACHED = ("classify_definiteness", "radical_and_quotient")
_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.query = 0
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.total_ns = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.root_ns = 0
        self.nodes = 0
        self.m_keys: set = set()
        self.clauses = dict.fromkeys(CLAUSES, 0)
        self.blowup_depth = 0
        self.blowup_ns = 0
        self.blowup_m_ns = 0
        self._stack: list = []
        self._child: list = []
        self._cache_base = (0, 0)
        self._cached_fns: list = []

    # --- installation

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a holobundle module holds it."""
        importlib.import_module("holobundle.cli")
        mods = [m for n, m in list(sys.modules.items()) if n == "holobundle" or n.startswith("holobundle.")]
        for idx, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            original = getattr(importlib.import_module(f"holobundle.{layer}"), fn_name)
            if fn_name in CACHED:
                self._cached_fns.append(original)
            wrapper = self._wrap(idx, layer, fn_name, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        minv = sys.modules["holobundle.minvariant"]
        rounding = minv.round_half_toward_zero

        def counted(num, den):
            self.nodes += 1
            return rounding(num, den)

        minv.round_half_toward_zero = counted
        self._cache_base = self._cache_counts()

    def _cache_counts(self):
        hits = sum(f.cache_info().hits for f in self._cached_fns)
        misses = sum(f.cache_info().misses for f in self._cached_fns)
        return hits, misses

    def _wrap(self, idx: int, layer: str, fn_name: str, fn):
        stack, child = self._stack, self._child
        is_m = fn_name == "m_compute"
        is_blowup = layer == "blowup"
        is_decider = layer == "criteria"

        def wrapper(*args, **kwargs):
            if is_m:
                lat, r, a = args[:3]
                self.m_keys.add((lat.gram, r, tuple(int(c) % r for c in a)))
            if is_blowup:
                self.blowup_depth += 1
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.qid.append(self.query)
            self.end.append(0)
            stack.append(sid)
            child.append(0)
            t0 = _now()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                dur = t1 - t0
                self.end[sid] = t1
                stack.pop()
                inner = child.pop()
                self.calls[idx] += 1
                self.total_ns[idx] += dur
                self.self_ns[idx] += dur - inner
                if child:
                    child[-1] += dur
                else:
                    self.root_ns += dur
                if is_blowup:
                    self.blowup_depth -= 1
                    if self.blowup_depth == 0:
                        self.blowup_ns += dur
                elif is_m and self.blowup_depth:
                    self.blowup_m_ns += dur
            if is_decider:
                self.clauses[result.clause] = self.clauses.get(result.clause, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results

    def state(self) -> dict:
        """Aggregates in a JSON-able form that can be merged across processes."""
        hits, misses = self._cache_counts()
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "root_ns": self.root_ns,
            "nodes": self.nodes,
            "m_keys": sorted(repr(k) for k in self.m_keys),
            "clauses": self.clauses,
            "blowup_ns": self.blowup_ns,
            "blowup_m_ns": self.blowup_m_ns,
            "cache_hits": hits - self._cache_base[0],
            "cache_misses": misses - self._cache_base[1],
        }

    def spans(self) -> list:
        """[name, start_ns, end_ns, parent span index or -1, query id] per span."""
        return [
            [SPAN_NAMES[self.name[i]], self.start[i], self.end[i], self.parent[i], self.qid[i]]
            for i in range(len(self.start))
        ]


def merge_states(states: list) -> dict:
    out = {
        "calls": [0] * len(SPAN_NAMES),
        "total_ns": [0] * len(SPAN_NAMES),
        "self_ns": [0] * len(SPAN_NAMES),
        "clauses": dict.fromkeys(CLAUSES, 0),
    }
    keys: set = set()
    for st in states:
        for field in ("calls", "total_ns", "self_ns"):
            out[field] = [a + b for a, b in zip(out[field], st[field])]
        for field in ("root_ns", "nodes", "blowup_ns", "blowup_m_ns", "cache_hits", "cache_misses"):
            out[field] = out.get(field, 0) + st[field]
        for clause, n in st["clauses"].items():
            out["clauses"][clause] = out["clauses"].get(clause, 0) + n
        keys.update(st["m_keys"])
    out["distinct_m_keys"] = len(keys)
    return out


def layer_metrics(st: dict, traced_wall_ns: int) -> dict:
    """Per-layer metrics as (value, unit) pairs from a merged state."""
    out = {}
    for i, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls"] = (st["calls"][i], "count")
        out[f"{span}.total_s"] = (st["total_ns"][i] / 1e9, "s")
        out[f"{span}.self_s"] = (st["self_ns"][i] / 1e9, "s")
    m_calls = st["calls"][SPAN_NAMES.index("minvariant.m_compute")]
    out["minvariant.nodes"] = (st["nodes"], "count")
    out["minvariant.m_compute.distinct_ratio"] = (st["distinct_m_keys"] / m_calls if m_calls else 0.0, "ratio")
    lookups = st["cache_hits"] + st["cache_misses"]
    out["lattice.cache_hit_ratio"] = (st["cache_hits"] / lookups if lookups else 0.0, "ratio")
    for clause in CLAUSES:
        out[f"criteria.clause.{clause}"] = (st["clauses"].get(clause, 0), "count")
    out["blowup.m_share"] = (st["blowup_m_ns"] / st["blowup_ns"] if st["blowup_ns"] else 0.0, "ratio")
    out["trace.unattributed_s"] = (max(traced_wall_ns - st["root_ns"], 0) / 1e9, "s")
    return out


def _launch(state_file: str, query: int, argv: list) -> None:
    tracer = Tracer()
    tracer.query = query
    tracer.install()
    cli = sys.modules["holobundle.cli"]
    try:
        sys.argv = ["holobundle"] + argv
        cli.main_entry()
    finally:
        Path(state_file).write_text(json.dumps({"state": tracer.state(), "spans": tracer.spans()}))


if __name__ == "__main__":
    sep = sys.argv.index("--")
    _launch(sys.argv[1], int(sys.argv[2]), sys.argv[sep + 1 :])
