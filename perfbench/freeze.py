"""Build the frozen instance pools and expected answers in data/pools.json.

Run once from the repository root:  python3 perfbench/freeze.py

Every expected m comes from a certified m_oracle result that agrees
with m_compute; every expected CLI output is the program's stdout and
exit code at the time of freezing.  The benchmark never recomputes
these: a run checks the program against them.  The grid cells that
are too slow for a run are timed here and listed under "excluded".
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from cli_jobs import render_config  # noqa: E402
from holobundle import IntersectionLattice, m_compute, m_oracle  # noqa: E402

POOL_SEED = 20021001
HARD_CELLS = [(d, r) for d in (2, 3, 4) for r in (3, 4, 5, 6) if (d, r) not in ((4, 5), (4, 6))]
HARD_PER_CELL = 4
BLOWUP_EXCLUDED = {(2, 2, 5), (2, 3, 4), (2, 3, 5), (1, 3, 5)}
BLOWUP_CELLS = [
    (b, j, r)
    for b in (1, 2)
    for j in (1, 2, 3)
    for r in (2, 3, 4, 5)
    if (b, j, r) not in BLOWUP_EXCLUDED
]
BLOWUP_PER_CELL = 2
PROBE_LIMIT_S = 1.5


class Uncertified(Exception):
    """The oracle's box certificate fails; the instance is drawn again."""


UNCERTIFIED = []


def certified_m(gram, r, a) -> int:
    lat = IntersectionLattice(tuple(tuple(row) for row in gram))
    computed = m_compute(lat, r, a)
    for radius in (3, 5):
        oracle = m_oracle(lat, r, a, radius)
        if oracle.certified:
            break
    else:
        UNCERTIFIED.append({"gram": gram, "r": r, "a": a})
        raise Uncertified
    if oracle.value != computed.value or not isinstance(computed.value, int):
        raise SystemExit(f"oracle {oracle.value} != m_compute {computed.value} on {gram} r={r} a={a}")
    return computed.value


def redraw(make):
    while True:
        try:
            return make()
        except Uncertified:
            pass


def timed_m(gram, r, a) -> float:
    lat = IntersectionLattice(tuple(tuple(row) for row in gram))
    t0 = time.perf_counter()
    m_compute(lat, r, a)
    return time.perf_counter() - t0


def nonzero_class(rng, d, r):
    while True:
        a = tuple(rng.randrange(r) for _ in range(d))
        if any(a):
            return a


def hard_item(rng, d, r):
    g = gen.dense_definite(rng, d)
    a = nonzero_class(rng, d, r)
    return {"gram": g, "r": r, "a": a, "m": certified_m(g, r, a)}


def freeze_hard_m(rng, excluded):
    cells = []
    for d, r in HARD_CELLS:
        items = [redraw(lambda: hard_item(rng, d, r)) for _ in range(HARD_PER_CELL)]
        cells.append({"d": d, "r": r, "items": items})
        print(f"hard_m cell d={d} r={r} frozen", flush=True)
    probe = None
    while probe is None:
        g = gen.dense_definite(rng, 4)
        a = nonzero_class(rng, 4, 6)
        lat = IntersectionLattice(g)
        oracle = m_oracle(lat, 6, a, 5)
        if not oracle.certified:
            continue
        dt = timed_m(g, 6, a)
        if dt > PROBE_LIMIT_S:
            excluded.append({"workload": "hard_m", "what": "d4r6 probe candidate", "seconds": round(dt, 3)})
            continue
        if m_compute(lat, 6, a).value != oracle.value:
            raise SystemExit(f"oracle {oracle.value} != m_compute on the d4r6 probe {g} {a}")
        probe = {"gram": g, "r": 6, "a": a, "m": oracle.value, "seconds_at_freeze": round(dt, 3)}
    for d, r in ((4, 5), (4, 6)):
        for _ in range(3):
            g = gen.dense_definite(rng, d)
            dt = timed_m(g, r, nonzero_class(rng, d, r))
            excluded.append({"workload": "hard_m", "what": f"cell d={d} r={r}", "seconds": round(dt, 3)})
    warmup = [redraw(lambda: hard_item(rng, 2, 3)) for _ in range(3)]
    return {"cells": cells, "probe": probe, "warmup": warmup}


def surface(kind, gram, chi_o, anti, a_x=0, vii=True):
    return {"kind": kind, "gram": gram, "chi_o": chi_o, "anti": anti, "a_x": a_x, "vii": vii, "bundles": []}


def add_bundle(s, rng, r, c1=None, in_ns=True):
    def make():
        v = c1 if c1 is not None else gen.rand_vec(rng, len(s["gram"]), -2, 2)
        return {"r": r, "c1": v, "in_ns": in_ns, "m": certified_m(s["gram"], r, v)}

    s["bundles"].append(redraw(make))


def sweep_surfaces(rng):
    out = []
    for i, d in enumerate((1, 1, 2, 2, 3, 3)):
        s = surface("k3", gen.even_form(rng, d), 2, (0,) * d, a_x=i % 2)
        for _ in range(3):
            add_bundle(s, rng, 2)
        add_bundle(s, rng, 2, c1=tuple(2 * c for c in gen.rand_vec(rng, d, -1, 1)))
        if i % 3 == 0:
            add_bundle(s, rng, 2, in_ns=False)
        out.append(s)
    for b2, ranks in ((0, 4), (1, 4), (2, 4), (3, 3), (4, 2)):
        s = surface("class7", gen.diag_minus_one(b2), 0, (1,) * b2)
        for r in range(1, ranks + 1):
            add_bundle(s, rng, r)
        add_bundle(s, rng, 2, in_ns=False)
        out.append(s)
    for g in (gen.dense_definite(rng, 2), gen.form_with_radical(rng, 3)):
        s = surface("class7", g, 0, (0,) * len(g))
        for r in (2, 3):
            add_bundle(s, rng, r)
        out.append(s)
    s = surface("class7", gen.diag_minus_one(1), 0, (1,), vii=False)
    add_bundle(s, rng, 2)
    out.append(s)
    for i, g in enumerate(
        [gen.form_with_radical(rng, d) for d in (0, 1, 2, 3, 3)] + [gen.dense_definite(rng, 2)]
    ):
        s = surface("generic", g, i % 2, (0,) * len(g), a_x=i % 2)
        for r in range(1, 5):
            add_bundle(s, rng, r)
        out.append(s)
    return out


def freeze_sweep(rng):
    surfaces = sweep_surfaces(rng)
    warm = surface("generic", gen.dense_definite(rng, 2), 0, (0, 0))
    add_bundle(warm, rng, 2)
    add_bundle(warm, rng, 3)
    print(f"sweep: {len(surfaces)} surfaces frozen", flush=True)
    return {"surfaces": surfaces, "warmup": [warm]}


def blowup_base(rng, b):
    return ((-rng.randint(1, 4),),) if b == 1 else gen.dense_definite(rng, 2)


def blowup_item(rng, b, j, r):
    base = blowup_base(rng, b)
    a = gen.rand_vec(rng, b, -2, 2)
    ks = tuple(rng.randrange(r) for _ in range(j))
    lower = gen.block_sum(base, gen.diag_minus_one(j - 1))
    total = gen.block_sum(base, gen.diag_minus_one(j))
    return {
        "base": base,
        "j": j,
        "r": r,
        "a": a,
        "ks": ks,
        "m_base": certified_m(lower, r, a + ks[:-1]),
        "m_total": certified_m(total, r, a + ks),
    }


def freeze_blowup(rng, excluded):
    items = []
    for b, j, r in BLOWUP_CELLS:
        items += [redraw(lambda: blowup_item(rng, b, j, r)) for _ in range(BLOWUP_PER_CELL)]
    print(f"blowup: {len(items)} items frozen", flush=True)
    for b, j, r in sorted(BLOWUP_EXCLUDED):
        for _ in range(3):
            base = blowup_base(rng, b)
            total = gen.block_sum(base, gen.diag_minus_one(j))
            c1 = gen.rand_vec(rng, b, -2, 2) + tuple(rng.randrange(r) for _ in range(j))
            excluded.append({"workload": "blowup", "what": f"base rank {b}, {j} blow-ups, r={r}",
                             "seconds": round(timed_m(total, r, c1), 3)})
    warmup = [redraw(lambda: blowup_item(rng, 1, 1, r)) for r in (2, 3)]
    return {"items": items, "warmup": warmup}


def run_cli(args, config_text=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        if config_text is not None:
            path = Path(tmp) / "job.cfg"
            path.write_text(config_text)
            args = args + ["--config", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "holobundle"] + args, capture_output=True, text=True, env=env, cwd=ROOT
        )
    return [proc.stdout, proc.returncode]


def freeze_cli(rng):
    jobs = []
    small = [
        surface("k3", ((-2,),), 2, (0,)),
        surface("k3", gen.even_form(rng, 2), 2, (0, 0), a_x=1),
        surface("class7", gen.diag_minus_one(1), 0, (1,)),
        surface("class7", gen.diag_minus_one(2), 0, (1, 1)),
        surface("generic", gen.form_with_radical(rng, 2), 0, (0, 0), a_x=1),
        surface("generic", gen.dense_definite(rng, 2), 1, (0, 0)),
    ]
    for s in small:
        for _ in range(2):
            r = 2 if s["kind"] == "k3" else rng.randint(2, 3)
            c1 = gen.rand_vec(rng, len(s["gram"]), -2, 2)
            jobs.append({"command": "decide", "surface": s, "r": r, "c1": c1, "c2": rng.randint(-2, 4)})
    for _ in range(4):
        g = gen.dense_definite(rng, 2)
        r = rng.randint(2, 3)
        jobs.append({"command": "m", "surface": surface("generic", g, 0, (0, 0)), "r": r,
                     "c1": gen.rand_vec(rng, 2, -2, 2), "c2": 0})
    for _ in range(4):
        total = gen.block_sum(((-rng.randint(1, 3),),), gen.diag_minus_one(1))
        r = rng.randint(2, 3)
        c1 = (rng.randint(-2, 2), rng.randrange(r) + r * rng.choice((-1, 1)))
        jobs.append({"command": "pushforward", "surface": surface("class7", total, 0, (0, 1)), "r": r,
                     "c1": c1, "c2": rng.randint(-2, 3)})
    for job in jobs:
        job["surface"] = {k: v for k, v in job["surface"].items() if k != "bundles"}
        text = render_config(job, random.Random(0), compact=False)
        job["expected"] = {fmt: run_cli(["--command", job["command"], "--format", fmt], text)
                           for fmt in ("text", "structured")}
        for fmt, (_, code) in job["expected"].items():
            if code != 0:
                raise SystemExit(f"cli job exits {code}: {job}")
    check42 = run_cli(["--command", "check", "--seed", "42"])
    if check42[1] != 0 or not check42[0].rstrip().endswith("violations: 0"):
        raise SystemExit("check --seed 42 reports violations")
    warm = {"command": "delta", "surface": small[0], "r": 2, "c1": (1,), "c2": 1}
    warm["surface"] = {k: v for k, v in warm["surface"].items() if k != "bundles"}
    warm["expected"] = {fmt: run_cli(["--command", "delta", "--format", fmt], render_config(warm, random.Random(0), False))
                        for fmt in ("text", "structured")}
    print(f"cli: {len(jobs)} jobs frozen", flush=True)
    return {"jobs": jobs, "check42": check42, "warmup": warm}


def main() -> None:
    rng = random.Random(POOL_SEED)
    excluded: list = []
    pools = {
        "pool_seed": POOL_SEED,
        "hard_m": freeze_hard_m(rng, excluded),
        "sweep": freeze_sweep(rng),
        "blowup": freeze_blowup(rng, excluded),
        "cli": freeze_cli(rng),
    }
    pools["excluded"] = excluded
    pools["uncertified_redrawn"] = UNCERTIFIED
    out = HERE / "data" / "pools.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(pools, separators=(",", ":")) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
