"""The four workloads: how each builds its inputs and checks each answer.

A pass is a list of Op: `call` is the timed call into holobundle,
`check` the untimed verification with the benchmark's own arithmetic.
Every pass covers the workload's whole frozen pool, so runs of any seed
measure the same mix of problems.  Each pass flips the signs of some
basis vectors (an isometry, so every expected answer still holds): on
sweep the seed draws them, on hard_m and blowup a stream of each
instance's own that the seed does not touch (variant_streams).  The seed
draws the order and the free parameters: translations of c1, c2 windows
and config styles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import gen
from cli_jobs import render_config


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    key: Any = None  # the pool instance the call comes from, the same in every pass


class HardM:
    """Distinct m_compute queries on indecomposable dense definite forms."""

    # op_tail_ms is the tail_pct percentile over the pool's instances.
    # best_of: an instance's time is its fastest call among its first best_of
    # passes, about seven tenths of the passes a run makes at the parent
    # commit, kept fixed so that a faster program gets no more tries
    tail_pct = 93
    best_of = 7

    def __init__(self, pools: dict, rng: random.Random, hb, ctx) -> None:
        self.pool = pools["hard_m"]
        self.rng, self.hb = rng, hb
        self.items = [item for cell in self.pool["cells"] for item in cell["items"]]
        self.streams = variant_streams("hard_m", len(self.items))
        self.used: set = set()

    def _query(self, item: dict, kind: str = "m", key: Any = None, rng=None) -> Optional[Op]:
        g, r, m = item["gram"], item["r"], item["m"]
        for attempt in range(40):
            # sign flips first: reordering the basis can change one search's cost
            # severalfold, so a reordered copy is drawn only once the signs run out
            perm, signs = gen.signed_perm(rng or self.rng, len(g), permute=attempt >= 20)
            g2 = gen.move_gram(g, perm, signs)
            a2 = tuple(c % r for c in gen.move_vec(item["a"], perm, signs))
            if (g2, r, a2) not in self.used:
                break
        else:
            return None  # every variant of this instance has been asked already
        if not gen.connected(g2):
            raise ValueError("hard_m form is decomposable")
        self.used.add((g2, r, a2))
        lat = self.hb.IntersectionLattice(g2)
        return Op(
            kind,
            lambda: self.hb.m_compute(lat, r, a2),
            lambda res: res.value == m
            and gen.check_witness(g2, r, a2, m, res.decomposition, res.scaled_objective),
            key,
        )

    def build_pass(self) -> List[Op]:
        order = self.rng.sample(range(len(self.items)), len(self.items))
        ops = [self._query(self.items[i], key=i, rng=self.streams[i]) for i in order]
        return [op for op in ops if op is not None]

    def warmup(self) -> List[Op]:
        return [self._query(item) for item in self.pool["warmup"]]

    def probe(self) -> Op:
        return self._query(self.pool["probe"], "m_d4r6")


def variant_streams(workload: str, count: int) -> List[random.Random]:
    """One random stream per pool instance for its sign patterns, pass after pass.

    The streams do not depend on the seed: the sign pattern can change the
    cost of one m search by half or more, so with seeded patterns the
    instances' times moved between seeds by more than the host's own drift.
    The seed still draws the order and every other free parameter."""
    return [random.Random(f"{workload}:instance:{i}") for i in range(count)]


DECIDERS = {"k3": "decide_k3", "class7": "decide_class_vii", "generic": "decide_filtrable_generic"}


class Sweep:
    """Decision sweeps over c2 on many small surfaces, as the tool is used."""

    tail_pct = 99
    best_of = 34
    c2_halfwidth = 7

    def __init__(self, pools: dict, rng: random.Random, hb, ctx) -> None:
        self.pool = pools["sweep"]
        self.rng, self.hb = rng, hb

    def _surface_ops(self, s: dict, si: int = -1) -> List[List[Op]]:
        hb, rng = self.hb, self.rng
        perm, signs = gen.signed_perm(rng, len(s["gram"]), permute=False)
        g = gen.move_gram(s["gram"], perm, signs)
        kind = s["kind"]
        model = hb.SurfaceModel(
            hb.SurfaceKind(kind),
            hb.IntersectionLattice(g),
            s["chi_o"],
            gen.move_vec(s["anti"], perm, signs),
            algebraic_dimension=s["a_x"],
            vii_applicable=s["vii"],
        )
        # looked up at call time, so that a traced run sees the wrapped function
        decider = DECIDERS[kind]
        sweeps = []
        for bi, b in enumerate(s["bundles"]):
            r, m, in_ns = b["r"], b["m"], b["in_ns"]
            c1 = tuple(c + r * rng.randint(-1, 1) for c in gen.move_vec(b["c1"], perm, signs))
            # smallest c2 with delta >= m, so the window straddles the threshold
            c2_star = -((-((r - 1) * gen.pair(g, c1, c1) + m)) // (2 * r))
            lo = c2_star - self.c2_halfwidth + rng.randint(-1, 1)
            ops = []
            for ci, c2 in enumerate(range(lo, lo + 2 * self.c2_halfwidth + 1)):
                bundle = hb.BundleTopology(r, c1, c2, in_ns)
                delta = gen.delta_of(g, r, c1, c2)
                want = gen.expected_verdict(kind, s["a_x"], s["vii"], r, c1, in_ns, delta, m)
                ops.append(
                    Op(
                        "decide",
                        lambda model=model, bundle=bundle: getattr(hb, decider)(model, bundle),
                        lambda v, want=want, delta=delta: gen.verdict_tuple(v) == want and v.delta == delta,
                        (si, bi, ci),
                    )
                )
            sweeps.append(ops)
        return sweeps

    def build_pass(self) -> List[Op]:
        sweeps = [ops for si, s in enumerate(self.pool["surfaces"]) for ops in self._surface_ops(s, si)]
        self.rng.shuffle(sweeps)
        return [op for ops in sweeps for op in ops]

    def warmup(self) -> List[Op]:
        return [op for s in self.pool["warmup"] for ops in self._surface_ops(s) for op in ops]


class Blowup:
    """Transfers across chains of -1 blow-ups: base + <-1>^j, block diagonal."""

    tail_pct = 95
    best_of = 9

    def __init__(self, pools: dict, rng: random.Random, hb, ctx) -> None:
        self.pool = pools["blowup"]
        self.rng, self.hb = rng, hb
        self.streams = variant_streams("blowup", len(self.pool["items"]))

    def _transfer(self, item: dict, key: Any = None) -> Op:
        hb, rng = self.hb, self.rng
        j, r = item["j"], item["r"]
        total = gen.block_sum(item["base"], gen.diag_minus_one(j))
        n = len(total)
        perm, signs = gen.signed_perm(rng if key is None else self.streams[key], n, permute=False)
        g = gen.move_gram(total, perm, signs)
        lower = tuple(row[: n - 1] for row in g[: n - 1])
        bmap = hb.BlowupMap(hb.IntersectionLattice(lower), hb.IntersectionLattice(g), n - 1)
        model = hb.SurfaceModel(hb.SurfaceKind.CLASS_VII, bmap.total, 0, (0,) * n)
        c1 = list(item["a"]) + list(item["ks"])
        # an exceptional coefficient outside [0, r), so normalize_twist has work to do
        c1 = [c + r * rng.randint(-1, 1) for c in c1[:-1]] + [c1[-1] + r * rng.choice((-2, -1, 1, 2))]
        c1 = gen.move_vec(c1, perm, signs)
        c2 = rng.randint(-2, 4)
        bundle = hb.BundleTopology(r, c1, c2)
        m_base, m_total = item["m_base"], item["m_total"]
        k = c1[-1] % r
        delta = gen.delta_of(g, r, c1, c2)
        want = gen.expected_verdict("class7", 0, True, r, c1, True, delta, m_total)

        def call():
            rec = hb.blowup.pr_transfer_check(bmap, [bundle]).records[0]
            ineq = hb.m_blowup_inequality_check(bmap, r, c1[:-1], k)
            return rec, ineq, hb.decide_class_vii(model, bundle)

        def check(res) -> bool:
            rec, ineq, verdict = res
            return (
                (rec.k, rec.twist, rec.m_base, rec.m_total) == (k, (k - c1[-1]) // r, m_base, m_total)
                and (rec.delta_total, rec.delta_base_extremal) == (delta, delta - k * (r - k))
                and (ineq.m_base, ineq.m_total) == (m_base, m_total)
                and gen.verdict_tuple(verdict) == want
                and verdict.delta == delta
            )

        return Op("transfer", call, check, key)

    def build_pass(self) -> List[Op]:
        items = self.pool["items"]
        return [self._transfer(items[i], i) for i in self.rng.sample(range(len(items)), len(items))]

    def warmup(self) -> List[Op]:
        return [self._transfer(item) for item in self.pool["warmup"]]


class Cli:
    """`python -m holobundle` subprocesses on generated config files, plus check --seed 42."""

    tail_pct = 83
    best_of = 5

    def __init__(self, pools: dict, rng: random.Random, hb, ctx) -> None:
        self.pool = pools["cli"]
        self.rng, self.ctx = rng, ctx
        self.count = 0

    def _invoke(self, kind: str, args: List[str], expected, key: Any = None) -> Op:
        return Op(kind, lambda: self.ctx.run_cli(args), lambda res: list(res) == list(expected), key)

    def _job(self, job: dict, key: Any = None) -> Op:
        compact = self.rng.random() < 0.5
        fmt = self.rng.choice(("text", "structured"))
        path = Path(self.ctx.work_dir) / f"job{self.count}.cfg"
        self.count += 1
        path.write_text(render_config(job, self.rng, compact))
        kind = "decide" if job["command"] == "decide" else "job"
        args = ["--command", job["command"], "--config", str(path), "--format", fmt]
        return self._invoke(kind, args, job["expected"][fmt], key)

    def build_pass(self) -> List[Op]:
        jobs = self.pool["jobs"]
        ops = [self._job(jobs[i], i) for i in self.rng.sample(range(len(jobs)), len(jobs))]
        check = self._invoke("check", ["--command", "check", "--seed", "42"], self.pool["check42"])
        ops.insert(self.rng.randrange(len(ops) + 1), check)
        return ops

    def warmup(self) -> List[Op]:
        return [self._job(self.pool["warmup"])]


WORKLOADS = {"sweep": Sweep, "hard_m": HardM, "blowup": Blowup, "cli": Cli}
