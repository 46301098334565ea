"""Config files for the cli workload, written in two textual styles.

The spaced style lists every key with comments and blank lines; the
compact style omits keys at their default values and all spaces.  Key
order inside a section is drawn from the run's random stream.  Neither
choice changes what the program prints, so one frozen expected output
per (job, output format) holds for every seed.
"""

from __future__ import annotations

import random


def _vec(v, sep: str) -> str:
    return sep.join(str(c) for c in v)


def render_config(job: dict, rng: random.Random, compact: bool) -> str:
    s = job["surface"]
    sep = "," if compact else ", "
    surface = {
        "kind": s["kind"],
        "gram": (";" if compact else "; ").join(_vec(row, sep) for row in s["gram"]),
        "chi_o": str(s["chi_o"]),
        "anticanonical": _vec(s["anti"], sep),
        "a_x": str(s["a_x"]),
        "vii_applicable": "true" if s["vii"] else "false",
    }
    bundle = {"rank": str(job["r"]), "c1": _vec(job["c1"], sep), "c2": str(job["c2"]), "c1_in_ns": "true"}
    if compact:
        defaults = {
            "chi_o": "2" if s["kind"] == "k3" else "0",
            "anticanonical": _vec((0,) * len(s["gram"]), sep),
            "a_x": "0",
            "vii_applicable": "true",
            "c1_in_ns": "true",
        }
        surface = {k: v for k, v in surface.items() if defaults.get(k) != v}
        bundle = {k: v for k, v in bundle.items() if defaults.get(k) != v}
    lines = []
    for name, fields in (("surface", surface), ("bundle", bundle)):
        keys = list(fields)
        rng.shuffle(keys)
        if not compact:
            lines.append(f"# {name} generated by the benchmark")
        lines.append(f"[{name}]")
        lines += [f"{k}={fields[k]}" if compact else f"{k} = {fields[k]}" for k in keys]
        if not compact:
            lines.append("")
    return "\n".join(lines) + "\n"
