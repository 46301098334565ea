"""Command line interface.

Exit codes: 0 success, 1 check suite found violations, 2 config or
usage error, 3 domain error (input outside a decision rule's hypotheses),
4 strict mode and a verdict was not covered, 5 internal error (an
invariant of the computation failed; a bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .blowup import (
    BlowupMap,
    blow_up,
    decompose_c1,
    m_blowup_inequality_check,
    normalize_twist,
    pullback_invariance_check,
    pushforward_delta_bound,
)
from .bundles import discriminant, euler_characteristic, pontrjagin_p1, w2_vanishes
from .checks import run_suite
from .config import COMMANDS, OUTPUT_FORMATS, ConfigError, JobConfig, parse_config
from .criteria import (
    NOT_COVERED,
    SurfaceKind,
    Verdict,
    decide_class_vii,
    decide_filtrable_generic,
    decide_k3,
)
from .errors import DomainError, InvariantError
from .lattice import IntersectionLattice
from .minvariant import m_compute

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NOT_COVERED = 4
EXIT_INTERNAL = 5

Field = Tuple[str, object]


def _spell(value: object, structured: bool) -> str:
    if value is None:
        return "" if structured else "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # a decomposition into summands
            return (";" if structured else "; ").join(_spell(mu, structured) for mu in value)
        coords = [str(c) for c in value]
        return ",".join(coords) if structured else "(" + ", ".join(coords) + ")"
    return str(value)


def _render(cfg: JobConfig, fields: Sequence[Field]) -> List[str]:
    """Spell (text key, value) fields as report lines in the job's format.

    The structured key is the text key with spaces replaced by `_`; see
    the README's "Output" section for how each kind of value is spelled.
    Runners return these lines; only the text-only `decide` marker and the
    text `check` report are written by hand.
    """
    if cfg.output_format == "structured":
        return [f"{key.replace(' ', '_')}={_spell(value, True)}" for key, value in fields]
    return [f"{key} = {_spell(value, False)}" for key, value in fields]


def _run_m(cfg: JobConfig) -> Tuple[List[str], int]:
    res = m_compute(cfg.surface.lattice, cfg.bundle.rank, cfg.bundle.c1)
    fields = [
        ("m", res.value),
        ("scaled objective", res.scaled_objective),
        ("decomposition", res.decomposition),
        ("certified", res.certified),
    ]
    return _render(cfg, fields), EXIT_OK


def _run_delta(cfg: JobConfig) -> Tuple[List[str], int]:
    lat, bundle = cfg.surface.lattice, cfg.bundle
    fields = [("delta", discriminant(lat, bundle)), ("p1", pontrjagin_p1(lat, bundle))]
    if bundle.rank == 2:
        fields.append(("w2_vanishes", w2_vanishes(lat, bundle)))
    return _render(cfg, fields), EXIT_OK


def _run_chi(cfg: JobConfig) -> Tuple[List[str], int]:
    chi, integral = euler_characteristic(cfg.surface, cfg.bundle)
    return _render(cfg, [("chi", chi), ("integral", integral)]), EXIT_OK


def _dispatch_decide(cfg: JobConfig) -> Verdict:
    if cfg.surface.kind is SurfaceKind.K3:
        return decide_k3(cfg.surface, cfg.bundle)
    if cfg.surface.kind is SurfaceKind.CLASS_VII:
        return decide_class_vii(cfg.surface, cfg.bundle)
    return decide_filtrable_generic(cfg.surface, cfg.bundle)


def _run_decide(cfg: JobConfig) -> Tuple[List[str], int]:
    verdict = _dispatch_decide(cfg)
    fields = [
        ("delta", verdict.delta),
        ("m", verdict.m_value),
        ("holomorphic", verdict.holomorphic),
        ("filtrable", verdict.filtrable),
        ("clause", verdict.clause),
        ("exceptional", verdict.exceptional_case),
    ]
    lines = _render(cfg, fields)
    if verdict.exceptional_case and cfg.output_format == "text":
        lines.append("EXCEPTIONAL: no holomorphic structure")
    code = EXIT_OK
    if cfg.strict and NOT_COVERED in (verdict.holomorphic, verdict.filtrable):
        code = EXIT_NOT_COVERED
    return lines, code


def _run_blowup(cfg: JobConfig) -> Tuple[List[str], int]:
    bmap = blow_up(cfg.surface.lattice)
    rep = pullback_invariance_check(bmap, cfg.bundle)
    fields = [
        ("base rank", bmap.base.rank),
        ("total rank", bmap.total.rank),
        ("exceptional class", bmap.exceptional_class),
        ("pullback c1", bmap.embed(cfg.bundle.c1)),
        ("delta base", rep.delta_base),
        ("delta total", rep.delta_total),
        ("m base", rep.m_base),
        ("m total", rep.m_total),
        ("invariant", rep.holds),
    ]
    return _render(cfg, fields), EXIT_OK


def _strip_last(lattice: IntersectionLattice) -> IntersectionLattice:
    n = lattice.rank
    return IntersectionLattice(
        tuple(tuple(lattice.gram[i][j] for j in range(n - 1)) for i in range(n - 1))
    )


def _run_pushforward(cfg: JobConfig) -> Tuple[List[str], int]:
    total = cfg.surface.lattice
    if total.rank < 1:
        raise DomainError("pushforward needs a lattice of rank at least 1")
    bmap = BlowupMap(_strip_last(total), total, total.rank - 1)
    bundle = cfg.bundle
    _, k_raw = decompose_c1(bmap, bundle.c1)
    twisted, twist = normalize_twist(bmap, bundle)
    a, k = decompose_c1(bmap, twisted.c1)
    delta = discriminant(total, twisted)
    mrep = m_blowup_inequality_check(bmap, bundle.rank, a, k)
    fields = [
        ("k raw", k_raw),
        ("twist", twist),
        ("k", k),
        ("normalized c1", twisted.c1),
        ("normalized c2", twisted.c2),
        ("delta", delta),
        ("delta bound", pushforward_delta_bound(delta, bundle.rank, k)),
        ("m total", mrep.m_total),
        ("m base", mrep.m_base),
        ("m margin", mrep.margin),
        ("inequality", mrep.holds),
    ]
    return _render(cfg, fields), EXIT_OK


def _run_check(cfg: JobConfig) -> Tuple[List[str], int]:
    rep = run_suite(cfg.seed, cfg.radius)
    code = EXIT_OK if rep.total_violations == 0 else EXIT_VIOLATIONS
    if cfg.output_format == "structured":
        fields = [("seed", rep.seed), ("radius", rep.radius)]
        fields += [(res.name, res.violations) for res in rep.results]
        fields.append(("total", rep.total_violations))
        return _render(cfg, fields), code
    lines = [f"seed = {rep.seed}, radius = {rep.radius}"]
    for res in rep.results:
        status = "ok" if res.violations == 0 else f"FAIL ({res.violations} violations)"
        note = f", {res.note}" if res.note else ""
        lines.append(f"{res.name}: {status} ({res.instances} instances{note})")
    lines.append(f"violations: {rep.total_violations}")
    return lines, code


_RUNNERS = {
    "m": _run_m,
    "delta": _run_delta,
    "chi": _run_chi,
    "decide": _run_decide,
    "blowup": _run_blowup,
    "pushforward": _run_pushforward,
    "check": _run_check,
}


def run(cfg: JobConfig) -> Tuple[str, int]:
    """Execute a parsed job; returns the report text and exit code."""
    lines, code = _RUNNERS[cfg.command](cfg)
    return "\n".join(lines), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobundle",
        description=(
            "Existence tests for holomorphic and filtrable structures on "
            "topological vector bundles over non-algebraic surfaces."
        ),
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--config", help="config file (required except for check)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the check suite")
    parser.add_argument(
        "--radius", type=int, default=3, help="search box radius for oracle cross checks"
    )
    parser.add_argument(
        "--format", dest="output_format", choices=OUTPUT_FORMATS, default="text"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 4 when a verdict is not covered",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        elif args.command != "check":
            raise ConfigError("--config is required for this command")
        cfg = parse_config(
            text,
            args.command,
            seed=args.seed,
            radius=args.radius,
            output_format=args.output_format,
            strict=args.strict,
        )
        report, code = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(report)
    return code


def main_entry() -> None:
    sys.exit(main())
