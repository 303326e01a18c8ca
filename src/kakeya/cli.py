"""Command-line interface.

Subcommands mirror the library surface: construction dumps (``cantor``,
``slopes``), geometry measures (``volume``, ``simulate``), the experiment
sweeps (``slab-moments``, ``lower-bound``, ``upper-bound``,
``iid-audit``, ``resistance-growth``), probability oracles
(``prob-oracle``) and percolation evaluators (``percolate``, ``resist``).
``--config FILE`` loads a JSON experiment config, or the config block of
any record the subcommand saves; explicit flags override its fields.
Modes follow from the inputs given, and a flag the run would not read is
an error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import random
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

from .cantor import (
    BUILTIN_CURVES,
    CantorSpec,
    DirectionCurve,
    build_level,
    builtin_curve,
    direction_set,
)
from .configs import classify4, oracle_check
from .harness import (
    LOWER_BOUND_MIN_SAMPLES,
    ExperimentConfig,
    FarPointError,
    build_dirset,
    canonical_json,
    lower_bound_experiment,
    percolation_iid_audit,
    pointwise_percolation_bound,
    resistance_growth,
    sampled_measures,
    save_result,
    slab_moments,
    upper_bound_experiment,
)
from .percolation import (
    lyons_bounds,
    resistance,
    shorted_resistance,
    survival_exact,
    survival_mc,
)
from .sticky import SlopeAssignment
from .trees import EdgeBudgetError, FiniteTree, address_bits, leaf_from_index
from .tubes import assignment_arrays, poss_set, slab_volumes


def _int_from(low: int):
    """argparse type of an integer flag that must be at least ``low``."""
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return int(text)
    return parse


_positive_int = _int_from(1)  # every count, depth and dimension
_M_TYPE = _int_from(3)  # the middle-digit Cantor construction needs M >= 3


def _point(text: str) -> tuple[float, ...]:
    """argparse type of --point: comma-separated finite floats."""
    try:
        point = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not comma-separated numbers") from None
    if not all(map(math.isfinite, point)):
        raise argparse.ArgumentTypeError(f"{text!r} has a coordinate that is not finite")
    return point


def _n_range(text: str) -> tuple[int, ...]:
    """argparse type of --N-range: lo:hi inclusive, not empty, lo >= 1."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:  # not two integers: refused below
        lo = hi = 0
    if lo < 1 or lo > hi:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range of depths >= 1")
    return tuple(range(lo, hi + 1))


_GEOMETRY = ("M", "N", "d", "curve")
_FLAG_TYPES = {  # every other config flag is a positive integer
    "seed": {"type": int}, "M": {"type": _M_TYPE}, "curve": {"choices": list(BUILTIN_CURVES)}
}
_CONFIG_FIELDS = {f.name for f in dc_fields(ExperimentConfig)}
# a run's own counts, which its record's block holds beside the config
# fields: flag dest -> value when neither the flag nor the file gives one
_RUN_COUNTS = {"points": 100, "fields": 10_000, "pointwise": None}


def _add_config(p: argparse.ArgumentParser, *names: str, sweep: bool = False) -> None:
    """--config and a flag for each named config field, whose dest is the
    field; ``sweep`` adds --N-range (instead of --N) and --out-dir."""
    p.add_argument("--config", type=Path, help="JSON experiment config file")
    n_or_range = p.add_mutually_exclusive_group()
    for name in names:
        kind = _FLAG_TYPES.get(name, {"type": _positive_int})
        (n_or_range if name == "N" else p).add_argument(f"--{name}", **kind)
    if sweep:
        n_or_range.add_argument("--N-range", dest="n_values", type=_n_range, metavar="LO:HI")
        p.add_argument("--out-dir", dest="out_dir")


@contextlib.contextmanager
def _file_fault(path, faults=(OSError, ValueError)):
    """Stop the run with one line ``<path>: <error>`` when the block raises
    one of ``faults``, which are then the fault of the file at ``path``."""
    try:
        yield
    except faults as err:
        raise SystemExit(f"{path}: {err}") from None


def _read_json(path, want: type = dict):
    """The JSON value in the file at ``path``, which must be a ``want``
    (dict or list); an unreadable or malformed file is one error line."""
    with _file_fault(path):
        value = json.loads(Path(path).read_text())
        if not isinstance(value, want):
            expected = "an object" if want is dict else "an array"
            raise ValueError(f"expected {expected}, got {type(value).__name__}")
    return value


def _config_from_args(args) -> ExperimentConfig:
    """The config file's fields, overridden by the flags named by dest; an
    explicit --N drops the file's n_values, and --N-range its N.  The
    run's own counts in the file, as a saved record's block holds them,
    stand in for the flags not given, so any record of the subcommand
    replays through --config."""
    base = {}
    if args.config:
        base = _read_json(args.config)
        base.pop("backend", None)  # saved records carry it; it is a constant
    for key in _RUN_COUNTS.keys() & vars(args).keys():
        count = base.pop(key, None)
        if count is not None and (type(count) is not int or count < 1):
            raise SystemExit(f"{args.config}: {key} must be at least 1, got {count!r}")
        if getattr(args, key) is None:
            setattr(args, key, _RUN_COUNTS[key] if count is None else count)
    unknown = sorted(set(base) - _CONFIG_FIELDS)
    if unknown:
        raise SystemExit(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    if "n_values" in base and "n_values" not in vars(args):
        raise SystemExit(f"{args.config}: n_values is read only by a subcommand with --N-range")
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    if "N" in flags:
        base.pop("n_values", None)
    if "n_values" in flags:
        base.pop("N", None)
    with _file_fault(args.config):  # flags are checked by argparse, so the file is at fault
        return ExperimentConfig(**{**base, **flags})


def _refuse(args, reason: str, *dests: str) -> None:
    """Usage error if a flag --<dest> was given that the run would not read."""
    for dest in dests:
        if getattr(args, dest) is not None:
            args.error(f"argument --{dest}: {reason}")


def _emit(result: dict, out_dir: str | None) -> None:
    """Save the record under ``out_dir``, or print its canonical JSON."""
    if out_dir:
        with _file_fault(out_dir, OSError):
            saved = save_result(result, out_dir)
        print(f"wrote {saved}")
    else:
        print(canonical_json(result))


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout when no path is
    given; a failure to open or write the file is one line naming it."""
    if not path:
        yield sys.stdout
        return
    with _file_fault(path, OSError), open(path, "w", newline="") as fh:
        yield fh


def _write_text(path, chunks) -> None:
    """Write the text chunks to ``path`` and say so, or to stdout when no
    path is given."""
    with _output(path) as fh:
        fh.writelines(chunks)
    if path:
        print(f"wrote {path}")


def _json_rows(head: dict, rows):
    """The text of ``json.dumps({**head, "rows": [*rows]}, indent=2)`` and a
    newline, in chunks made one row at a time, so no two rows are held."""
    start, end = json.dumps({**head, "rows": [0]}, indent=2).rsplit("0", 1)
    for row in rows:
        yield start + json.dumps(row, indent=2).replace("\n", "\n    ")
        start = ",\n    "
    yield end + "\n"


def _write_csv(path, fieldnames, rows) -> None:
    """Write rows as CSV to ``path``, or to stdout when no path is given."""
    with _output(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _build_spec(args) -> CantorSpec:
    if args.selector_file is None:
        return CantorSpec(args.M, args.N)
    selector = _read_json(args.selector_file)
    prefixes = selector.get("prefixes", {})
    if set(selector) - {"default", "prefixes"} or not isinstance(prefixes, dict):
        raise ValueError('expected the keys "default" and "prefixes", the latter an object')
    # "0,2" -> (0, 2); a key that is not comma-separated integers fails int()
    table = {tuple(int(x) for x in key.split(",") if x): pair for key, pair in prefixes.items()}
    return CantorSpec(args.M, args.N, table, selector.get("default"))


def _build_curve(args) -> DirectionCurve:
    if args.curve_file is None:
        return builtin_curve(args.curve or "affine", args.d or 1)
    _refuse(args, "the rows of --curve-file fix d", "d")
    return DirectionCurve(_read_json(args.curve_file, list))


def cmd_cantor(args) -> int:
    with _file_fault(args.selector_file):
        spec = _build_spec(args)
    with _file_fault(args.curve_file):  # only a curve file fails: a built-in one stays in the slab
        curve = _build_curve(args)
        ds = direction_set(spec, curve)
    payload = {
        "M": spec.M,
        "N": spec.N,
        "d": curve.d,
        "intervals": [
            {
                "digits": list(iv.digits),
                "left": str(iv.left),
                "left_float": float(iv.left),
            }
            for iv in build_level(spec, spec.N)
        ],
        "representatives": [str(t) for t in ds.params],
        "slopes": [
            {"exact": [str(c) for c in s], "float": [float(c) for c in s]}
            for s in ds.slopes
        ],
        "bilipschitz": {
            "lower": ds.lip_lo,
            "upper": ds.lip_hi,
            "squared": [str(ds.lip2_lo), str(ds.lip2_hi)],
        },
    }
    _write_text(args.out, [json.dumps(payload, indent=2), "\n"])
    return 0


def cmd_slopes(args) -> int:
    cfg = _config_from_args(args)
    cfg.guard(cfg.N)
    dirset = build_dirset(cfg, cfg.N)
    indices = SlopeAssignment(dirset, cfg.seed).all_slope_indices()
    rows = (
        {
            "t": list(leaf_from_index(i, cfg.M**cfg.d, cfg.N)),
            "tau": list(address_bits(k, cfg.N)),
            "sigma_exact": [str(c) for c in dirset.slopes[k]],
            "sigma_float": [float(c) for c in dirset.slopes[k]],
        }
        for i, k in enumerate(indices.tolist())
    )
    _write_text(args.out, _json_rows({"config": cfg.to_dict("seed")}, rows))
    return 0


def cmd_volume(args) -> int:
    cfg = _config_from_args(args)
    cfg.guard(cfg.N)
    dirset = build_dirset(cfg, cfg.N)
    centers, slopes = assignment_arrays(SlopeAssignment(dirset, cfg.seed))
    lo, hi = (0.0, 1.0) if args.range == "near" else (float(dirset.c0), float(dirset.c0) + 1.0)
    width = float(cfg.M) ** (-cfg.N)
    rows = []
    total = 0.0
    for k, v in slab_volumes(centers, slopes, lo, hi, cfg.M, cfg.N, samples=cfg.quadrature):
        rows.append({"k": k, "x_lo": k * width, "volume": v})
        total += v
    _write_csv(args.out, ["k", "x_lo", "volume"], rows)
    print(f"# total {args.range} volume: {total}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    rows = []
    for N in cfg.ns():
        for i, m in enumerate(sampled_measures(cfg, N)):
            rows.append({"N": N, "sample": i, **m})
    config = cfg.to_dict("seed", "samples", "quadrature")
    _emit({"experiment": "simulate", "config": config, "rows": rows}, cfg.out_dir)
    return 0


def cmd_slab_moments(args) -> int:
    if args.exhaustive:
        _refuse(args, "is not read with --exhaustive", "samples", "seed")
    cfg = _config_from_args(args)
    _emit(slab_moments(cfg, exhaustive=args.exhaustive), cfg.out_dir)
    return 0


def cmd_lower_bound(args) -> int:
    cfg = _config_from_args(args)
    if cfg.samples < LOWER_BOUND_MIN_SAMPLES:
        args.error(f"argument --samples: lower-bound needs at least {LOWER_BOUND_MIN_SAMPLES}")
    _emit(lower_bound_experiment(cfg), cfg.out_dir)
    return 0


def cmd_upper_bound(args) -> int:
    cfg = _config_from_args(args)
    result = upper_bound_experiment(cfg)
    if args.pointwise:
        config = {**result["config"], "pointwise": args.pointwise}
        pointwise = [pointwise_percolation_bound(cfg, N, grid=args.pointwise) for N in cfg.ns()]
        result = {**result, "config": config, "pointwise": pointwise}
    _emit(result, cfg.out_dir)
    return 0


def cmd_prob_oracle(args) -> int:
    cfg = _config_from_args(args)
    N = cfg.N
    cfg.guard(N)
    B = cfg.M**cfg.d
    if B**N < 4:
        args.error(f"4-tuples need at least 4 leaves, but M^(N*d) = {B**N}")
    leaves = [leaf_from_index(i, B, N) for i in range(B**N)]
    if args.tuples == "exhaustive":
        _refuse(args, "is not read with --tuples exhaustive", "seed")
        combos = itertools.permutations(range(len(leaves)), 4)
    else:
        rng = random.Random(cfg.seed)
        combos = (tuple(rng.sample(range(len(leaves)), 4)) for _ in range(args.count))
    rows = []
    for combo in itertools.islice(combos, args.count):
        t = [leaves[i] for i in combo]
        cc = classify4(*t)
        # exercise the closed form on a sticky-consistent address choice
        addr = {v: tuple(0 for _ in range(N)) for v in t}
        closed, enumerated = oracle_check(cc, addr)
        rows.append(
            {
                "tuple": [list(v) for v in t],
                "class": cc.label,
                "closed_form": str(closed),
                "enumerated": str(enumerated),
                "match": closed == enumerated,
            }
        )
    _write_csv(args.out, ["tuple", "class", "closed_form", "enumerated", "match"], rows)
    bad = sum(1 for r in rows if not r["match"])
    print(f"# {len(rows)} tuples, {bad} mismatches", file=sys.stderr)
    return 0 if bad == 0 else 1


def _tree_from_args(args, cfg: ExperimentConfig) -> FiniteTree:
    """The Poss tree of --point, or else the full binary tree of --height."""
    if args.point is None:
        _refuse(args, "is read only with --point", *_GEOMETRY)
        return FiniteTree.full(2, args.height or 4)
    if len(args.point) != 1 + cfg.d:
        args.error(f"argument --point: needs 1 + d = {1 + cfg.d} coordinates, "
                   f"got {len(args.point)}")
    poss = poss_set(args.point, build_dirset(cfg, cfg.N))
    if len(poss) == 0:
        raise SystemExit("point is reachable from no root cube")
    return poss.tree


def cmd_percolate(args) -> int:
    cfg = _config_from_args(args)
    tree = _tree_from_args(args, cfg)
    r = resistance(tree)
    lo, hi = lyons_bounds(r)
    est, half = survival_mc(tree, cfg.seed, args.mc_samples)
    exact = survival_exact(tree)
    payload = {
        "vertices": len(tree.vertices),
        "height": tree.height,
        "survival_exact": str(exact),
        "survival_exact_float": float(exact),
        "survival_mc": est,
        "mc_ci99": half,
        "resistance": str(r),
        "resistance_float": float(r),
        "shorted_resistance": str(shorted_resistance(tree)),
        "lyons_lower": float(lo),
        "lyons_upper": float(hi),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_resist(args) -> int:
    if args.point is None:  # resist reads no seed, so the config is geometry only
        _refuse(args, "is read only with --point", "config")
    cfg = _config_from_args(args)
    tree = _tree_from_args(args, cfg)
    r = resistance(tree)
    payload = {
        "vertices": len(tree.vertices),
        "resistance": str(r),
        "resistance_float": float(r),
        "shorted_resistance_float": float(shorted_resistance(tree)),
        "level_counts": tree.level_counts(),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_iid_audit(args) -> int:
    cfg = _config_from_args(args)
    rows = [percolation_iid_audit(cfg, N, fields=args.fields) for N in cfg.ns()]
    config = cfg.to_dict("seed", fields=args.fields)
    _emit({"experiment": "iid-audit", "config": config, "rows": rows}, cfg.out_dir)
    return 0 if all(row["pass"] for row in rows) else 1


def cmd_resistance_growth(args) -> int:
    cfg = _config_from_args(args)
    _emit(resistance_growth(cfg, points=args.points), cfg.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kakeya",
        description="Randomized tube families over Cantor direction sets: "
        "construction, probability oracles, and measure experiments.",
    )
    # no abbreviated flags: --samples must not stand for --samples-per-slab
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("cantor", help="dump intervals, representatives, directions")
    p.add_argument("--M", type=_M_TYPE, default=3)
    p.add_argument("--N", type=_positive_int, default=2)
    p.add_argument("--d", type=_positive_int, help="default 1")
    p.add_argument("--selector-file", type=Path, help="default: the middle digits")
    curve = p.add_mutually_exclusive_group()
    curve.add_argument("--curve", choices=list(BUILTIN_CURVES), help="default affine")
    curve.add_argument("--curve-file", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_cantor)

    p = sub.add_parser("slopes", help="dump (t, tau(t), sigma(t)) for one field")
    _add_config(p, "seed", *_GEOMETRY)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_slopes)

    p = sub.add_parser("volume", help="per-slab volumes of one realization")
    _add_config(p, "seed", *_GEOMETRY)
    p.add_argument("--samples-per-slab", dest="quadrature", type=_positive_int)
    p.add_argument("--range", choices=["near", "far"], default="near")
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("simulate", help="near/far measure sweep over realizations")
    _add_config(p, "seed", *_GEOMETRY, "samples", sweep=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("slab-moments", help="pairwise slab intersection moments")
    _add_config(p, "seed", *_GEOMETRY, "samples", sweep=True)
    p.add_argument("--exhaustive", action="store_true", help="enumerate all fields")
    p.set_defaults(fn=cmd_slab_moments)

    p = sub.add_parser("lower-bound", help="near-volume lower-quantile experiment")
    _add_config(p, "seed", *_GEOMETRY, "samples", sweep=True)
    p.set_defaults(fn=cmd_lower_bound)

    p = sub.add_parser("upper-bound", help="far-volume decay experiment")
    _add_config(p, "seed", *_GEOMETRY, "samples", sweep=True)
    p.add_argument(
        "--pointwise", nargs="?", const=200, type=_positive_int, metavar="GRID",
        help="percolation bound integral over GRID points (default 200)",
    )
    p.set_defaults(fn=cmd_upper_bound)

    p = sub.add_parser("prob-oracle", help="classification vs enumeration table")
    _add_config(p, "seed", "M", "N", "d")
    p.add_argument("--tuples", choices=["exhaustive", "random"], default="random")
    p.add_argument("--count", type=_positive_int, default=50)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_prob_oracle)

    p = sub.add_parser("percolate", help="survival probability of a tree")
    _add_config(p, "seed", *_GEOMETRY)
    tree = p.add_mutually_exclusive_group()
    tree.add_argument("--point", type=_point, help="comma-separated far point: its Poss tree")
    tree.add_argument("--height", type=_positive_int, help="full binary tree (default 4)")
    p.add_argument("--mc-samples", type=_positive_int, default=100_000)
    p.set_defaults(fn=cmd_percolate)

    p = sub.add_parser("resist", help="resistance of a tree network")
    _add_config(p, *_GEOMETRY)
    tree = p.add_mutually_exclusive_group()
    tree.add_argument("--point", type=_point, help="comma-separated far point: its Poss tree")
    tree.add_argument("--height", type=_positive_int, help="full binary tree (default 4)")
    p.set_defaults(fn=cmd_resist)

    p = sub.add_parser("iid-audit", help="edge-bit consistency and uniformity tests")
    _add_config(p, "seed", *_GEOMETRY, sweep=True)
    p.add_argument("--fields", type=_positive_int, help=f"default {_RUN_COUNTS['fields']}")
    p.set_defaults(fn=cmd_iid_audit)

    p = sub.add_parser("resistance-growth", help="R(Poss(x)) versus N")
    _add_config(p, "seed", *_GEOMETRY, sweep=True)
    p.add_argument("--points", type=_positive_int, help=f"default {_RUN_COUNTS['points']}")
    p.set_defaults(fn=cmd_resistance_growth)

    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ResourceWarning, EdgeBudgetError, FarPointError) as err:  # a budget; no far point
        print(f"kakeya {args.command}: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush
        return 1


if __name__ == "__main__":
    sys.exit(main())
