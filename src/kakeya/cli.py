"""Command-line interface.

Subcommands mirror the library surface: construction dumps (``cantor``,
``slopes``), geometry measures (``volume``, ``simulate``), the experiment
sweeps (``slab-moments``, ``lower-bound``, ``upper-bound``), probability
oracles (``prob-oracle``), percolation evaluators (``percolate``,
``resist``) and the invariant suite (``verify``).  ``--config FILE`` loads
a JSON experiment config; explicit flags override its fields.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import random
import sys
from dataclasses import fields as dc_fields
from dataclasses import replace
from pathlib import Path

from .cantor import (
    CantorSpec,
    build_level,
    builtin_curve,
    curve_from_rows,
    direction_set,
    make_table_selector,
    middle_spec,
)
from .configs import classify4, oracle_check
from .harness import (
    ExperimentConfig,
    build_dirset,
    canonical_json,
    lower_bound_experiment,
    percolation_iid_audit,
    pointwise_percolation_bound,
    resistance_growth,
    sample_assignment,
    save_result,
    slab_first_moment,
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
from .sticky import assignment_from_dirset
from .trees import FiniteTree, leaf_from_index
from .tubes import (
    assignment_arrays,
    kakeya_measures,
    offset_constant,
    poss_set,
    slab_indices,
    union_volume,
)
from .verification import run_checks


def _add_common(p: argparse.ArgumentParser, sweep: bool = False, samples: bool = False):
    """Config flags; ``sweep`` adds --N-range and --out-dir, ``samples``
    adds --samples, for the subcommands that read them."""
    p.add_argument("--config", type=Path, help="JSON experiment config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--curve", choices=["affine", "moment"])
    if sweep:
        p.add_argument("--N-range", dest="n_range", help="sweep as lo:hi inclusive")
        p.add_argument("--out-dir", type=Path)
    if samples:
        p.add_argument("--samples", type=int)


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if getattr(args, "config", None):
        base = json.loads(Path(args.config).read_text())
        base.pop("backend", None)  # saved records carry it; it is a constant
        unknown = sorted(set(base) - {f.name for f in dc_fields(ExperimentConfig)})
        if unknown:
            raise SystemExit(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig(**base)
    updates = {}
    for field in ("seed", "M", "N", "d", "curve", "samples"):
        v = getattr(args, field, None)
        if v is not None:
            updates[field] = v
    if getattr(args, "n_range", None):
        lo, hi = args.n_range.split(":")
        updates["n_values"] = tuple(range(int(lo), int(hi) + 1))
    if getattr(args, "out_dir", None):
        updates["out_dir"] = str(args.out_dir)
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _emit(result: dict, cfg: ExperimentConfig):
    if cfg.out_dir:
        path = save_result(result, cfg, cfg.out_dir)
        print(f"wrote {path}")
    else:
        print(canonical_json({"config": cfg.to_dict(), **result}))


def _write_json(path, payload) -> None:
    """Write payload as indented JSON to ``path``, or to stdout when no path
    is given."""
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _write_csv(path, fieldnames, rows) -> None:
    """Write rows as CSV to ``path``, or to stdout when no path is given."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _build_spec(args) -> CantorSpec:
    M, N = args.M or 3, args.N or 2
    if args.selector == "middle":
        return middle_spec(M, N)
    table = json.loads(Path(args.selector_file).read_text())
    prefix_table = {
        tuple(int(x) for x in key.split(",") if x != ""): tuple(val)
        for key, val in table.get("prefixes", {}).items()
    }
    default = tuple(table.get("default", (0, M - 1)))
    sel = make_table_selector(M, prefix_table, default)
    return CantorSpec(M=M, N=N, selector=sel, name="custom")


def _build_curve(args, d: int):
    if args.curve in ("affine", "moment"):
        return builtin_curve(args.curve, d)
    rows = json.loads(Path(args.curve_file).read_text())
    return curve_from_rows(rows)


def cmd_cantor(args) -> int:
    spec = _build_spec(args)
    curve = _build_curve(args, args.d or 1)
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
        "bilipschitz": {"lower": ds.lip_lo, "upper": ds.lip_hi},
    }
    _write_json(args.out, payload)
    return 0


def cmd_slopes(args) -> int:
    cfg = _config_from_args(args)
    dirset = build_dirset(cfg, cfg.N)
    assignment = assignment_from_dirset(dirset, cfg.d, cfg.seed)
    B = cfg.M**cfg.d
    rows = []
    for i in range(B**cfg.N):
        leaf = leaf_from_index(i, B, cfg.N)
        tau = assignment.tau(leaf)
        rows.append(
            {
                "t": list(leaf),
                "tau": list(tau),
                "sigma_exact": [str(c) for c in assignment.sigma(leaf)],
                "sigma_float": [float(c) for c in assignment.sigma(leaf)],
            }
        )
    _write_json(args.out, {"config": cfg.to_dict(), "rows": rows})
    return 0


def cmd_volume(args) -> int:
    cfg = _config_from_args(args)
    dirset = build_dirset(cfg, cfg.N)
    assignment = assignment_from_dirset(dirset, cfg.d, cfg.seed)
    centers, slopes = assignment_arrays(assignment)
    c0 = offset_constant(cfg.d, dirset.lip_lo)
    lo, hi = (0.0, 1.0) if args.range == "near" else (float(c0), float(c0) + 1.0)
    width = float(cfg.M) ** (-cfg.N)
    rows = []
    total = 0.0
    for k in slab_indices(cfg.M, cfg.N, lo, hi):
        v, _ = union_volume(
            centers,
            slopes,
            k * width,
            (k + 1) * width,
            cfg.M,
            cfg.N,
            samples=args.samples_per_slab,
        )
        rows.append({"k": k, "x_lo": k * width, "volume": v})
        total += v
    _write_csv(args.out, ["k", "x_lo", "volume"], rows)
    print(f"# total {args.range} volume: {total}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    rows = []
    for N in cfg.ns():
        cfg.guard(N)
        for i in range(cfg.samples):
            m = kakeya_measures(sample_assignment(cfg, N, i), samples=cfg.quadrature)
            rows.append({"N": N, "sample": i, **m})
    _emit({"experiment": "simulate", "rows": rows}, cfg)
    return 0


def cmd_slab_moments(args) -> int:
    cfg = _config_from_args(args)
    moments = slab_moments if args.second else slab_first_moment
    _emit(moments(cfg, exhaustive=args.exhaustive), cfg)
    return 0


def cmd_lower_bound(args) -> int:
    cfg = _config_from_args(args)
    _emit(lower_bound_experiment(cfg), cfg)
    return 0


def cmd_upper_bound(args) -> int:
    cfg = _config_from_args(args)
    result = upper_bound_experiment(cfg)
    if args.pointwise:
        result["pointwise"] = [
            pointwise_percolation_bound(cfg, N, grid=args.grid) for N in cfg.ns()
        ]
    _emit(result, cfg)
    return 0


def cmd_prob_oracle(args) -> int:
    cfg = _config_from_args(args)
    N = cfg.N
    B = cfg.M**cfg.d
    leaves = [leaf_from_index(i, B, N) for i in range(B**N)]
    rng = random.Random(cfg.seed)
    if args.tuples == "exhaustive":
        combos = itertools.permutations(range(len(leaves)), 4)
    else:
        combos = (
            tuple(rng.sample(range(len(leaves)), 4)) for _ in range(args.count)
        )
    rows = []
    for combo in combos:
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
        if len(rows) >= args.count:
            break
    _write_csv(args.out, ["tuple", "class", "closed_form", "enumerated", "match"], rows)
    bad = sum(1 for r in rows if not r["match"])
    print(f"# {len(rows)} tuples, {bad} mismatches", file=sys.stderr)
    return 0 if bad == 0 else 1


def _tree_from_args(args, cfg: ExperimentConfig) -> FiniteTree:
    if args.tree == "full-binary":
        return FiniteTree.full(2, args.height)
    dirset = build_dirset(cfg, cfg.N)
    point = tuple(float(x) for x in args.point.split(","))
    poss = poss_set(point, dirset, cfg.N, cfg.d)
    if len(poss) == 0:
        raise SystemExit("point is reachable from no root cube")
    return FiniteTree.from_leaves(poss.roots())


def cmd_percolate(args) -> int:
    cfg = _config_from_args(args)
    tree = _tree_from_args(args, cfg)
    r = resistance(tree)
    lo, hi = lyons_bounds(r)
    est, half = survival_mc(tree, cfg.seed, args.mc_samples)
    payload = {
        "vertices": len(tree.vertices),
        "height": tree.height,
        "survival_exact": str(survival_exact(tree)),
        "survival_exact_float": float(survival_exact(tree)),
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


def cmd_verify(args) -> int:
    results = run_checks(args.groups or None, seed=args.seed or 0)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_iid_audit(args) -> int:
    cfg = _config_from_args(args)
    result = percolation_iid_audit(cfg, fields=args.fields)
    _emit({"experiment": "iid-audit", "rows": [result]}, cfg)
    return 0 if result["pass"] else 1


def cmd_resistance_growth(args) -> int:
    cfg = _config_from_args(args)
    _emit(resistance_growth(cfg, points=args.points), cfg)
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
    p.add_argument("--M", type=int, default=3)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--selector", choices=["middle", "custom-file"], default="middle")
    p.add_argument("--selector-file", type=Path)
    p.add_argument("--curve", default="affine")
    p.add_argument("--curve-file", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_cantor)

    p = sub.add_parser("slopes", help="dump (t, tau(t), sigma(t)) for one field")
    _add_common(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_slopes)

    p = sub.add_parser("volume", help="per-slab volumes of one realization")
    _add_common(p)
    p.add_argument("--samples-per-slab", type=int, default=4)
    p.add_argument("--range", choices=["near", "far"], default="near")
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("simulate", help="near/far measure sweep over realizations")
    _add_common(p, sweep=True, samples=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("slab-moments", help="pairwise slab intersection moments")
    _add_common(p, sweep=True, samples=True)
    p.add_argument("--second", action="store_true", help="also the second moment")
    p.add_argument("--exhaustive", action="store_true", help="enumerate all fields")
    p.set_defaults(fn=cmd_slab_moments)

    p = sub.add_parser("lower-bound", help="near-volume lower-quantile experiment")
    _add_common(p, sweep=True, samples=True)
    p.set_defaults(fn=cmd_lower_bound)

    p = sub.add_parser("upper-bound", help="far-volume decay experiment")
    _add_common(p, sweep=True, samples=True)
    p.add_argument("--pointwise", action="store_true", help="percolation bound integral")
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(fn=cmd_upper_bound)

    p = sub.add_parser("prob-oracle", help="classification vs enumeration table")
    _add_common(p)
    p.add_argument("--tuples", choices=["exhaustive", "random"], default="random")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_prob_oracle)

    p = sub.add_parser("percolate", help="survival probability of a tree")
    _add_common(p)
    p.add_argument("--tree", choices=["full-binary", "from-poss"], default="full-binary")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--point", help="comma-separated point for from-poss")
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.set_defaults(fn=cmd_percolate)

    p = sub.add_parser("resist", help="resistance of a tree network")
    _add_common(p)
    p.add_argument("--tree", choices=["full-binary", "from-poss"], default="full-binary")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--point", help="comma-separated point for from-poss")
    p.set_defaults(fn=cmd_resist)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("groups", nargs="*", help="tree cantor sticky geometry percolation config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("iid-audit", help="edge-bit consistency and uniformity tests")
    _add_common(p, sweep=True)
    p.add_argument("--fields", type=int, default=10_000)
    p.set_defaults(fn=cmd_iid_audit)

    p = sub.add_parser("resistance-growth", help="R(Poss(x)) versus N")
    _add_common(p, sweep=True)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(fn=cmd_resistance_growth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
