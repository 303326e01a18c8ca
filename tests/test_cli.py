import csv
import gc
import itertools
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kakeya import cantor, harness
from kakeya.cli import build_parser, main
from kakeya.sticky import SlopeAssignment, field_key
from kakeya.trees import index_from_leaf, leaf_from_index
from kakeya.tubes import assignment_arrays, kakeya_measures, union_volume
from oracles import ray_bits


def test_cantor_dump(tmp_path, capsys):
    out = tmp_path / "cantor.json"
    assert main(["cantor", "--M", "3", "--N", "2", "--curve", "moment", "--d", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["representatives"] == ["0", "2/9", "2/3", "8/9"]
    assert payload["slopes"][1]["exact"] == ["1", "2/9", "4/81"]
    assert payload["intervals"][1]["digits"] == [0, 2]
    assert payload["bilipschitz"] == {"lower": 1.0, "upper": 5**0.5, "squared": ["1", "5"]}


def test_cantor_custom_selector(tmp_path):
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"default": [0, 3], "prefixes": {"0": [1, 4]}}))
    out = tmp_path / "c.json"
    rc = main(
        [
            "cantor",
            "--M",
            "5",
            "--N",
            "2",
            "--selector-file",
            str(sel),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["intervals"][0]["digits"] == [0, 1]


def test_cantor_reads_curve_file(tmp_path, capsys):
    rows = tmp_path / "curve.json"
    rows.write_text(json.dumps([["0", "-1/2"]]))  # t -> (1, -t/2)
    assert main(["cantor", "--curve-file", str(rows)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["representatives"][1] == "2/9"
    assert payload["slopes"][1]["exact"] == ["1", "-1/9"]


MALFORMED_SELECTORS = [
    {"default": [0, 1]},
    {"default": "x"},
    {"default": [0]},
    {"prefixes": {"a": [0, 2]}},
    {"prefixes": {"0": 5}},
    {"prefixes": []},
    {"prefixes": {"": [0, 2, 4]}},
    {"prefixes": {"9": [0, 2]}},
    {"defaults": [0, 2]},
]
MALFORMED_CURVES = [
    '[["a"]]', '[["0", "3"]]', "[]", "[[]]", "[[1, [2]]]", '[["1/0"]]', "[5]", "[[Infinity]]",
    "[[null]]", "[[0, true]]",
]


@pytest.mark.parametrize(
    "flag, text",
    [("--selector-file", json.dumps(s)) for s in MALFORMED_SELECTORS]
    + [("--curve-file", c) for c in MALFORMED_CURVES],
)
def test_malformed_cantor_input_is_one_line(tmp_path, capsys, flag, text):
    """A readable selector or curve file with bad contents stops the run
    with one line naming the file, not a traceback, and is never accepted."""
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["cantor", "--M", "5", "--N", "2", flag, str(path)])
    assert exc.value.code.startswith(f"{path}: ") and "\n" not in exc.value.code
    assert capsys.readouterr().out == ""


def _check_slopes_rows(payload, cfg):
    """Each row's tau is the ray of the field's bits, walked one edge at a
    time, and its sigma the slope that address names."""
    dirset = harness.build_dirset(cfg, cfg.N)
    B = cfg.M**cfg.d
    key = field_key(cfg.seed, B)
    assert len(payload["rows"]) == B**cfg.N
    for i, row in enumerate(payload["rows"]):
        leaf = leaf_from_index(i, B, cfg.N)
        tau = ray_bits(key, B, leaf)
        slope = dirset.slopes[index_from_leaf(tau, 2)]
        assert row["t"] == list(leaf)
        assert row["tau"] == list(tau)
        assert row["sigma_exact"] == [str(c) for c in slope]
        assert row["sigma_float"] == [float(c) for c in slope]


def test_slopes_dump(tmp_path):
    out = tmp_path / "slopes.json"
    assert main(["slopes", "--seed", "5", "--M", "3", "--N", "2", "--d", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 9
    row = payload["rows"][0]
    assert len(row["tau"]) == 2
    assert row["sigma_float"][0] == 1.0
    assert sorted(payload["config"]) == ["M", "N", "backend", "curve", "d", "seed"]
    _check_slopes_rows(payload, harness.ExperimentConfig(M=3, N=2, d=1, seed=5))


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_slopes_dump_d2_is_indented_json(tmp_path, capsys, to_file):
    """Rows are written one at a time; the text is still exactly the
    indented dump of the whole payload, to a file and to stdout."""
    out = tmp_path / "slopes.json"
    argv = ["slopes", "--seed", "3", "--N", "2", "--d", "2", "--curve", "moment"]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 0
    text = capsys.readouterr().out
    if to_file:
        assert text == f"wrote {out}\n"
        text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    _check_slopes_rows(json.loads(text), harness.ExperimentConfig(N=2, d=2, curve="moment", seed=3))


def test_volume_csv(tmp_path, capsys):
    out = tmp_path / "vol.csv"
    rc = main(
        [
            "volume",
            "--seed",
            "1",
            "--M",
            "3",
            "--N",
            "2",
            "--d",
            "1",
            "--samples-per-slab",
            "2",
            "--range",
            "near",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x_lo,volume"
    assert len(lines) == 10  # 9 slabs + header


@pytest.mark.parametrize("window, k0", [("near", 0), ("far", 2 * 3**5)])  # c0 = 2
def test_volume_csv_n5_slabs(tmp_path, window, k0):
    """At N=5 the float 1.0 / 3.0**-5 is just below 243; still every slab of
    the window is written, each the ``union_volume`` of its slab bit for
    bit, and the slabs add up to the window's volume."""
    out = tmp_path / "vol.csv"
    argv = ["volume", "--seed", "7", "--N", "5", "--range", window, "--out", str(out)]
    assert main(argv) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == list(range(k0, k0 + 3**5))
    dirset = harness.build_dirset(harness.ExperimentConfig(N=5), 5)
    expected = kakeya_measures(SlopeAssignment(dirset, 7), samples=4)[window]
    assert sum(float(r["volume"]) for r in rows) == pytest.approx(expected, rel=0, abs=1e-12)
    centers, slopes = assignment_arrays(SlopeAssignment(dirset, 7))
    width = 3.0**-5
    for r in rows:
        k = int(r["k"])
        assert float(r["volume"]) == union_volume(
            centers, slopes, k * width, (k + 1) * width, 3, 5, samples=4
        )


def test_volume_d3_far_window_is_exact(tmp_path, capsys):
    """The d=3 window total is the exact union volume, not a sampled 0."""
    argv = ["volume", "--seed", "7", "--d", "3", "--N", "1", "--range", "far"]
    assert main(argv + ["--out", str(tmp_path / "vol.csv")]) == 0
    total = float(capsys.readouterr().err.rsplit(":", 1)[1])
    dirset = harness.build_dirset(harness.ExperimentConfig(N=1, d=3), 1)
    expected = kakeya_measures(SlopeAssignment(dirset, 7), samples=4)["far"]
    assert total > 0.0
    assert total == pytest.approx(expected, rel=0, abs=1e-12)


def _reject_non_finite(constant):
    raise AssertionError(f"non-finite JSON value {constant}")


@pytest.mark.parametrize("command", ["simulate", "upper-bound"])
def test_d3_experiments_write_finite_json(capsys, command):
    """With exact d=3 volumes the far window is never 0, so every ratio is
    finite and the canonical JSON writer accepts the result."""
    assert main([command, "--d", "3", "--N", "1", "--samples", "2"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    far = [r["far"] if command == "simulate" else r["far_mean"] for r in payload["rows"]]
    assert far and all(v > 0.0 for v in far)


def test_simulate_outdir(tmp_path):
    rc = main(
        [
            "simulate",
            "--M",
            "3",
            "--N",
            "2",
            "--samples",
            "4",
            "--seed",
            "3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    files = [f for f in tmp_path.glob("simulate-*.json") if not f.name.endswith(".meta.json")]
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert len(payload["rows"]) == 4
    assert all(r["dilate_ratio_bound"] >= 1 for r in payload["rows"])


def test_slab_moments_exhaustive(tmp_path, capsys):
    rc = main(
        [
            "slab-moments",
            "--M",
            "3",
            "--N",
            "2",
            "--exhaustive",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["samples"] == 4096
    # a mean over every edge field has no sampling error
    assert [r["ci99"] for r in payload["rows"] + payload["second_rows"]] == [0.0, 0.0]


def _record(out_dir: Path) -> Path:
    (path,) = [f for f in out_dir.glob("*.json") if not f.name.endswith(".meta.json")]
    return path


_SWEEP = ["M", "backend", "curve", "d", "quadrature", "samples", "seed"]
_SLAB = ["M", "backend", "curve", "d", "samples", "seed", "slab_offsets"]
_GROWTH = ["M", "backend", "curve", "d", "seed"]

# Every run that writes a record: the subcommand with its mode flags, the
# inputs its block records, config fields it does not read, and the keys
# of its block.
RECORD_RUNS = [
    pytest.param(["simulate"], ["--N", "2", "--samples", "2"], {"slab_offsets": [3]}, ["N", *_SWEEP], id="simulate"),
    pytest.param(["simulate"], ["--N-range", "2:3", "--samples", "1"], {"N": 9}, ["n_values", *_SWEEP], id="simulate-swept"),
    pytest.param(["slab-moments"], ["--N", "2", "--samples", "2"], {"quadrature": 8}, ["N", *_SLAB], id="slab-moments"),
    pytest.param(
        ["slab-moments", "--exhaustive"], ["--N", "2"], {"seed": 5, "samples": 7, "quadrature": 8},
        ["M", "N", "backend", "curve", "d", "slab_offsets"], id="slab-moments-exhaustive",
    ),
    pytest.param(["lower-bound"], ["--N", "3", "--samples", "100"], {"slab_offsets": [3]}, ["N", *_SWEEP], id="lower-bound"),
    pytest.param(["upper-bound"], ["--N", "3", "--samples", "2"], {"slab_offsets": [3]}, ["N", *_SWEEP], id="upper-bound"),
    pytest.param(
        ["upper-bound"], ["--N", "3", "--samples", "2", "--pointwise", "2"], {"slab_offsets": [3]},
        ["N", "pointwise", *_SWEEP], id="upper-bound-pointwise",
    ),
    pytest.param(
        ["iid-audit"], ["--N", "4", "--fields", "200"], {"samples": 7, "quadrature": 8},
        ["N", "fields", *_GROWTH], id="iid-audit",
    ),
    pytest.param(
        ["resistance-growth"], ["--N", "4", "--points", "3"], {"samples": 7, "quadrature": 8, "slab_offsets": [3]},
        ["N", "points", *_GROWTH], id="resistance-growth",
    ),
]


@pytest.mark.parametrize("mode, inputs, unread, keys", RECORD_RUNS)
def test_exhaustive_slab_record_names_only_what_it_reads(tmp_path, capsys, mode, inputs, unread, keys):
    """A record and its hash hold exactly the inputs the run reads, so
    config files that differ only in fields it does not read give the
    same stdout and the same saved record."""
    cfg_file = tmp_path / "cfg.json"
    extras = [{}] + [{k: v} for k, v in unread.items()]
    outs, records = [], []
    for i, extra in enumerate(extras):
        cfg_file.write_text(json.dumps(extra))
        argv = mode + inputs + ["--config", str(cfg_file)]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        assert main(argv + ["--out-dir", str(tmp_path / str(i))]) == 0
        capsys.readouterr()
        record = _record(tmp_path / str(i))
        records.append((record.name, record.read_bytes()))
    assert outs == outs[:1] * len(extras)
    assert records == records[:1] * len(extras)
    config = json.loads(outs[0])["config"]
    assert sorted(config) == sorted(keys)
    assert json.loads(records[0][1]).get("seed") == config.get("seed")


def test_percolate_full_binary(capsys):
    assert main(["percolate", "--height", "2", "--mc-samples", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["survival_exact"] == "39/64"
    assert payload["resistance"] == "1"
    assert payload["lyons_lower"] == 0.5


def test_percolate_from_poss(capsys):
    rc = main(
        [
            "percolate",
            "--point",
            "2.5,0.5",
            "--M",
            "3",
            "--N",
            "5",
            "--d",
            "1",
            "--mc-samples",
            "1000",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["height"] == 5
    assert 0 < payload["survival_exact_float"] < 1


def test_resist_from_poss(capsys):
    rc = main(
        ["resist", "--point", "2.5,0.5", "--M", "3", "--N", "4", "--d", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level_counts"][0] == 1
    assert float(payload["shorted_resistance_float"]) <= float(payload["resistance_float"]) + 1e-12


def test_prob_oracle_random(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    rc = main(
        [
            "prob-oracle",
            "--M",
            "3",
            "--N",
            "3",
            "--d",
            "1",
            "--tuples",
            "random",
            "--count",
            "10",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith("True") for line in lines[1:])


def test_prob_oracle_exhaustive(tmp_path, capsys):
    """--tuples exhaustive takes the 4-permutations of the leaves in order."""
    out = tmp_path / "oracle.csv"
    argv = ["prob-oracle", "--M", "3", "--N", "2", "--tuples", "exhaustive", "--count", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    leaves = [leaf_from_index(i, 3, 2) for i in range(9)]
    combos = itertools.islice(itertools.permutations(range(9), 4), 5)
    expected = [str([list(leaves[i]) for i in combo]) for combo in combos]
    assert [row["tuple"] for row in rows] == expected
    assert all(row["match"] == "True" for row in rows)


def test_lower_bound_cli(capsys):
    rc = main(
        ["lower-bound", "--M", "3", "--N", "3", "--samples", "120", "--seed", "4"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fitted_c"] > 0


def test_config_file_roundtrip(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"M": 3, "N": 2, "samples": 3, "seed": 9}))
    rc = main(["simulate", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert rc == 0
    files = [f for f in tmp_path.glob("simulate-*.json") if not f.name.endswith(".meta.json")]
    payload = json.loads(files[0].read_text())
    assert payload["config"]["seed"] == 9
    assert payload["config"]["samples"] == 3


# leaf_budget is the harness constant LEAF_BUDGET, not a config field
@pytest.mark.parametrize("extra", [{"sample": 3}, {"selector": "middle"}, {"leaf_budget": 10}])
def test_config_file_rejects_unknown_keys(tmp_path, extra):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"M": 3, "N": 2, "samples": 3, **extra}))
    with pytest.raises(SystemExit, match=f"unknown config keys: {next(iter(extra))}$"):
        main(["simulate", "--config", str(cfg_file)])


@pytest.mark.parametrize("mode, inputs, unread, keys", RECORD_RUNS)
def test_config_file_accepts_saved_config(tmp_path, capsys, mode, inputs, unread, keys):
    """The config block of a saved record, backend and the run's own
    counts included, replays it byte for byte with only the mode flags."""
    assert main(mode + inputs + ["--out-dir", str(tmp_path / "a")]) == 0
    first = _record(tmp_path / "a")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert main(mode + ["--config", str(cfg_file), "--out-dir", str(tmp_path / "b")]) == 0
    assert _record(tmp_path / "b").name == first.name
    assert (tmp_path / "b" / first.name).read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "config, flags, ns, depth",
    [
        ({"n_values": [2, 3]}, ["--N", "4"], [4], {"N": 4}),
        ({"N": 4}, ["--N-range", "2:3"], [2, 3], {"n_values": [2, 3]}),
    ],
)
def test_explicit_depth_flag_overrides_config_depth(tmp_path, capsys, config, flags, ns, depth):
    """An explicit --N drops the file's n_values, and --N-range its N."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["simulate", "--samples", "1", "--config", str(cfg_file), *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in payload["rows"]] == ns
    assert {k: v for k, v in payload["config"].items() if k in ("N", "n_values")} == depth


@pytest.mark.parametrize(
    "argv, flag, values",
    [
        (["resistance-growth", "--N", "4"], "--points", ("5", "9")),
        (["iid-audit", "--N", "4"], "--fields", ("200", "201")),
        (["upper-bound", "--N", "3", "--samples", "2"], "--pointwise", ("1", "2")),
    ],
)
def test_run_inputs_enter_the_record_identity(tmp_path, argv, flag, values):
    """Runs that differ only in a count of their own write different
    records, each named by the hash of the config block it holds."""
    names = set()
    for value in values:
        out = tmp_path / value
        assert main(argv + [flag, value, "--out-dir", str(out)]) == 0
        (path,) = [f for f in out.glob("*.json") if not f.name.endswith(".meta.json")]
        config = json.loads(path.read_text())["config"]
        assert config[flag[2:]] == int(value)
        assert path.stem.rsplit("-", 1)[1] == harness.block_hash(config)
        names.add(path.name)
    assert len(names) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-bound", "--N", "3", "--samples", "1"],
        ["upper-bound", "--N", "3", "--samples", "2", "--pointwise", "1"],
    ],
)
def test_ci99_of_one_value_is_zero(capsys, argv):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    if "--pointwise" in argv:  # the one far point reaches no tube at N=3
        assert payload["pointwise"][0]["ci99"] == 0.0
        assert payload["pointwise"][0]["min_resistance"] is None
    else:
        assert payload["rows"][0]["far_ci99"] == 0.0


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of ``owner.name``, which still runs."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_slab_moments_computes_each_sum_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, harness, "pair_sum_over_range")
    fields = _count_calls(monkeypatch, harness.SlopeAssignment, "all_slope_indices")
    assert main(["slab-moments", "--N", "3", "--samples", "3", "--seed", "4"]) == 0
    assert len(calls) == 2 * 3  # slabs N-R = 2, 3, three samples each
    assert len(fields) == 3  # each sample realized once, for both slabs
    payload = json.loads(capsys.readouterr().out)
    cfg = harness.ExperimentConfig(N=3, samples=3, seed=4)
    assert payload["rows"] == harness.slab_first_moment(cfg)["rows"]
    assert payload["second_rows"] == harness.slab_second_moment(cfg)["rows"]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--N", "2", "--samples-per-slab", "1"],
        ["prob-oracle", "--N", "2", "--count", "3"],
    ],
)
def test_out_file_closed(tmp_path, argv):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(out.read_text().splitlines()) > 1


def test_exhaustive_slab_moments_enumerate_once_per_depth(tmp_path, monkeypatch, capsys):
    """Every edge field is enumerated once per N, for all of its slabs."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"slab_offsets": [1, 2]}))
    calls = _count_calls(monkeypatch, harness, "pair_sum_over_range")
    enumerations = _count_calls(monkeypatch, harness, "all_fields_exhaustive")
    argv = ["slab-moments", "--exhaustive", "--N-range", "1:2", "--config", str(cfg_file)]
    assert main(argv) == 0
    assert [a[1] for a in enumerations] == [1, 2]
    assert len(calls) == 2**3 + 2 * 2**12  # N=1: one slab of 8 fields; N=2: two of 4,096
    payload = json.loads(capsys.readouterr().out)
    assert [(r["N"], r["R"], r["samples"]) for r in payload["rows"]] == [(1, 0, 8), (2, 1, 4096), (2, 0, 4096)]


def test_second_flag_rejected(capsys):
    """slab-moments always writes both moments, so there is no --second."""
    with pytest.raises(SystemExit) as exc:
        main(["slab-moments", "--N", "2", "--samples", "2", "--second"])
    assert exc.value.code == 2
    assert "--second" in capsys.readouterr().err


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--N", "2", "--samples", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["volume", "--N", "2", "--samples", "7", "--N-range", "2:4", "--out-dir", "od"], "--samples"),
        (["volume", "--N", "2", "--N-range", "2:4"], "--N-range"),
        (["volume", "--N", "2", "--out-dir", "od"], "--out-dir"),
        (["slopes", "--N", "2", "--samples", "7"], "--samples"),
        (["prob-oracle", "--N", "2", "--count", "1", "--N-range", "2:3"], "--N-range"),
        (["percolate", "--height", "1", "--mc-samples", "10", "--out-dir", "od"], "--out-dir"),
        (["resist", "--height", "1", "--samples", "7"], "--samples"),
        (["iid-audit", "--N", "4", "--fields", "2", "--samples", "7"], "--samples"),
        (["resistance-growth", "--N", "4", "--points", "1", "--samples", "7"], "--samples"),
        (["resist", "--point", "2.5,0.5", "--N", "4", "--seed", "2"], "--seed"),
        (["prob-oracle", "--N", "2", "--count", "1", "--curve", "moment"], "--curve"),
        (["upper-bound", "--N", "3", "--samples", "2", "--grid", "5"], "--grid"),
    ],
)
def test_ignored_flag_rejected(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "od").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["percolate", "--height", "2", "--mc-samples", "10", "--N", "9"], "--N"),
        (["percolate", "--mc-samples", "10", "--curve", "moment"], "--curve"),
        (["resist", "--height", "2", "--M", "5"], "--M"),
        (["resist", "--d", "2"], "--d"),
        (["resist", "--config", "cfg.json"], "--config"),
        (["resist", "--point", "2.5,0.5", "--height", "2"], "--height"),
        (["slab-moments", "--N", "2", "--exhaustive", "--samples", "3"], "--samples"),
        (["slab-moments", "--N", "2", "--exhaustive", "--seed", "5"], "--seed"),
        (["prob-oracle", "--N", "2", "--count", "2", "--tuples", "exhaustive", "--seed", "1"], "--seed"),
        (["cantor", "--curve-file", "rows.json", "--d", "2"], "--d"),
        (["cantor", "--curve", "moment", "--curve-file", "rows.json"], "--curve-file"),
        (["simulate", "--N", "3", "--N-range", "2:3", "--samples", "1"], "--N-range"),
        (["simulate", "--N-range", "5:3", "--samples", "1"], "--N-range"),
    ],
)
def test_unread_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    """A flag that the mode chosen by the other inputs would not read, or
    that another flag excludes, stops the run before any work."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{}")
    (tmp_path / "rows.json").write_text(json.dumps([["0", "1"], ["0", "0", "1"]]))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--N", "1"], ["--d", "2", "--curve", "moment", "--N", "3"]])
def test_iid_audit_without_a_point_is_a_one_line_error(capsys, argv):
    """No point with 4 or more possible roots in the audit's draws: one
    line on stderr and exit code 2, not a traceback."""
    assert main(["iid-audit", *argv, "--fields", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "4 or more possible roots" in captured.err


def test_resistance_growth_without_a_point_is_a_one_line_error(capsys):
    """No far point of the draws hits a tube: one line on stderr and exit
    code 2, as for the audit."""
    assert main(["resistance-growth", "--N", "3", "--d", "3", "--curve", "moment", "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "kakeya resistance-growth: no far point hit any tube in 60 draws (M=3, N=3, d=3)"
    ]


def test_iid_audit_finds_its_point_in_the_reachable_strip(capsys):
    # drawn from [-0.5, 0.5] instead, seed 2 had no 4-root point at N=4
    assert main(["iid-audit", "--N-range", "4:4", "--seed", "2", "--fields", "2000"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["pass"]


def test_iid_audit_writes_one_row_per_n(capsys):
    assert main(["iid-audit", "--N-range", "4:5", "--fields", "200"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["N"] for r in rows] == [4, 5]
    assert rows[0]["edges"] < rows[1]["edges"]


def test_volume_reads_config_quadrature(tmp_path, capsys):
    """The nodes per slab come from the config's quadrature, and
    --samples-per-slab overrides it."""
    assignment = SlopeAssignment(harness.build_dirset(harness.ExperimentConfig(N=3), 3), 7)
    expected = {q: kakeya_measures(assignment, samples=q)["near"] for q in (1, 4)}
    assert expected[1] != expected[4]
    cfg_file = tmp_path / "cfg.json"
    for config_q, flags, q in [(1, [], 1), (4, [], 4), (4, ["--samples-per-slab", "1"], 1)]:
        cfg_file.write_text(json.dumps({"quadrature": config_q}))
        assert main(["volume", "--config", str(cfg_file), "--N", "3", "--seed", "7", *flags]) == 0
        total = float(capsys.readouterr().err.split(":")[1])
        assert total == pytest.approx(expected[q], rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["slab-moments", "--N", "2", "--samples", "0"], None, "argument --samples: '0'"),
        (["upper-bound", "--N", "3", "--samples", "0"], None, "argument --samples: '0'"),
        (["upper-bound", "--N", "3", "--samples", "2", "--pointwise", "0"], None, "argument --pointwise: '0'"),
        (["simulate", "--N", "2", "--samples", "-1"], None, "argument --samples: '-1'"),
        (["resistance-growth", "--N", "3", "--points", "0"], None, "argument --points: '0'"),
        (["volume", "--N", "2", "--samples-per-slab", "0"], None, "argument --samples-per-slab: '0'"),
        (["iid-audit", "--N", "4", "--fields", "0"], None, "argument --fields: '0'"),
        (["prob-oracle", "--N", "2", "--count", "0"], None, "argument --count: '0'"),
        (["percolate", "--height", "2", "--mc-samples", "0"], None, "argument --mc-samples: '0'"),
        (["resist", "--height", "0"], None, "argument --height: '0'"),
        (["simulate", "--N", "2"], {"samples": 0}, "samples must be at least 1"),
        (["simulate", "--N", "2", "--samples", "1"], {"quadrature": 0}, "quadrature must be at least 1"),
        (["lower-bound", "--N", "3", "--samples", "2"], None, "argument --samples: lower-bound needs at least 100"),
        (["simulate", "--N", "0", "--samples", "1"], None, "argument --N: '0'"),
        (["simulate", "--M", "2", "--N", "2", "--samples", "1"], None, "argument --M: '2'"),
        (["simulate", "--d", "0", "--N", "2", "--samples", "1"], None, "argument --d: '0'"),
        (["simulate", "--N-range", "0:2", "--samples", "1"], None, "argument --N-range: '0:2'"),
        (["cantor", "--M", "2"], None, "argument --M: '2'"),
        (["cantor", "--N", "0"], None, "argument --N: '0'"),
        (["cantor", "--d", "0"], None, "argument --d: '0'"),
        (["simulate", "--samples", "1"], {"M": 2}, "M must be at least 3"),
        (["simulate", "--samples", "1"], {"N": 0}, "N must be at least 1"),
        (["simulate", "--samples", "1"], {"d": 0}, "d must be at least 1"),
        (["simulate", "--samples", "1"], {"n_values": [0, 2]}, "n_values must be at least 1"),
        (["resistance-growth", "--N", "3"], {"points": 0}, "points must be at least 1"),
        (["slopes"], {"n_values": [2, 3]}, "n_values is read only by a subcommand with --N-range"),
        (["volume"], {"n_values": [2, 3]}, "n_values is read only by a subcommand with --N-range"),
        (["prob-oracle", "--count", "1"], {"n_values": [2]}, "n_values is read only by a subcommand with --N-range"),
        (["percolate", "--point", "2.5,0.5"], {"n_values": [2]}, "n_values is read only by a subcommand with --N-range"),
        (["resist", "--point", "2.5,0.5"], {"n_values": [2]}, "n_values is read only by a subcommand with --N-range"),
        (["simulate", "--N", "2", "--samples", "1"], {"curve": "foo"}, "curve must be one of ['affine', 'moment'], got 'foo'"),
        (["prob-oracle", "--N", "1"], None, "4-tuples need at least 4 leaves, but M^(N*d) = 3"),
        (["prob-oracle", "--N", "1", "--tuples", "exhaustive"], None, "4-tuples need at least 4 leaves, but M^(N*d) = 3"),
        (["percolate", "--point", "2.5"], None, "argument --point: needs 1 + d = 2 coordinates, got 1"),
        (["resist", "--point", "2.5,0.5,0.5"], None, "argument --point: needs 1 + d = 2 coordinates, got 3"),
        (["resist", "--point", "2.5,0.5", "--d", "2"], None, "argument --point: needs 1 + d = 3 coordinates, got 2"),
        (["percolate", "--point", "2.5,x"], None, "argument --point: '2.5,x' is not comma-separated numbers"),
        (["simulate", "--N", "2", "--samples", "1"], {"M": "3"}, "M must be an integer, got '3'"),
        (["simulate", "--N", "2"], {"samples": 2.5}, "samples must be an integer, got 2.5"),
        (["simulate", "--N", "2", "--samples", "1"], {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (["slab-moments", "--N", "2", "--samples", "1"], {"slab_offsets": [0.5]}, "slab_offsets must be a list of integers, got [0.5]"),
        (["slab-moments", "--N", "2", "--samples", "1"], {"slab_offsets": None}, "slab_offsets must be a list of integers, got None"),
        (["simulate", "--samples", "1"], {"n_values": 3}, "n_values must be a list of integers, got 3"),
        (["simulate", "--N", "2", "--samples", "1"], {"curve": ["affine"]}, "curve must be one of ['affine', 'moment'], got ['affine']"),
        (["simulate", "--N", "2", "--samples", "1"], {"out_dir": 5}, "out_dir must be a path, got 5"),
        (["slab-moments", "--N", "3", "--samples", "2"], {"slab_offsets": [0, -1]}, "slab_offsets must be at least 1, got [0, -1]"),
        (["simulate", "--N-range", "3", "--samples", "1"], None, "argument --N-range: '3' is not a range of depths >= 1"),
        (["simulate", "--N-range", "a:b", "--samples", "1"], None, "argument --N-range: 'a:b' is not a range of depths >= 1"),
        (["simulate", "--N-range", "1:2:3", "--samples", "1"], None, "argument --N-range: '1:2:3' is not a range of depths >= 1"),
        (["percolate", "--point", "nan,0.5"], None, "argument --point: 'nan,0.5' has a coordinate that is not finite"),
        (["percolate", "--point", "inf,0.5"], None, "argument --point: 'inf,0.5' has a coordinate that is not finite"),
        (["resist", "--point", "nan,0.5"], None, "argument --point: 'nan,0.5' has a coordinate that is not finite"),
        (["resist", "--point", "2.5,-inf"], None, "argument --point: '2.5,-inf' has a coordinate that is not finite"),
    ],
)
def test_count_below_one_rejected(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_file)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert message in f"{exc.value.code}\n{capsys.readouterr().err}"
    if config is None:  # a refused flag is a usage error
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, wrong_kind",
    [
        (["simulate", "--N", "2", "--samples", "1", "--config"], "[3]"),
        (["cantor", "--selector-file"], "[0, 3]"),
        (["cantor", "--curve-file"], '{"rows": [["0", "-1/2"]]}'),
    ],
    ids=["config", "selector-file", "curve-file"],
)
@pytest.mark.parametrize(
    "fault, message",
    [("missing", "No such file or directory"), ("malformed", "Expecting value"), ("wrong kind", "expected an ")],
    ids=["missing", "malformed", "wrong-kind"],
)
def test_unreadable_input_file_is_one_line(tmp_path, argv, wrong_kind, fault, message):
    """A missing, malformed or wrongly shaped input file stops the run with
    one line naming the file, not a traceback."""
    path = tmp_path / "in.json"
    if fault != "missing":
        path.write_text(wrong_kind if fault == "wrong kind" else "not json")
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code.startswith(f"{path}: ")
    assert message in exc.value.code


@pytest.mark.parametrize(
    "argv, parent_kind",
    [
        (["cantor", "--out"], "missing"),
        (["slopes", "--N", "2", "--out"], "missing"),
        (["volume", "--N", "2", "--out"], "missing"),
        (["prob-oracle", "--N", "2", "--count", "1", "--out"], "missing"),
        (["simulate", "--N", "2", "--samples", "1", "--out-dir"], "file"),
    ],
)
def test_unwritable_output_is_one_line(tmp_path, capsys, argv, parent_kind):
    """An output path whose parent is missing, or a regular file, stops the
    run with one line naming the path, not a traceback."""
    parent = tmp_path / "parent"
    if parent_kind == "file":
        parent.write_text("")
    path = parent / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code.startswith(f"{path}: ") and "\n" not in exc.value.code
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--samples", "1"], ["volume"], ["slopes"], ["prob-oracle", "--count", "1"]],
)
def test_leaf_budget_guards_every_experiment(monkeypatch, capsys, argv):
    """Over the leaf budget: one line on stderr and exit code 2, not a
    traceback."""
    monkeypatch.setattr(harness, "LEAF_BUDGET", 10)
    assert main(argv + ["--N", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"kakeya {argv[0]}: M^(N*d) = 27 exceeds the leaf budget 10"]


@pytest.mark.parametrize("argv", [["cantor", "--N", "40"], ["resistance-growth", "--N", "40", "--points", "1"]])
def test_level_budget_refuses_deep_direction_sets(monkeypatch, capsys, argv):
    """Over the level budget: one line on stderr and exit code 2, before
    any kept interval is built."""
    def refuse(spec, digits):
        raise AssertionError("an interval was built")
    monkeypatch.setattr(cantor.CantorSpec, "children", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"kakeya {argv[0]}: 2^40 kept intervals exceed the level budget 262144"]


@pytest.mark.parametrize(
    "argv, edges", [(["--N", "4"], 120), (["--d", "2", "--curve", "moment", "--N", "2"], 90)]
)
def test_exhaustive_slab_moments_over_the_edge_budget(capsys, argv, edges):
    """Over the edge budget: one line on stderr and exit code 2, not a
    traceback."""
    assert main(["slab-moments", "--exhaustive", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"kakeya slab-moments: {edges} edges exceeds the budget of 30"]


def test_closed_stdout_pipe_exits_quietly():
    """A reader that closes stdout early ends the run with exit code 1 and
    nothing on stderr, not a BrokenPipeError traceback.  The dump is far
    larger than a pipe's buffer, so the run writes after the close."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["slopes", "--N", "4", "--d", "2", "--curve", "moment"]
    with subprocess.Popen(
        [sys.executable, "-m", "kakeya.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


def test_readme_command_lines_parse():
    """Every ``kakeya`` example of the README's command-line block parses;
    nothing is run."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("kakeya ")]
    assert len(examples) >= 15
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
