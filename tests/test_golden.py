"""Every subcommand's output at tiny sizes, held byte for byte.

``golden.json`` maps each invocation of ``INVOCATIONS`` to its exit code
and the sha256 of its stdout, its stderr and every file it writes, with
the output directory in stdout read as ``{out}``.  A ``.meta.json``
sidecar holds its write time, so it is left out.  Float outputs depend on
the numpy and scipy builds and the CPU, so the file records them under
``key``; a run under another key fails and names both.

Rewrite the file, after a change that moves an output on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from kakeya.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
REWRITE = "PYTHONPATH=src python tests/test_golden.py"

D2 = ["--d", "2", "--curve", "moment"]
INVOCATIONS = {
    "cantor-d1": ["cantor", "--M", "3", "--N", "3"],
    "cantor-d2": ["cantor", "--M", "3", "--N", "2", *D2, "--out", "{out}/cantor.json"],
    "slopes-d1": ["slopes", "--N", "3", "--seed", "5"],
    "slopes-d1-n7": ["slopes", "--N", "7", "--seed", "3", "--out", "{out}/slopes.json"],
    "slopes-d2": ["slopes", "--N", "2", *D2, "--seed", "5"],
    "volume-d1-near": ["volume", "--N", "3", "--seed", "1"],
    "volume-d1-far": ["volume", "--N", "4", "--seed", "1", "--range", "far", "--out", "{out}/volume.csv"],
    "volume-d2-far": ["volume", "--N", "3", *D2, "--seed", "1", "--range", "far"],
    "simulate-d1": ["simulate", "--N-range", "2:4", "--samples", "3"],
    "simulate-d2": ["simulate", "--N", "3", *D2, "--samples", "2", "--out-dir", "{out}"],
    "slab-moments-d1": ["slab-moments", "--N-range", "4:6", "--samples", "4", "--out-dir", "{out}"],
    "slab-moments-d1-exhaustive": ["slab-moments", "--N", "2", "--exhaustive"],
    "slab-moments-d2": ["slab-moments", "--N", "3", *D2, "--samples", "2", "--seed", "3"],
    "lower-bound-d1": ["lower-bound", "--N-range", "2:3", "--samples", "100", "--out-dir", "{out}"],
    "lower-bound-d2": ["lower-bound", "--N", "1", *D2, "--samples", "100"],
    "upper-bound-d1": ["upper-bound", "--N-range", "3:4", "--samples", "3", "--pointwise", "30"],
    "upper-bound-d2": ["upper-bound", "--N", "2", *D2, "--samples", "2", "--pointwise", "20", "--out-dir", "{out}"],
    "prob-oracle-d1": ["prob-oracle", "--N", "2", "--count", "10", "--seed", "3"],
    "prob-oracle-d1-exhaustive": ["prob-oracle", "--N", "2", "--tuples", "exhaustive", "--count", "8", "--out", "{out}/oracle.csv"],
    "prob-oracle-d2": ["prob-oracle", "--N", "1", "--d", "2", "--count", "5"],
    "percolate-height": ["percolate", "--height", "3", "--mc-samples", "2000", "--seed", "2"],
    "percolate-d1": ["percolate", "--point", "2.004,1.898", "--N", "4", "--mc-samples", "1000"],
    "percolate-d2": ["percolate", "--point", "4.663,3.38,2.911", "--N", "2", *D2, "--mc-samples", "1000"],
    "resist-height": ["resist", "--height", "3"],
    "resist-d1": ["resist", "--point", "2.001,1.48", "--N", "5"],
    "resist-d2": ["resist", "--point", "4.663,3.38,2.911", "--N", "2", *D2],
    "iid-audit-d1": ["iid-audit", "--N-range", "4:5", "--fields", "100"],
    "iid-audit-d2": ["iid-audit", "--N", "4", *D2, "--fields", "50"],  # finds no point: exit 2
    "resistance-growth-d1": ["resistance-growth", "--N-range", "3:6", "--points", "10"],
    "resistance-growth-d2": ["resistance-growth", "--N-range", "3:4", *D2, "--points", "10", "--out-dir", "{out}"],
}


def build_key() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """One invocation through ``cli.main`` in this process: its exit code
    and the hashes of what it printed and wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{out}", tmp) for a in argv])
        files = {
            p.name: _sha(p.read_bytes())
            for p in sorted(Path(tmp).iterdir())
            if not p.name.endswith(".meta.json")
        }
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(tmp, "{out}").encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def golden() -> dict:
    """The recorded outputs, after checking that this run has their key."""
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["key"] == build_key(), (
        f"golden.json was written under {recorded['key']}, this run is under "
        f"{build_key()}; rewrite it with: {REWRITE}"
    )
    return recorded["outputs"]


def test_golden_names_every_invocation():
    assert sorted(golden()) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_output_matches_golden(name):
    assert run(INVOCATIONS[name]) == golden()[name], f"{name} moved; if on purpose: {REWRITE}"


if __name__ == "__main__":
    outputs = {name: run(argv) for name, argv in INVOCATIONS.items()}
    GOLDEN.write_text(json.dumps({"key": build_key(), "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(outputs)} invocations", file=sys.stderr)
