"""The benchmark runs against the package.

bench/tracing.py names each wrapped function by (module, qualified name) in
SPANNED and COUNTED, and Tracer._rebind looks a plain name up as a module
attribute and a Class.attr name in the class's own namespace.  A rename or
deletion in the package would otherwise surface only when a traced run
fails, so each target is resolved here the same way.  One smoke round of
each workload checks every report it gets (decompositions with their
subgroup, lambda and shifts, sweep counts, verify-lemmas reports and
Fourier inversions) against the independent model in bench/model.py.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    targets = [
        target
        for table in (tracing.SPANNED, tracing.COUNTED)
        for group in table.values()
        for target in group
    ]
    assert targets
    missing = []
    for module_name, qualname in targets:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = hasattr(module, qualname)
        if not found:
            missing.append((module_name, qualname))
    assert missing == []


@pytest.mark.parametrize(
    "workload, rungs",
    [
        ("sym-ladder", ("N9", "N315")),
        ("random-sweep", ("exhaustive:N3", "random:N315")),
        ("lemma-checks", ("N9", "N315")),
    ],
    ids=["sym-ladder", "random-sweep", "lemma-checks"],
)
def test_smoke_round_is_correct(workload, rungs):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    # the SMOKE line counts golden replays and workload ops; no FAIL line follows it
    assert lines[0].startswith(f"SMOKE {workload}: rounds=1 ") and lines[0].endswith(" failed=0")
    assert len(lines) == 2
    composition = json.loads(lines[-1])["composition"]
    # the smallest and the largest rung both ran
    assert all(composition[rung]["ops"] > 0 for rung in rungs)


@pytest.mark.parametrize("workload", ["sym-ladder", "random-sweep", "lemma-checks"])
def test_traced_round_is_correct(workload):
    """--trace reaches the import-time measurement and the launch reference,
    which a --smoke round never runs."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
