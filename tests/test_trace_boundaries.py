"""The benchmark's traced layer boundaries still name functions of the package.

`perfbench/tracing.py` wraps module-level names of memwave; a name that no
longer exists is skipped silently and its per-layer metrics read 0.  This
test loads the tracer by file path and checks that only the boundaries known
to be gone are missing, so a rename in src/ shows up here.
"""

import importlib.util
from pathlib import Path

import memwave.stepper as stepper

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# boundaries whose names the package no longer has
KNOWN_MISSING = [
    "memwave.quadweights.transform_grid",
    "memwave.stepper.solveh_banded",
    "memwave.stepper.cg",
    "memwave.cli.collect_diagnostics",
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("memwave_tests_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_known_boundaries_are_missing():
    tracer = _load_tracing().Tracer()
    original = stepper.step
    tracer.install()
    try:
        assert stepper.step is not original
    finally:
        tracer.uninstall()
    assert stepper.step is original
    assert tracer.missing == KNOWN_MISSING
