"""The set-up's LAPACK calls run on one BLAS thread, and the count comes back after."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from memwave import _blas
from memwave.fem import Mesh, assemble, interpolate
from memwave.kernel import QuadratureError, constant_transform
from memwave.quadweights import build_weight_table
from memwave.stepper import _MEMORY_BLOCK, SimulationHistory

SRC = Path(__file__).resolve().parent.parent / "src"


def _count(setter) -> int:
    """The thread count, read as the value the setter returns."""
    count = setter(1)
    setter(count)
    return count


@pytest.mark.skipif(_blas._setter() is None, reason="numpy links no OpenBLAS")
class TestOneThread:
    @pytest.fixture
    def setter(self):
        # two threads to start from, so that a count left at 1 shows
        setter = _blas._setter()
        outer = setter(2)
        yield setter
        setter(outer)

    def test_count_is_back_after_quadrature_error(self, setter):
        # a nonvanishing hook has no modes, so `_check_modes` raises, on
        # one thread, once the history reaches lag L0
        mesh = Mesh(1, 8)
        table = build_weight_table(constant_transform(1.0), 0.01, _MEMORY_BLOCK)
        u0 = interpolate(mesh, lambda x: np.sin(np.pi * x))
        with pytest.raises(QuadratureError, match="0 exponential modes"):
            SimulationHistory(mesh, assemble(mesh), table, u0, 0.0 * u0, _MEMORY_BLOCK + 1)
        assert _count(setter) == 2

    def test_nested_use_restores_each_level(self, setter):
        with _blas.one_thread():
            assert _count(setter) == 1
            with _blas.one_thread():
                assert _count(setter) == 1
            assert _count(setter) == 1
        assert _count(setter) == 2


def _under_each_thread_count(probe: str) -> list[str]:
    """What `probe` writes to stdout, run under one and under two BLAS threads."""
    found = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        found.append(proc.stdout)
    return found


def test_modes_do_not_depend_on_the_thread_count():
    # long_1d's seed-0 kernel over the window its memory fits, delta = 31 tau
    # and T = 100: with the compression on two threads its bits moved
    found = _under_each_thread_count("""
        import math, sys
        from memwave.kernel import KernelSpec, exponential_modes
        tau = 100.0 / 16384
        a, w = exponential_modes(KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)), 31 * tau, 100.0)
        sys.stdout.write((a.tobytes() + w.tobytes()).hex())
    """)
    assert found[0] == found[1] and len(found[0]) > 0


def test_modal_data_do_not_depend_on_the_thread_count():
    # wide_2d's mesh and initial state: on every thread the modal mass
    # product V'M1 of `assemble` and the two-sided product of `to_modal`
    # moved their bits
    found = _under_each_thread_count("""
        import sys
        import numpy as np
        from memwave.fem import Mesh, assemble, interpolate
        mesh = Mesh(2, 128)
        ops = assemble(mesh)
        u0 = interpolate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        sys.stdout.write((ops.inverse.tobytes() + ops.to_modal(u0).tobytes()).hex())
    """)
    assert found[0] == found[1] and len(found[0]) > 0


def test_nodal_values_do_not_depend_on_the_thread_count():
    # wide_2d's mesh: the two-sided product of `to_nodal`, which maps each
    # checkpoint a run writes, moved its bits on every thread
    found = _under_each_thread_count("""
        import sys
        import numpy as np
        from memwave.fem import Mesh, assemble
        ops = assemble(Mesh(2, 128))
        coeffs = np.random.default_rng(0).standard_normal(127 * 127)
        sys.stdout.write(ops.to_nodal(coeffs).tobytes().hex())
    """)
    assert found[0] == found[1] and len(found[0]) > 0
