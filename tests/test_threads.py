"""tools/threads.py runs a workload's calls in-process and splits their CPU time by thread."""

import importlib.util
from pathlib import Path

import pytest

THREADS = Path(__file__).resolve().parent.parent / "tools" / "threads.py"

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")


def _load_threads():
    spec = importlib.util.spec_from_file_location("memwave_tests_tools_threads", THREADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_miniature_operation(tmp_path):
    threads = _load_threads()
    calls = tuple(call.miniature() for call in threads.load_workloads().calls("long_1d"))
    main0, other0 = threads.cpu_seconds()
    wall, main_cpu, other_cpu = threads.operation(calls, tmp_path)
    main1, other1 = threads.cpu_seconds()
    assert wall > 0.0 and main_cpu >= 0.0 and other_cpu >= 0.0
    # each split lies within what the process spent around the operation
    assert main_cpu <= main1 - main0 and other_cpu <= other1 - other0
    assert (tmp_path / "long" / "energy.csv").is_file()


def test_cpu_seconds_counts_the_main_thread():
    threads = _load_threads()
    main0, other0 = threads.cpu_seconds()
    total = 0
    for k in range(3_000_000):  # about 0.1 s of the main thread's CPU, and no BLAS
        total += k
    main1, other1 = threads.cpu_seconds()
    assert main1 - main0 > other1 - other0
