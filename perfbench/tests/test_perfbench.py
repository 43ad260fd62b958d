"""The benchmark's own tests: checks catch wrong outputs, tracing is transparent.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads
import memwave.stepper as stepper

BENCH = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _mini_call():
    """long_1d at 1/64 of its steps, the call the benchmark warms up on."""
    return workloads.calls("long_1d")[0].miniature()


def _run(call, tmp_path, config_call=None, reference=None):
    """Run `call` (from config_call's parameters, if given) and check it."""
    configs = worker._write_configs((config_call or call,), tmp_path)
    return worker.run_operation((call,), configs, tmp_path,
                                None if reference is None else {call.label: reference})


@pytest.fixture(scope="module")
def mini_reference(tmp_path_factory):
    """A reference entry recorded from one default-seed miniature run."""
    call, out = _mini_call(), tmp_path_factory.mktemp("reference")
    _wall, _cpu, problems = _run(call, out)
    assert problems == []
    _, data = checks.read_csv(out / call.label / call.output_name)
    return checks.reference_entry(data, [2, 3])


def test_rerun_matches_its_reference(tmp_path, mini_reference):
    _wall, _cpu, problems = _run(_mini_call(), tmp_path, reference=mini_reference)
    assert problems == []


def test_wrong_gamma_is_a_failed_operation(tmp_path, mini_reference):
    call = _mini_call()
    # 0.99: the default gamma sits on the admissible bound sqrt(3) * sigma
    _wall, _cpu, problems = _run(call, tmp_path, replace(call, gamma=0.99 * call.gamma),
                                 mini_reference)
    assert problems and "differ from the reference" in problems[0]


def test_perturbed_reference_is_reported(tmp_path, mini_reference):
    call = _mini_call()
    _run(call, tmp_path)
    ref = json.loads(json.dumps(mini_reference))
    ref["values"][3][0] *= 1.01
    problems = checks.check_call(call, tmp_path / call.label, ref)
    assert len(problems) == 1 and f"row {ref['rows'][3]}," in problems[0]


def test_crash_is_a_failed_operation(tmp_path, monkeypatch):
    def broken(*_args, **_kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(stepper, "step", broken)
    _wall, _cpu, problems = _run(_mini_call(), tmp_path)
    assert problems and "KeyError" in problems[0]


def _write_energy(path: Path, energy, norms, tau=0.01):
    path.mkdir(parents=True)
    lines = ["n,t,energy,a_norm"]
    lines += [f"{n},{n * tau!r},{float(e)!r},{float(a)!r}"
              for n, (e, a) in enumerate(zip(energy, norms))]
    (path / "energy.csv").write_text("\n".join(lines) + "\n")


def _energy_call(n):
    return workloads.Call("e", "benchmark_1d", 1, 64, n, n * 0.01, 0.5, 3.0, 1.0)


def test_energy_checks(tmp_path):
    n = 200
    energy = np.exp(-np.linspace(0.0, 2.0, n + 1))
    norms = np.sqrt(energy)
    _write_energy(tmp_path / "good", energy, norms)
    assert checks.check_call(_energy_call(n), tmp_path / "good") == []

    rising = energy.copy()
    rising[50] = rising[49] * 1.01
    _write_energy(tmp_path / "rise", rising, norms)
    assert "energy rises at step 50" in checks.check_call(_energy_call(n), tmp_path / "rise")[0]

    bad = energy.copy()
    bad[7] = math.nan
    _write_energy(tmp_path / "nan", bad, norms)
    assert "non-finite" in checks.check_call(_energy_call(n), tmp_path / "nan")[0]

    grown = norms.copy()
    grown[n // 2:] *= 40.0
    _write_energy(tmp_path / "big", energy, grown)
    assert "criterion-9" in checks.check_call(_energy_call(n), tmp_path / "big")[0]


def test_seeds_are_reproducible_and_admissible():
    assert workloads.calls("long_1d")[0].gamma == 3.0 * math.sqrt(3.0)
    for name in workloads.NAMES:
        for seed in range(1, 30):
            drawn = workloads.calls(name, seed)
            assert drawn == workloads.calls(name, seed)
            for call in drawn:
                assert call.sigma > 1.0
                assert 0.0 <= call.gamma <= math.sqrt(3.0) * call.sigma


def test_traced_operation_restores_every_boundary(tmp_path):
    originals = {(m, p): tracing._resolve(m, p) for m, p, _ in tracing.BOUNDARIES}
    tracer = tracing.Tracer()
    call = _mini_call()
    configs = worker._write_configs((call,), tmp_path)
    tracer.op = 0
    tracer.install()
    try:
        _wall, _cpu, problems = worker.run_operation((call,), configs, tmp_path)
    finally:
        tracer.uninstall()
    assert problems == []
    assert {(m, p): tracing._resolve(m, p) for m, p, _ in tracing.BOUNDARIES} == originals

    metrics = tracer.metrics(1)
    per_layer = {m["name"] for m in workloads.SPEC["per_layer"]}
    assert set(metrics) == per_layer - {"trace_overhead_s"}
    # an energy run computes N + 1 levels after U^0; taylor_start gives the first
    assert metrics["stepper.step.calls"] == call.n
    assert metrics["quadweights.build_weight_table.calls"] == 1
    assert metrics["quadweights.moment_passes"] == 2
    assert metrics["cli.main.self_s"] > 0.0
    # the reported self times add up to the whole traced call: no span's work is dropped
    whole = sum(end - start for _n, start, end, parent, _op in tracer.spans if parent is None)
    reported = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert reported == pytest.approx(whole, rel=1e-9)

    tracer.write(tmp_path / "spans.jsonl", {"workload": "test"})
    records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    spans = [r for r in records if r["type"] == "span"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert all(s["op"] == 0 and s["end"] >= s["start"] for s in spans)
    kinds = {r["name"]: r["kind"] for r in records if r["type"] == "count"}
    assert kinds["stepper.history_bytes"] == "computed"
    assert kinds["kernel.points"] == "measured"


def test_missing_boundary_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES",
                        (("memwave.stepper", "no_such_solver", "stepper.solve"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["memwave.stepper.no_such_solver"]
    assert tracer.metrics(1)["stepper.solve.calls"] == 0


def test_late_long_1d_change_is_reported():
    """The reference check stays sharp where the long-run energy has decayed to 1e-43."""
    ref = REFERENCE["long_1d"]["long"]
    rows, want = np.asarray(ref["rows"]), np.asarray(ref["values"])
    data = np.full((rows.max() + 1, 4), np.nan)
    data[rows[:, None], ref["columns"]] = want
    assert checks._check_reference(data, ref) == []

    data[rows[-1], ref["columns"]] *= 1.0 + 1.0e-10  # a 1e-10 trajectory change passes
    assert checks._check_reference(data, ref) == []
    assert want[-1, 0] < 1.0e-40
    data[rows[-1], ref["columns"][0]] *= 1.01
    problems = checks._check_reference(data, ref)
    assert len(problems) == 1 and f"row {rows[-1]}, column 2" in problems[0]
