"""tools/pairs.py alternates two trees seed by seed and summarises the pairs."""

import importlib.util
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("memwave_tests_tools_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _stdout(result):
    """The lines perfbench/run.py prints: provenance, metrics, the result."""
    return "\n".join([
        'provenance {"workload": "wide_2d", "seed": 1}',
        f"wide_2d wall_s = {result['metrics']['wall_s']['value']:.6g} s  (median of 10)",
        f"wide_2d peak_rss_mb = {result['metrics']['peak_rss_mb']['value']:.6g} MB",
        json.dumps(result),
    ]) + "\n"


def test_parse_reads_the_last_line():
    result = _result(0.25, 89.0, failed=1)
    assert _load_pairs().parse(_stdout(result)) == result


def test_seeds_and_order():
    pairs = _load_pairs()
    assert pairs.seeds("1-8") == list(range(1, 9))
    assert pairs.seeds("1,4,7") == [1, 4, 7]
    assert pairs.seeds("3-3") == [3]
    assert [pairs.order(s) for s in (1, 2, 3)] == [("A", "B"), ("B", "A"), ("A", "B")]


def test_summary_of_canned_pairs():
    # A's wall_s sorts to 0.28, 0.29, 0.30, 0.31: median 0.295, quartiles
    # 0.2825 and 0.3075; B's to 0.24, 0.25, 0.26, 0.30: median 0.255,
    # quartiles 0.2425 and 0.29; B reads lower in three pairs, and the gap
    # of 0.04 is wider than A's interquartile range of 0.025
    walls = [(0.30, 0.25), (0.28, 0.26), (0.29, 0.30), (0.31, 0.24)]
    results = [(_stdout(_result(a, 88.9)), _stdout(_result(b, 89.2, failed=i == 2)))
               for i, (a, b) in enumerate(walls)]
    pairs = _load_pairs()
    lines = pairs.summary([(pairs.parse(a), pairs.parse(b)) for a, b in results])
    assert lines == [
        "wall_s       A 0.295 (0.2825, 0.3075)  B 0.255 (0.2425, 0.29)  -13.56%  "
        "B lower 3/4  gap > A's IQR: yes",
        "peak_rss_mb  A 88.9 (88.9, 88.9)  B 89.2 (89.2, 89.2)  +0.34%  "
        "B lower 0/4  gap > A's IQR: yes",
        "failed: A 0 of 40, B 1 of 40",
    ]


def _stand_in_trees(tmp_path):
    """Two stand-in trees whose run.py logs its tree and seed to the returned
    path and prints a canned result."""
    log = tmp_path / "log"
    for name, wall in (("a", 0.3), ("b", 0.2)):
        script = tmp_path / name / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(textwrap.dedent(f"""
            import sys
            seed = sys.argv[sys.argv.index("--seed") + 1]
            with open({str(log)!r}, "a") as handle:
                handle.write("{name}" + seed + "\\n")
            print("provenance {{}}")
            print({json.dumps(_result(wall, 80.0))!r})
        """))
    return log


def test_main_alternates_the_trees(tmp_path, capsys):
    # A runs first on odd seeds, B on even ones
    log = _stand_in_trees(tmp_path)
    pairs = _load_pairs()
    assert pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "wide_2d",
                       "--seeds", "1-3", "--seconds", "1"]) == 0
    assert log.read_text().split() == ["a1", "b1", "b2", "a2", "a3", "b3"]
    out = capsys.readouterr().out.splitlines()
    assert out[-3].startswith("wall_s       A 0.3 (0.3, 0.3)  B 0.2 (0.2, 0.2)  -33.33%  "
                              "B lower 3/3")
    assert out[-1] == "failed: A 0 of 30, B 0 of 30"


def test_main_reports_a_run_that_fails(tmp_path, capsys):
    for name in ("a", "b"):
        script = tmp_path / name / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text("import sys\nsys.exit(2)\n")
    assert _load_pairs().main([str(tmp_path / "a"), str(tmp_path / "b"),
                               "--workload", "wide_2d", "--seeds", "1"]) == 1
    assert "exited 2" in capsys.readouterr().err


def test_main_refuses_a_range_without_seeds(tmp_path, capsys):
    # '8-1' holds no seed: argparse refuses it before any run starts
    log = _stand_in_trees(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _load_pairs().main([str(tmp_path / "a"), str(tmp_path / "b"),
                            "--workload", "wide_2d", "--seeds", "8-1"])
    assert exc.value.code == 2
    assert "argument --seeds: '8-1' holds no seed" in capsys.readouterr().err
    assert not log.exists()


def test_timeout_grows_with_the_window(tmp_path, monkeypatch):
    # a run is given its measuring window and the set-up margin, so a
    # window longer than the margin alone does not time out
    _stand_in_trees(tmp_path)
    pairs = _load_pairs()
    timeouts, real_run = [], subprocess.run

    def recording_run(*args, **kwargs):
        timeouts.append(kwargs["timeout"])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(pairs.subprocess, "run", recording_run)
    assert pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "wide_2d",
                       "--seeds", "1", "--seconds", "300"]) == 0
    assert timeouts == [300.0 + pairs.SETUP_MARGIN_S] * 2


def test_json_records_every_run_and_the_summary(tmp_path):
    # two workloads go to one file; each keeps every run of both trees, with
    # its place in the pair, and the summary as numbers
    _stand_in_trees(tmp_path)
    pairs, out = _load_pairs(), tmp_path / "bench.json"
    for workload, chosen in (("wide_2d", "1-2"), ("long_1d", "3")):
        assert pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", workload,
                           "--seeds", chosen, "--seconds", "1", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert sorted(data["workloads"]) == ["long_1d", "wide_2d"]
    wide = data["workloads"]["wide_2d"]
    assert wide["seconds"] == 1.0
    assert [(r["seed"], r["tree"], r["order"]) for r in wide["runs"]] == [
        (1, "A", 1), (1, "B", 2), (2, "A", 2), (2, "B", 1)]
    assert wide["runs"][0] == {"seed": 1, "tree": "A", "order": 1, "provenance": {},
                               "correct": True, "attempted": 10, "failed": 0,
                               "metrics": {"wall_s": 0.3, "peak_rss_mb": 80.0}}
    assert wide["runs"][3]["metrics"]["wall_s"] == 0.2
    summary = wide["summary"]
    assert summary["pairs"] == 2
    assert summary["metrics"]["wall_s"] == {
        "unit": "s", "A": {"median": 0.3, "q1": 0.3, "q3": 0.3},
        "B": {"median": 0.2, "q1": 0.2, "q3": 0.2}, "change": pytest.approx(-1.0 / 3.0),
        "b_lower": 2, "gap_wider_than_a_iqr": True}
    assert summary["metrics"]["peak_rss_mb"]["b_lower"] == 0
    assert summary["failed"] == {"A": 0, "B": 0}
    assert summary["attempted"] == {"A": 20, "B": 20}
    assert data["workloads"]["long_1d"]["summary"]["pairs"] == 1
