"""tools/outputs.py runs the benchmark's CLI calls in two trees and compares their outputs."""

import importlib.util
import textwrap
from pathlib import Path

OUTPUTS = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"

# the calls of tree A's workloads: one per workload, its config naming the
# call and the seed
WORKLOADS = textwrap.dedent("""
    from dataclasses import dataclass

    NAMES = ("one", "two")


    @dataclass(frozen=True)
    class Call:
        label: str
        seed: int
        output_name = "energy.csv"

        def ini(self):
            return f"{self.label} {self.seed}"

        def argv(self, config_path, out_dir):
            return ["energy", "--config", str(config_path), "--out", str(out_dir)]


    def calls(workload, seed):
        return (Call(workload + "-call", seed),)
""")

# a stand-in `memwave.cli` that writes an energy file, its first energy
# scaled by SCALE on seed 1 and its first a_norm by A_SCALE on workload two
CLI = textwrap.dedent("""
    import sys
    from pathlib import Path

    args = sys.argv[1:]
    config = Path(args[args.index("--config") + 1])
    out = Path(args[args.index("--out") + 1])
    label, seed = config.read_text().split()
    energy = 2.0 * (SCALE if seed == "1" else 1.0)
    a_norm = 4.0 * (A_SCALE if label == "two-call" else 1.0)
    out.mkdir(parents=True)
    (out / "energy.csv").write_text(
        f"n,t,energy,a_norm\\r\\n0,0,{energy!r},{a_norm!r}\\r\\n1,0.5,0,0.5\\r\\n")
""")


def _cli(scale="1.0", a_scale="1.0"):
    return CLI.replace("A_SCALE", a_scale).replace("SCALE", scale)


def _load_outputs():
    spec = importlib.util.spec_from_file_location("memwave_tests_tools_outputs", OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, cli, workloads=True):
    """A stand-in tree: its `src/memwave` package with `cli` as cli.py, and
    the WORKLOADS as perfbench/workloads.py when asked."""
    package = root / "src" / "memwave"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    if workloads:
        (root / "perfbench").mkdir()
        (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    return root


def test_identical_and_differing_outputs(tmp_path, capsys):
    # tree B has no workloads of its own: the calls are tree A's; each tree
    # runs its own cli, and B's differs by 1e-12 in the energy on seed 1
    # and by 1e-9 in the a_norm of workload two
    a = _tree(tmp_path / "a", _cli())
    b = _tree(tmp_path / "b", _cli("(1 + 1e-12)", "(1 + 1e-9)"), workloads=False)
    assert _load_outputs().main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "one seed 0 one-call: identical",
        "one seed 1 one-call: differs: largest relative difference energy 1e-12, a_norm 0",
        "two seed 0 two-call: differs: largest relative difference energy 0, a_norm 1e-09",
        "two seed 1 two-call: differs: largest relative difference energy 1e-12, a_norm 1e-09",
    ]


def test_seeds_option_and_zero_entries(tmp_path, capsys):
    # a difference at an entry that is 0 in A is infinitely large
    a = _tree(tmp_path / "a", _cli())
    b = _tree(tmp_path / "b", _cli().replace(",0,0.5", ",1e-300,0.5"), workloads=False)
    assert _load_outputs().main([str(a), str(b), "--seeds", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "one seed 3 one-call: differs: largest relative difference energy inf, a_norm 0",
        "two seed 3 two-call: differs: largest relative difference energy inf, a_norm 0",
    ]


def test_a_failed_run_exits_1(tmp_path, capsys):
    a = _tree(tmp_path / "a", _cli())
    b = _tree(tmp_path / "b", "import sys\nsys.exit(3)\n", workloads=False)
    assert _load_outputs().main([str(a), str(b), "--seeds", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one-call in " in captured.err and "exited 3" in captured.err
