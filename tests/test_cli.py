"""Config parsing, presets, subcommands, CSV outputs."""

import csv
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.cli import (
    PRESETS,
    ConfigError,
    RunConfig,
    dump_weights,
    main,
    manufactured_solution,
    parse_config,
    preset_problem,
    run_convergence,
    run_single,
    serialize_config,
)
from memwave.diagnostics import a_norm, discrete_energy, self_error_space, self_error_time
from memwave.fem import Mesh, assemble
from memwave.kernel import KernelSpec
from memwave.stepper import DampingSpec, run

BENCH_1D = """
[run]
preset = benchmark_1d
dim = 1
m = 16
n = 16
t = 1.0

[kernel]
alpha = 1.0
sigma = 2.0
gamma = 2.0

[output]
energy = true
"""

ZERO_CFG = """
[run]
preset = zero
dim = 1
m = 8
n = 8
t = 1.0

[output]
energy = true
checkpoints = 0, 8
"""

MANUFACTURED_CFG = """
[run]
preset = manufactured
dim = 1
m = 32
n = 64
t = 1.0
"""


class TestConfigParsing:
    def test_parse_basic(self):
        cfg = parse_config(BENCH_1D)
        assert cfg.preset == "benchmark_1d"
        assert cfg.kernel == KernelSpec(1.0, 2.0, 2.0)
        assert cfg.energy is True
        assert cfg.tau == pytest.approx(1.0 / 16)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BENCH_1D + "\nfoo = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BENCH_1D + "\n[plotting]\nstyle = fancy\n")

    def test_missing_kernel_for_benchmark(self):
        text = BENCH_1D.replace("[kernel]\nalpha = 1.0\nsigma = 2.0\ngamma = 2.0\n", "")
        with pytest.raises(ConfigError, match=r"kernel"):
            parse_config(text)

    def test_damping_fixed_by_preset(self):
        with pytest.raises(ConfigError, match="damping"):
            parse_config(BENCH_1D + "\n[damping]\nkind = affine\n")

    def test_manufactured_forbids_kernel(self):
        with pytest.raises(ConfigError, match="kernel"):
            parse_config(MANUFACTURED_CFG + "\n[kernel]\nalpha = 1.0\nsigma = 2.0\n")

    def test_dim_consistency(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config(BENCH_1D.replace("dim = 1", "dim = 2"))

    def test_invalid_numbers_name_the_field(self):
        with pytest.raises(ConfigError, match="run.m"):
            parse_config(BENCH_1D.replace("m = 16", "m = sixteen"))

    @pytest.mark.parametrize("key", ["sigma", "gamma"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_kernel_parameters_name_the_field(self, key, bad):
        text = BENCH_1D.replace(f"{key} = 2.0", f"{key} = {bad}")
        with pytest.raises(ConfigError, match=f"kernel: {key} must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["mu1", "mu2", "constant"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_damping_parameters_name_the_field(self, key, bad):
        text = ZERO_CFG + f"\n[damping]\nkind = constant\n{key} = {bad}\n"
        with pytest.raises(ConfigError, match=f"damping: {key} must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_final_time_names_the_field(self, bad):
        with pytest.raises(ConfigError, match="run.t must be finite"):
            parse_config(BENCH_1D.replace("t = 1.0", f"t = {bad}"))

    def test_checkpoint_bounds(self):
        with pytest.raises(ConfigError, match="checkpoints"):
            parse_config(ZERO_CFG.replace("checkpoints = 0, 8", "checkpoints = 9"))

    def test_file_not_found(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/path.ini")

    def test_roundtrip_idempotent(self):
        cfg = parse_config(BENCH_1D)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_percent_is_literal(self):
        cfg = parse_config(BENCH_1D + "directory = out%d\n")
        assert cfg.out_dir == "out%d"

    def test_roundtrip_keeps_percent(self):
        cfg = replace(parse_config(BENCH_1D), out_dir="a%b")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_missing_section_header_is_a_config_error(self):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config("preset = zero\ndim = 1\n")

    def test_duplicate_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config(BENCH_1D.replace("preset = benchmark_1d",
                                          "preset = benchmark_1d\npreset = zero"))

    def test_roundtrip_zero_preset(self):
        cfg = parse_config(ZERO_CFG + "\n[damping]\nkind = constant\nconstant = 2.0\n")
        assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)


FULL_ZERO = {
    "run": {"preset": "zero", "dim": "1", "m": "8", "n": "8", "t": "1.0"},
    "kernel": {"alpha": "1.0", "sigma": "2.0", "gamma": "1.0"},
    "damping": {"kind": "constant", "mu1": "1.0", "mu2": "1.0", "constant": "2.0"},
    "output": {"directory": "out", "energy": "true", "checkpoints": "0, 8"},
}


def _ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _with(section, key, value=None):
    """FULL_ZERO with one key set to `value`, or dropped when `value` is None."""
    sections = {name: dict(keys) for name, keys in FULL_ZERO.items()}
    if value is None:
        del sections[section][key]
    else:
        sections[section][key] = value
    return _ini(sections)


class TestConfigMessages:
    def test_full_config_parses(self):
        cfg = parse_config(_ini(FULL_ZERO))
        assert cfg.kernel == KernelSpec(1.0, 2.0, 1.0)
        assert cfg.checkpoints == (0, 8)

    @pytest.mark.parametrize("section, key, expected", [
        ("run", "dim", "an integer"), ("run", "m", "an integer"),
        ("run", "n", "an integer"), ("run", "t", "a number"),
        ("kernel", "alpha", "a number"), ("kernel", "sigma", "a number"),
        ("kernel", "gamma", "a number"), ("damping", "mu1", "a number"),
        ("damping", "mu2", "a number"), ("damping", "constant", "a number"),
    ])
    def test_malformed_value_names_the_key(self, section, key, expected):
        message = re.escape(f"{section}.{key}: not {expected}: 'x1'")
        with pytest.raises(ConfigError, match=message):
            parse_config(_with(section, key, "x1"))

    @pytest.mark.parametrize("section, key", [
        ("run", "preset"), ("run", "dim"), ("run", "m"), ("run", "n"), ("run", "t"),
        ("kernel", "alpha"), ("kernel", "sigma"), ("damping", "kind"),
    ])
    def test_missing_required_key(self, section, key):
        with pytest.raises(ConfigError) as info:
            parse_config(_with(section, key))
        assert str(info.value) == f"missing required key {section}.{key}"

    @pytest.mark.parametrize("section, key", [
        ("kernel", "gamma"), ("damping", "mu1"), ("damping", "mu2"), ("damping", "constant"),
        ("output", "directory"), ("output", "energy"), ("output", "checkpoints"),
    ])
    def test_optional_key_may_be_omitted(self, section, key):
        parse_config(_with(section, key))

    def test_bad_energy_flag(self):
        with pytest.raises(ConfigError) as info:
            parse_config(_with("output", "energy", "maybe"))
        assert str(info.value) == "output.energy: expected a boolean, got 'maybe'"

    @pytest.mark.parametrize("value, message", [
        ("0, x", "output.checkpoints: expected comma-separated integers: '0, x'"),
        ("0, 1.5", "output.checkpoints: expected comma-separated integers: '0, 1.5'"),
        ("-1", "output.checkpoints: step -1 outside [0, 8]"),
        ("0, 9", "output.checkpoints: step 9 outside [0, 8]"),
    ])
    def test_bad_checkpoints(self, value, message):
        with pytest.raises(ConfigError) as info:
            parse_config(_with("output", "checkpoints", value))
        assert str(info.value) == message

    def test_repeated_checkpoints_collapse(self):
        assert parse_config(_with("output", "checkpoints", "4, 4, 0")).checkpoints == (0, 4)

    def test_readme_config_block_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert cfg.kernel == KernelSpec(0.5, 3.0, 5.196152422706632)
        assert cfg.damping == DampingSpec("sqrt")
        assert cfg.checkpoints == (0, 16, 32)


POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
# a directory name with at least one literal '%'
DIRECTORY = st.lists(st.text("ab09._-/%", max_size=6), min_size=2, max_size=3).map("%".join)


@st.composite
def run_configs(draw):
    """A valid RunConfig for any preset, following its dim, kernel and damping rules."""
    preset = draw(st.sampled_from(PRESETS))
    dim = {"benchmark_1d": 1, "benchmark_2d": 2, "manufactured": 1}.get(preset)
    n = draw(st.integers(1, 10**6))
    kernel = damping = None
    if preset in ("benchmark_1d", "benchmark_2d") or (preset == "zero" and draw(st.booleans())):
        sigma = draw(st.floats(min_value=1.0, max_value=1e300, exclude_min=True))
        # gamma may be left out and take its default
        gamma = draw(st.fixed_dictionaries(
            {}, optional={"gamma": st.floats(0.0, math.sqrt(3.0) * sigma)}))
        kernel = KernelSpec(alpha=draw(st.sampled_from([1.0, 0.5])), sigma=sigma, **gamma)
    if preset == "zero" and draw(st.booleans()):
        # every key but kind may be left out
        weights = draw(st.fixed_dictionaries(
            {}, optional={"mu1": POSITIVE, "mu2": POSITIVE, "constant": POSITIVE}))
        damping = DampingSpec(draw(st.sampled_from(["affine", "sqrt", "constant"])), **weights)
    return RunConfig(
        preset=preset, dim=dim or draw(st.sampled_from([1, 2])),
        m=draw(st.integers(2, 10**6)), n=n, t_final=draw(POSITIVE),
        kernel=kernel, damping=damping, out_dir=draw(DIRECTORY), energy=draw(st.booleans()),
        checkpoints=tuple(sorted(draw(st.sets(st.integers(0, n), max_size=5)))),
    )


class TestConfigRoundTrip:
    @given(cfg=run_configs())
    @settings(max_examples=200, deadline=None)
    def test_serialize_then_parse(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text


class TestPresets:
    def test_benchmark_1d_pins_damping(self):
        cfg = parse_config(BENCH_1D)
        problem, kernel, damping = preset_problem(cfg)
        assert damping.kind == "sqrt" and damping.mu1 == 1.0 and damping.mu2 == 1.0
        assert kernel == cfg.kernel
        # the forcing follows the kernel parameters
        x = np.array([0.25])
        t = 0.6
        expected = t ** 1.0 * math.exp(-2.0 * t) * math.cos(2.0 * t) * math.sin(math.pi * 0.25)
        assert problem.f(x, t)[0] == pytest.approx(expected, rel=1e-14)
        assert problem.f(x, 0.0)[0] == 0.0

    def test_zero_preset_defaults(self):
        cfg = parse_config(ZERO_CFG)
        problem, kernel, damping = preset_problem(cfg)
        assert damping.kind == "sqrt"
        assert isinstance(kernel, KernelSpec)
        assert np.all(problem.u0(np.linspace(0, 1, 5)) == 0.0)

    def test_manufactured_consistency(self):
        # the pinned forcing satisfies u'' + u' - u_xx = f for the exact field
        cfg = parse_config(MANUFACTURED_CFG)
        problem, kernel, damping = preset_problem(cfg)
        assert damping.kind == "constant" and damping.constant == 1.0
        x, t = np.array([0.3]), 0.4
        u = manufactured_solution(x, t)
        lhs = u - u + np.pi**2 * u  # u'' = u, u' = -u, -u_xx = pi^2 u
        assert problem.f(x, t)[0] == pytest.approx(lhs[0], rel=1e-12)


class TestRunSingle:
    def test_zero_preset_produces_zero_series(self, tmp_path):
        cfg = parse_config(ZERO_CFG)
        cfg = cfg.__class__(**{**cfg.__dict__, "out_dir": str(tmp_path)})
        record, paths = run_single(cfg)
        assert np.all(record.energy == 0.0)
        names = {p.name for p in paths}
        assert "energy.csv" in names and "checkpoint_000000.csv" in names
        with open(tmp_path / "checkpoint_000008.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["node", "value"]
        assert all(float(r[1]) == 0.0 for r in rows[1:])

    def test_benchmark_energy_decreases(self, tmp_path):
        cfg = parse_config(BENCH_1D)
        cfg = cfg.__class__(**{**cfg.__dict__, "out_dir": str(tmp_path)})
        record, _ = run_single(cfg, zero_forcing=True)
        assert record.energy[-1] < record.energy[0]

    def test_repeated_checkpoints_are_written_once(self, tmp_path):
        cfg = parse_config(ZERO_CFG.replace("0, 8", "4, 4, 0"))
        _, paths = run_single(replace(cfg, out_dir=str(tmp_path)))
        assert [p.name for p in paths] == [
            "energy.csv", "checkpoint_000000.csv", "checkpoint_000004.csv"]

    def test_manufactured_tracks_exact_solution(self):
        cfg = parse_config(MANUFACTURED_CFG)
        record, _ = run_single(cfg)
        mesh_h = 1.0 / cfg.m
        xs = mesh_h * np.arange(1, cfg.m)
        exact_grad = np.pi * math.exp(-1.0) * np.cos(np.pi * (xs - mesh_h / 2.0))
        err = math.sqrt(mesh_h * float(np.sum((record.terminal_gradient - exact_grad) ** 2)))
        assert err < 0.05


class TestStreamedOutputs:
    """The CLI computes its outputs as the steps arrive; they equal the values
    read from a recorded trajectory of the same run."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_energy_and_checkpoints_match_recorded_run(self, tmp_path, dim):
        preset, m, n = ("benchmark_1d", 16, 41) if dim == 1 else ("benchmark_2d", 16, 23)
        cfg = replace(parse_config(BENCH_1D), preset=preset, dim=dim, m=m, n=n,
                      kernel=KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)),
                      out_dir=str(tmp_path), checkpoints=(0, 1, 5, 6, n))
        run_single(cfg)

        problem, kernel, damping = preset_problem(cfg)
        mesh = Mesh(dim, m)
        ops = assemble(mesh, lumped_mass=dim == 1)
        hist = run(problem, mesh, cfg.tau, n + 1, kernel=kernel, damping=damping, ops=ops)
        with open(tmp_path / "energy.csv") as handle:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
        assert np.array_equal(rows[:, 0], np.arange(n + 1))
        energy = [discrete_energy(hist, ops, k) for k in range(n + 1)]
        norms = [a_norm(hist, ops, k) for k in range(n + 1)]
        assert rows[:, 2] == pytest.approx(energy, rel=1e-13, abs=0.0)
        assert rows[:, 3] == pytest.approx(norms, rel=1e-13, abs=0.0)
        for c in cfg.checkpoints:
            with open(tmp_path / f"checkpoint_{c:06d}.csv") as handle:
                values = [float(row[1]) for row in list(csv.reader(handle))[1:]]
            assert np.array_equal(values, hist.state(c))

    @pytest.mark.parametrize("mode, ladder", [("time", [8, 16]), ("space", [4, 8])])
    def test_ladder_matches_recorded_runs(self, mode, ladder):
        cfg = parse_config(BENCH_1D)
        problem, kernel, damping = preset_problem(cfg)
        runs = {}
        for level in ladder + [2 * ladder[-1]]:
            m, n = (cfg.m, level) if mode == "time" else (level, cfg.n)
            mesh = Mesh(1, m)
            runs[level] = run(problem, mesh, cfg.t_final / n, n, kernel=kernel,
                              damping=damping, ops=assemble(mesh, lumped_mass=True))
        error = self_error_time if mode == "time" else self_error_space
        expected = [error(runs[v], runs[2 * v]) for v in ladder]
        assert [row[2] for row in run_convergence(cfg, mode, ladder)] == expected


class TestConvergence:
    def test_ladder_validation(self):
        cfg = parse_config(BENCH_1D)
        with pytest.raises(ConfigError):
            run_convergence(cfg, "time", [16, 16])
        with pytest.raises(ConfigError):
            run_convergence(cfg, "time", [16, 48])
        with pytest.raises(ConfigError):
            run_convergence(cfg, "time", [])
        with pytest.raises(ConfigError):
            run_convergence(cfg, "sideways", [8, 16])

    def test_small_time_ladder(self):
        cfg = parse_config(BENCH_1D)
        rows = run_convergence(cfg, "time", [8, 16])
        assert len(rows) == 2
        assert rows[0][3] is None
        assert rows[1][3] == pytest.approx(2.0, abs=0.3)

    def test_small_space_ladder(self):
        cfg = parse_config(BENCH_1D)
        rows = run_convergence(cfg, "space", [8, 16])
        assert rows[1][3] == pytest.approx(1.0, abs=0.3)
        assert [r[1] for r in rows] == [16, 16]


class TestWeightsDump:
    def test_rows_and_flag(self, tmp_path):
        cfg = parse_config(BENCH_1D)
        path = tmp_path / "weights.csv"
        table, count, flag = dump_weights(cfg, path, n_max=12)
        with open(path) as handle:
            rows = list(csv.reader(handle))[1:]
        assert count == len(rows) == sum(n + 1 for n in range(1, 13))
        flags = [r[4] for r in rows if r[4]]
        assert flag is True and flags[-1] == "true" and len(flags) == 12
        # spot-check a row against the table accessor
        n, p, w = rows[5][:3]
        assert float(w) == table.weight(int(n), int(p))
        assert rows[7][:2] == ["3", "2"] and rows[7][3:] == ["", ""]

    def test_requires_kernel(self, tmp_path):
        cfg = parse_config(ZERO_CFG)
        assert cfg.kernel is None
        with pytest.raises(ConfigError):
            dump_weights(cfg, tmp_path / "weights.csv", 4)
        assert not (tmp_path / "weights.csv").exists()

    def test_dump_streams_its_rows(self, tmp_path):
        # N = 1000 gives 501,500 rows; held as tuples they took about 70 MB
        cfg = replace(parse_config(BENCH_1D), n=1000)
        tracemalloc.start()
        try:
            _, count, _ = dump_weights(cfg, tmp_path / "weights.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 501_500
        assert peak < 16 * 2**20

class TestMainEntry:
    def _write(self, tmp_path, text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        path = self._write(tmp_path, ZERO_CFG)
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_energy_command_deterministic(self, tmp_path):
        path = self._write(tmp_path, BENCH_1D)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["energy", "--config", path, "--out", str(out1)]) == 0
        assert main(["energy", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()

    def test_convergence_command(self, tmp_path, capsys):
        path = self._write(tmp_path, BENCH_1D)
        code = main(["convergence", "--config", path, "--mode", "time",
                     "--ladder", "8,16", "--out", str(tmp_path / "conv")])
        assert code == 0
        csv_path = tmp_path / "conv" / "convergence_time.csv"
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["M", "N", "E", "CR"]
        assert len(rows) == 3

    def test_weights_command(self, tmp_path):
        path = self._write(tmp_path, BENCH_1D)
        code = main(["weights", "--config", path, "--out", str(tmp_path / "w")])
        assert code == 0
        text = (tmp_path / "w" / "weights.csv").read_text()
        assert text.startswith("n,p,weight,edge_running_sum,sum_le_one")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, BENCH_1D + "\nbogus = 1\n")
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_kernel_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, BENCH_1D.replace("gamma = 2.0", "gamma = nan"))
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "gamma must be finite" in capsys.readouterr().err

    def test_bad_ladder_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, BENCH_1D)
        assert main(["convergence", "--config", path, "--mode", "time",
                     "--ladder", "8,24"]) == 2

    @pytest.mark.parametrize("mode, ladder, message", [
        ("time", "0", "time entries must be at least 1, got 0"),
        ("time", "-4,-8", "time entries must be at least 1, got -8"),
        ("space", "1,2", "space entries must be at least 2, got 1"),
    ])
    def test_ladder_entry_too_small_exit_code(self, tmp_path, capsys, mode, ladder, message):
        path = self._write(tmp_path, BENCH_1D)
        assert main(["convergence", "--config", path, "--mode", mode, f"--ladder={ladder}",
                     "--out", str(tmp_path / "conv")]) == 2
        assert f"--ladder: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "preset = zero\ndim = 1\n",
        BENCH_1D.replace("preset = benchmark_1d", "preset = benchmark_1d\npreset = zero"),
        BENCH_1D + "\n[kernel]\nalpha = 1.0\n",
    ], ids=["no_section_header", "duplicate_key", "duplicate_section"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, text):
        path = self._write(tmp_path, text)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: malformed config" in capsys.readouterr().err

    def test_infinite_final_time_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, BENCH_1D.replace("t = 1.0", "t = inf"))
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "run.t must be finite" in capsys.readouterr().err

    def test_directory_as_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.ini"
        path.write_bytes(b"\xff\xfe" + BENCH_1D.encode("utf-16-le"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err
