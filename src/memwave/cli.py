"""Command-line driver: single runs, refinement ladders, energy studies, weight dumps.

Configuration lives in a flat INI file with one section per concern; unknown
sections or keys are rejected so a config is always a complete, auditable
record of an experiment.  The two benchmark presets, one problem on the
interval and on the square, hard-code the reference initial data, forcing,
and damping so the convergence tables are a one-flag operation; only the
kernel parameters vary between table rows.

Subcommands:
    run          single simulation, diagnostics CSV + optional checkpoints
    energy       same, with the forcing forced to zero and the energy series
                 always written
    convergence  time- or space-refinement ladder, CSV table of errors/rates
    weights      dump of the memory quadrature weights with the running
                 edge-column sum and its bound flag

`run_single` returns the run's history, whose norm table the energy series
is formed from, and the `RunDiagnostics` observer that holds the nodal
checkpoints; `run_convergence` keeps each rung's last level as the one
checkpoint of such an observer.  Every file goes through
`diagnostics.write_csv`.  `main` reports a bad config on stderr with exit
code 2, and a failed run or an output path it cannot write (say, an
`--out` that is a regular file) with exit code 1.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (
    FLOAT_FMT,
    RunDiagnostics,
    energy_series,
    rate,
    self_error_space,
    self_error_time,
    write_convergence_csv,
    write_csv,
    write_energy_csv,
)
from .fem import Mesh, assemble
from .kernel import KernelSpec, constant_transform
from .quadweights import RUNNING_SUM_BOUND, build_weight_table
from .stepper import DampingSpec, Problem, run

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "preset_problem",
    "run_single",
    "run_convergence",
    "dump_weights",
    "main",
]

PRESETS = ("benchmark_1d", "benchmark_2d", "manufactured", "zero")


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    preset: str
    dim: int
    m: int
    n: int
    t_final: float
    kernel: Optional[KernelSpec]
    damping: Optional[DampingSpec]
    out_dir: str = "."
    energy: bool = False
    checkpoints: tuple[int, ...] = ()

    @property
    def tau(self) -> float:
        return self.t_final / self.n


def _parse_steps(raw: str) -> tuple[int, ...]:
    return tuple(sorted({int(tok) for tok in raw.split(",") if tok.strip()}))


#: value types, named as the spec fields annotate them:
#: (parse, render, the complaint printed before a value parse rejects)
_TYPES = {
    "str": (str, str, None),
    "int": (int, str, "not an integer:"),
    "float": (float, repr, "not a number:"),
    "bool": (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
             lambda v: "true" if v else "false", "expected a boolean, got"),
    "steps": (_parse_steps, lambda v: ",".join(map(str, v)), "expected comma-separated integers:"),
}


def _spec_keys(cls) -> dict:
    """Keys of a spec section: its init fields, required when they have no default."""
    return {f.name: (f.type, f.default is MISSING) for f in fields(cls) if f.init}


#: section -> key -> (value type, required)
_SCHEMA = {
    "run": {"preset": ("str", True), "dim": ("int", True), "m": ("int", True),
            "n": ("int", True), "t": ("float", True)},
    "kernel": _spec_keys(KernelSpec),
    "damping": _spec_keys(DampingSpec),
    "output": {"directory": ("str", False), "energy": ("bool", False),
               "checkpoints": ("steps", False)},
}
#: RunConfig attributes whose names differ from their [run] or [output] key
_ATTRS = {"t": "t_final", "directory": "out_dir"}


def _read_section(section, name: str) -> dict:
    """The keys given in one section, converted to their types."""
    for key in section:
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {name}.{key}")
    given = {}
    for key, (kind, required) in _SCHEMA[name].items():
        if key not in section:
            if required:
                raise ConfigError(f"missing required key {name}.{key}")
            continue
        parse, _render, complaint = _TYPES[kind]
        try:
            given[key] = parse(section[key])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{name}.{key}: {complaint} {section[key]!r}") from exc
    return given


def _build_spec(cls, name: str, values: dict):
    """The spec a section describes, or None when the config leaves it out."""
    if name not in values:
        return None
    try:
        return cls(**values[name])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(source) -> RunConfig:
    """Read and validate a config from a path or from INI text.

    Values are taken literally: '%' has no meaning.  Keys omitted from
    [kernel] and [damping] take the KernelSpec and DampingSpec defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    text = source if isinstance(source, str) and "\n" in source else None
    try:
        if text is not None:
            parser.read_string(text)
        else:
            path = Path(source)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {source}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
    if "run" not in parser:
        raise ConfigError("missing required section [run]")
    values = {name: _read_section(parser[name], name) for name in parser.sections()}

    config = RunConfig(
        kernel=_build_spec(KernelSpec, "kernel", values),
        damping=_build_spec(DampingSpec, "damping", values),
        **{_ATTRS.get(key, key): value
           for name in ("run", "output") for key, value in values.get(name, {}).items()},
    )
    preset, dim, n = config.preset, config.dim, config.n
    if preset not in PRESETS:
        raise ConfigError(f"run.preset must be one of {PRESETS}, got {preset!r}")
    if dim not in (1, 2):
        raise ConfigError(f"run.dim must be 1 or 2, got {dim}")
    if config.m < 2:
        raise ConfigError(f"run.m must be at least 2, got {config.m}")
    if n < 1:
        raise ConfigError(f"run.n must be at least 1, got {n}")
    if not (math.isfinite(config.t_final) and config.t_final > 0.0):
        raise ConfigError(f"run.t must be finite and positive, got {config.t_final}")
    expected_dim = {"benchmark_1d": 1, "benchmark_2d": 2, "manufactured": 1}.get(preset)
    if expected_dim is not None and dim != expected_dim:
        raise ConfigError(f"run.dim: preset {preset} requires dim = {expected_dim}")
    if config.kernel is not None and preset == "manufactured":
        raise ConfigError("section [kernel]: preset manufactured fixes the kernel off")
    if config.kernel is None and preset in ("benchmark_1d", "benchmark_2d"):
        raise ConfigError(f"missing section [kernel]: preset {preset} requires it")
    if config.damping is not None and preset != "zero":
        raise ConfigError(f"section [damping]: preset {preset} fixes the damping")
    for c in config.checkpoints:
        if not 0 <= c <= n:
            raise ConfigError(f"output.checkpoints: step {c} outside [0, {n}]")
    return config


def serialize_config(config: RunConfig) -> str:
    """Render a config back to INI text; parse(serialize(c)) == c."""
    parser = configparser.ConfigParser(interpolation=None)
    for name, keys in _SCHEMA.items():
        owner = {"kernel": config.kernel, "damping": config.damping}.get(name, config)
        if owner is not None:
            parser[name] = {key: _TYPES[kind][1](getattr(owner, _ATTRS.get(key, key)))
                            for key, (kind, _required) in keys.items()}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _zero(*coords):
    return np.zeros(np.broadcast_shapes(*map(np.shape, coords)))


def _sines(k: float):
    """The field prod_i sin(k pi c_i) over the coordinate arrays c_i."""
    return lambda *coords: math.prod(np.sin(k * np.pi * c) for c in coords)


def preset_problem(config: RunConfig, zero_forcing: bool = False):
    """Resolve (problem, kernel-like, damping) for a config.

    The benchmark presets are one problem on the interval and the square:
    initial data sin(pi x)(sin(pi y)), velocity sin(2 pi x)(sin(2 pi y)),
    square-root damping with unit weights and the config's kernel; only the
    1d one is forced, by a separable forcing tied to the kernel parameters.
    The manufactured preset runs without memory against the exact solution
    exp(-t) sin(pi x).  With `zero_forcing` every preset runs unforced.
    """
    preset = config.preset
    if preset in ("benchmark_1d", "benchmark_2d"):
        kernel, damping = config.kernel, DampingSpec("sqrt", mu1=1.0, mu2=1.0)
        alpha, sigma, gamma = kernel.alpha, kernel.sigma, kernel.gamma

        def forcing(x, t):
            return t**alpha * math.exp(-sigma * t) * math.cos(gamma * t) * np.sin(np.pi * x)

        problem = Problem(u0=_sines(1.0), u1=_sines(2.0),
                          f=forcing if preset == "benchmark_1d" else None)
    elif preset == "manufactured":
        problem = Problem(u0=_sines(1.0), u1=lambda x: -np.sin(np.pi * x),
                          f=lambda x, t: np.pi**2 * math.exp(-t) * np.sin(np.pi * x))
        kernel, damping = constant_transform(0.0), DampingSpec("constant", constant=1.0)
    else:  # zero preset: quiescent data, any kernel/damping
        problem = Problem(u0=_zero, u1=_zero)
        kernel = config.kernel if config.kernel is not None else KernelSpec(1.0, 2.0, 0.0)
        damping = config.damping if config.damping is not None else DampingSpec("sqrt")
    if zero_forcing:
        problem = replace(problem, f=None)
    return problem, kernel, damping


def manufactured_solution(x, t):
    """Exact solution of the manufactured preset."""
    return math.exp(-t) * np.sin(np.pi * x)


def preset_uses_lumped_mass(preset: str) -> bool:
    """Mass treatment pinned per preset.

    The 1d reference tables are reproduced (rates and error magnitudes) by
    the lumped-mass variant of the scheme, the 2d tables by the consistent
    one; the presets pin the choice so the benchmark harness is deterministic.
    """
    return preset == "benchmark_1d"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def run_single(config: RunConfig, zero_forcing: bool = False):
    """Execute one run and write its diagnostics; returns the run's
    `SimulationHistory`, its `RunDiagnostics` and the paths written.

    When the energy series is requested the run is extended one step past
    the final time so the centered velocity exists at the terminal index.
    The energy series is formed from the history's norm table and the
    checkpoints are mapped as their steps arrive, so the run keeps no
    trajectory.
    """
    problem, kernel, damping = preset_problem(config, zero_forcing=zero_forcing)
    mesh = Mesh(config.dim, config.m)
    n_steps = config.n + 1 if config.energy else config.n
    table = build_weight_table(kernel, config.tau, max(1, n_steps - 1))
    ops = assemble(mesh, lumped_mass=preset_uses_lumped_mass(config.preset))
    diagnostics = RunDiagnostics(config.checkpoints)
    history = run(problem, mesh, config.tau, n_steps, damping=damping, ops=ops, table=table,
                  observe=diagnostics)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if config.energy:
        energy_path = out / "energy.csv"
        write_energy_csv(energy_path, history.tau,
                         *energy_series(history.norms, history.tau, history.mu0))
        paths.append(energy_path)
    for c in config.checkpoints:
        cp_path = out / f"checkpoint_{c:06d}.csv"
        write_csv(cp_path, "node,value", f"%d,{FLOAT_FMT}",
                  enumerate(diagnostics.checkpoints[c].tolist()), "\n")
        paths.append(cp_path)
    return history, diagnostics, paths


def _validate_ladder(ladder, mode: str) -> tuple[int, ...]:
    """Rungs of a refinement ladder: step counts (time) or cells per axis (space)."""
    entries = tuple(int(v) for v in ladder)
    if len(entries) < 1:
        raise ConfigError("--ladder must contain at least one entry")
    smallest = 1 if mode == "time" else 2
    if min(entries) < smallest:
        raise ConfigError(
            f"--ladder: {mode} entries must be at least {smallest}, got {min(entries)}"
        )
    for prev, cur in zip(entries, entries[1:]):
        if cur != 2 * prev:
            raise ConfigError(
                f"--ladder entries must increase by factors of 2, got {prev} -> {cur}"
            )
    return entries


def run_convergence(config: RunConfig, mode: str, ladder) -> list[tuple]:
    """Refinement ladder in time or space; returns rows (M, N, E, CR).

    Each rung's error compares the run at the rung with the run at twice the
    refinement, so one extra run beyond the ladder is executed.  Every rung
    is set up on its own: its operators, then its weight table inside
    `run`.  Each run keeps only its last level, as the
    one checkpoint of a `RunDiagnostics`.  A rung has no rate (None) when it
    is the first, or when its error or the previous rung's is exactly 0, as
    quiescent data gives.
    """
    if mode not in ("time", "space"):
        raise ConfigError(f"mode must be 'time' or 'space', got {mode!r}")
    entries = _validate_ladder(ladder, mode)
    problem, kernel, damping = preset_problem(config)
    needed = entries + (2 * entries[-1],)
    labels = [(config.m, v) if mode == "time" else (v, config.n) for v in needed]
    rungs = []
    for m_val, n_val in labels:
        mesh = Mesh(config.dim, m_val)
        rungs.append(RunDiagnostics((n_val,)))
        run(problem, mesh, config.t_final / n_val, n_val, kernel, damping=damping,
            ops=assemble(mesh, lumped_mass=preset_uses_lumped_mass(config.preset)),
            observe=rungs[-1])
    self_error = {"time": self_error_time, "space": self_error_space}[mode]
    errors = [self_error(coarse, fine) for coarse, fine in zip(rungs, rungs[1:])]
    rates = [rate(a, b) if 0.0 not in (a, b) else None for a, b in zip(errors, errors[1:])]
    return [(*label, err, cr) for label, err, cr in zip(labels, errors, [None, *rates])]


def dump_weights(config: RunConfig, path):
    """Write the weight table of `config.n` steps to `path` as CSV, one row
    per step n (n, edge_left, body, edge_right, running edge sum, bound
    flag); returns (table, row count, final flag).

    Every weight of Q_n is in its row's table: w(n, 0) = edge_left[n],
    w(n, p) = body[n - p] for 0 < p < n, found in row n - p, and
    w(n, n) = edge_right, the same in every row.  The running sum column
    accumulates the p = 0 weights and the flag records whether it still
    satisfies the theoretical bound of 1.
    """
    if config.kernel is None:
        raise ConfigError("missing section [kernel]: the weights dump requires it")
    table = build_weight_table(config.kernel, config.tau, config.n)
    running = np.cumsum(table.edge_left[1:])
    flags = running <= RUNNING_SUM_BOUND
    rows = zip(range(1, config.n + 1), table.edge_left[1:].tolist(), table.body[1:].tolist(),
               repeat(float(table.edge_right)), running.tolist(),
               np.where(flags, "true", "false").tolist())
    write_csv(path, "n,edge_left,body,edge_right,edge_running_sum,sum_le_one",
              f"%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT},%s", rows, "\n")
    return table, config.n, bool(flags[-1])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Galerkin solver for wave equations with memory and nonlocal damping",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "single simulation with diagnostics output"),
        ("energy", "single run with zero forcing; writes the energy series"),
        ("convergence", "time- or space-refinement ladder"),
        ("weights", "dump the memory quadrature weights"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the INI config")
        cmd.add_argument("--out", default=None, help="output directory override")
        if name == "convergence":
            cmd.add_argument("--mode", required=True, choices=("time", "space"))
            cmd.add_argument("--ladder", required=True,
                             help="comma-separated refinement levels, each double the last")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "run":
            history, _, paths = run_single(config)
            print(f"run {config.preset}: {history.n_last} steps completed")
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "energy":
            config = replace(config, energy=True)
            history, _, paths = run_single(config, zero_forcing=True)
            energy, _ = energy_series(history.norms, history.tau, history.mu0)
            print(f"energy study {config.preset}: start {FLOAT_FMT % energy[0]}, "
                  f"end {FLOAT_FMT % energy[-1]}")
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "convergence":
            try:
                ladder = [int(tok) for tok in args.ladder.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigError(f"--ladder: expected integers: {args.ladder!r}") from exc
            rows = run_convergence(config, args.mode, ladder)
            path = out / f"convergence_{args.mode}.csv"
            write_convergence_csv(path, rows)
            for m_val, n_val, err, cr in rows:
                cr_text = "*" if cr is None else f"{cr:.2f}"
                print(f"M={m_val:5d} N={n_val:5d} E={err:.4e} CR={cr_text}")
            print(f"wrote {path}")
        else:
            path = out / "weights.csv"
            _table, rows, flag = dump_weights(config, path)
            print(f"{rows} rows of weights, final running-sum flag: "
                  f"{'true' if flag else 'false'}")
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
