"""Command-line driver: single runs, refinement ladders, energy studies, weight dumps.

Configuration lives in a flat INI file with one section per concern; unknown
sections or keys are rejected so a config is always a complete, auditable
record of an experiment.  The two benchmark presets hard-code the reference
initial data, forcing, and damping so the convergence tables are a one-flag
operation; only the kernel parameters vary between table rows.

Subcommands:
    run          single simulation, diagnostics CSV + optional checkpoints
    energy       same, with the forcing forced to zero and the energy series
                 always written
    convergence  time- or space-refinement ladder, CSV table of errors/rates
    weights      dump of the memory quadrature weights with the running
                 edge-column sum and its bound flag
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (
    FLOAT_FMT,
    RunDiagnostics,
    TerminalGradient,
    rate,
    self_error_space,
    self_error_time,
    write_convergence_csv,
    write_energy_csv,
)
from .fem import Mesh, assemble
from .kernel import KernelLike, KernelSpec, constant_transform
from .quadweights import build_weight_table
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

_SCHEMA = {
    "run": {"preset", "dim", "m", "n", "t"},
    "kernel": {"alpha", "sigma", "gamma"},
    "damping": {"kind", "mu1", "mu2", "constant"},
    "output": {"directory", "energy", "checkpoints"},
}


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


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"output.{key}: expected a boolean, got {raw!r}")


def _get_float(section, name: str, key: str) -> float:
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: not a number: {section[key]!r}") from exc


def _get_int(section, name: str, key: str) -> int:
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: not an integer: {section[key]!r}") from exc


def parse_config(source) -> RunConfig:
    """Read and validate a config from a path or from INI text.

    Values are taken literally: '%' has no meaning.
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
            parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    if "run" not in parser:
        raise ConfigError("missing required section [run]")
    run_sec = parser["run"]
    for key in ("preset", "dim", "m", "n", "t"):
        if key not in run_sec:
            raise ConfigError(f"missing required key run.{key}")

    preset = run_sec["preset"].strip()
    if preset not in PRESETS:
        raise ConfigError(f"run.preset must be one of {PRESETS}, got {preset!r}")
    dim = _get_int(run_sec, "run", "dim")
    m = _get_int(run_sec, "run", "m")
    n = _get_int(run_sec, "run", "n")
    t_final = _get_float(run_sec, "run", "t")
    if dim not in (1, 2):
        raise ConfigError(f"run.dim must be 1 or 2, got {dim}")
    if m < 2:
        raise ConfigError(f"run.m must be at least 2, got {m}")
    if n < 1:
        raise ConfigError(f"run.n must be at least 1, got {n}")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ConfigError(f"run.t must be finite and positive, got {t_final}")
    expected_dim = {"benchmark_1d": 1, "benchmark_2d": 2, "manufactured": 1}.get(preset)
    if expected_dim is not None and dim != expected_dim:
        raise ConfigError(f"run.dim: preset {preset} requires dim = {expected_dim}")

    kernel = None
    if "kernel" in parser:
        if preset == "manufactured":
            raise ConfigError("section [kernel]: preset manufactured fixes the kernel off")
        sec = parser["kernel"]
        for key in ("alpha", "sigma"):
            if key not in sec:
                raise ConfigError(f"missing required key kernel.{key}")
        try:
            kernel = KernelSpec(
                alpha=_get_float(sec, "kernel", "alpha"),
                sigma=_get_float(sec, "kernel", "sigma"),
                gamma=_get_float(sec, "kernel", "gamma") if "gamma" in sec else 0.0,
            )
        except ValueError as exc:
            raise ConfigError(f"kernel: {exc}") from exc
    elif preset in ("benchmark_1d", "benchmark_2d"):
        raise ConfigError(f"missing section [kernel]: preset {preset} requires it")

    damping = None
    if "damping" in parser:
        if preset in ("benchmark_1d", "benchmark_2d", "manufactured"):
            raise ConfigError(f"section [damping]: preset {preset} fixes the damping")
        sec = parser["damping"]
        if "kind" not in sec:
            raise ConfigError("missing required key damping.kind")
        try:
            damping = DampingSpec(
                kind=sec["kind"].strip(),
                mu1=_get_float(sec, "damping", "mu1") if "mu1" in sec else 1.0,
                mu2=_get_float(sec, "damping", "mu2") if "mu2" in sec else 1.0,
                constant=_get_float(sec, "damping", "constant") if "constant" in sec else 1.0,
            )
        except ValueError as exc:
            raise ConfigError(f"damping: {exc}") from exc

    out_dir, energy, checkpoints = ".", False, ()
    if "output" in parser:
        sec = parser["output"]
        out_dir = sec.get("directory", ".").strip()
        if "energy" in sec:
            energy = _parse_bool(sec["energy"], "energy")
        if "checkpoints" in sec:
            try:
                checkpoints = tuple(
                    sorted(int(tok) for tok in sec["checkpoints"].split(",") if tok.strip())
                )
            except ValueError as exc:
                raise ConfigError(
                    f"output.checkpoints: expected comma-separated integers: {sec['checkpoints']!r}"
                ) from exc
            for c in checkpoints:
                if not 0 <= c <= n:
                    raise ConfigError(f"output.checkpoints: step {c} outside [0, {n}]")

    return RunConfig(
        preset=preset, dim=dim, m=m, n=n, t_final=t_final,
        kernel=kernel, damping=damping,
        out_dir=out_dir, energy=energy, checkpoints=checkpoints,
    )


def serialize_config(config: RunConfig) -> str:
    """Render a config back to INI text; parse(serialize(c)) == c."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        "preset": config.preset,
        "dim": str(config.dim),
        "m": str(config.m),
        "n": str(config.n),
        "t": repr(config.t_final),
    }
    if config.kernel is not None:
        parser["kernel"] = {
            "alpha": repr(config.kernel.alpha),
            "sigma": repr(config.kernel.sigma),
            "gamma": repr(config.kernel.gamma),
        }
    if config.damping is not None:
        parser["damping"] = {
            "kind": config.damping.kind,
            "mu1": repr(config.damping.mu1),
            "mu2": repr(config.damping.mu2),
            "constant": repr(config.damping.constant),
        }
    parser["output"] = {
        "directory": config.out_dir,
        "energy": "true" if config.energy else "false",
    }
    if config.checkpoints:
        parser["output"]["checkpoints"] = ",".join(str(c) for c in config.checkpoints)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _zero_1d(x, t=None):
    return np.zeros(np.shape(x))


def _zero_2d(x, y, t=None):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def preset_problem(config: RunConfig, zero_forcing: bool = False):
    """Resolve (problem, kernel-like, damping) for a config.

    The benchmark presets pin initial data sin(pi x)(sin(pi y)), velocity
    sin(2 pi x)(sin(2 pi y)), square-root damping with unit weights, and a
    separable forcing tied to the kernel parameters (zero in 2d).  The
    manufactured preset runs without memory against the exact solution
    exp(-t) sin(pi x).
    """
    preset = config.preset
    if preset == "benchmark_1d":
        spec = config.kernel
        alpha, sigma, gamma = spec.alpha, spec.sigma, spec.gamma

        def forcing(x, t):
            return (
                t**alpha * math.exp(-sigma * t) * math.cos(gamma * t) * np.sin(np.pi * x)
            )

        problem = Problem(
            u0=lambda x: np.sin(np.pi * x),
            u1=lambda x: np.sin(2.0 * np.pi * x),
            f=None if zero_forcing else forcing,
        )
        return problem, spec, DampingSpec("sqrt", mu1=1.0, mu2=1.0)

    if preset == "benchmark_2d":
        problem = Problem(
            u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            u1=lambda x, y: np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y),
            f=None,
        )
        return problem, config.kernel, DampingSpec("sqrt", mu1=1.0, mu2=1.0)

    if preset == "manufactured":
        problem = Problem(
            u0=lambda x: np.sin(np.pi * x),
            u1=lambda x: -np.sin(np.pi * x),
            f=None if zero_forcing else (
                lambda x, t: np.pi**2 * math.exp(-t) * np.sin(np.pi * x)
            ),
        )
        return problem, constant_transform(0.0), DampingSpec("constant", constant=1.0)

    # zero preset: quiescent data, any kernel/damping
    kernel: KernelLike = config.kernel if config.kernel is not None else KernelSpec(1.0, 2.0, 0.0)
    damping = config.damping if config.damping is not None else DampingSpec("sqrt")
    problem = Problem(
        u0=_zero_1d if config.dim == 1 else _zero_2d,
        u1=_zero_1d if config.dim == 1 else _zero_2d,
        f=None,
    )
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


def _write_checkpoint(path, state: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("node,value\n")
        for idx, val in enumerate(state):
            handle.write(f"{idx},{FLOAT_FMT % val}\n")


def run_single(config: RunConfig, zero_forcing: bool = False):
    """Execute one run and write its diagnostics; returns (record, paths).

    When the energy series is requested the run is extended one step past
    the final time so the centered velocity exists at the terminal index.
    The diagnostics are computed as the steps arrive, so the run keeps no
    trajectory.
    """
    problem, kernel, damping = preset_problem(config, zero_forcing=zero_forcing)
    mesh = Mesh(config.dim, config.m)
    ops = assemble(mesh, lumped_mass=preset_uses_lumped_mass(config.preset))
    n_steps = config.n + 1 if config.energy else config.n
    table = build_weight_table(kernel, config.tau, max(1, n_steps - 1))
    diagnostics = RunDiagnostics(mesh, ops, problem, config.tau, table.mu0, n_steps,
                                 config.checkpoints)
    run(problem, mesh, config.tau, n_steps, damping=damping, ops=ops, table=table,
        observe=diagnostics)

    record = diagnostics.record(
        config.preset, preset=config.preset, t_final=config.t_final, n=config.n,
    )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if config.energy:
        energy_path = out / "energy.csv"
        write_energy_csv(energy_path, record)
        paths.append(energy_path)
    for c in config.checkpoints:
        cp_path = out / f"checkpoint_{c:06d}.csv"
        _write_checkpoint(cp_path, diagnostics.checkpoints[c])
        paths.append(cp_path)
    return record, paths


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
    refinement, so one extra run beyond the ladder is executed and shared
    operators/tables are reused across rungs.  Each run keeps only its
    terminal gradient.
    """
    if mode not in ("time", "space"):
        raise ConfigError(f"mode must be 'time' or 'space', got {mode!r}")
    entries = _validate_ladder(ladder, mode)
    problem, kernel, damping = preset_problem(config)
    needed = entries + (2 * entries[-1],)
    lumped = preset_uses_lumped_mass(config.preset)

    def terminal(mesh, ops, tau, n_steps, **given) -> TerminalGradient:
        kept = TerminalGradient(mesh, ops, tau, n_steps)
        run(problem, mesh, tau, n_steps, damping=damping, ops=ops, observe=kept, **given)
        return kept

    rungs = {}
    if mode == "time":
        mesh = Mesh(config.dim, config.m)
        ops = assemble(mesh, lumped_mass=lumped)
        for n_val in needed:
            rungs[n_val] = terminal(mesh, ops, config.t_final / n_val, n_val, kernel=kernel)
        errors = [self_error_time(rungs[nv], rungs[2 * nv]) for nv in entries]
        labels = [(config.m, nv) for nv in entries]
    else:
        tau = config.tau
        table = build_weight_table(kernel, tau, max(1, config.n - 1))
        for m_val in needed:
            mesh = Mesh(config.dim, m_val)
            rungs[m_val] = terminal(mesh, assemble(mesh, lumped_mass=lumped), tau, config.n,
                                    table=table)
        errors = [self_error_space(rungs[mv], rungs[2 * mv]) for mv in entries]
        labels = [(mv, config.n) for mv in entries]

    rows = []
    for i, ((m_val, n_val), err) in enumerate(zip(labels, errors)):
        cr = rate(errors[i - 1], err) if i > 0 else None
        rows.append((m_val, n_val, err, cr))
    return rows


def dump_weights(config: RunConfig, n_max: Optional[int] = None):
    """Weight-table dump rows (n, p, weight, running edge sum, bound flag).

    The running sum column tracks the accumulated p = 0 weights and the flag
    records whether it still satisfies the theoretical bound of 1.
    """
    if config.kernel is None:
        raise ConfigError("missing section [kernel]: the weights dump requires it")
    n_max = config.n if n_max is None else int(n_max)
    table = build_weight_table(config.kernel, config.tau, n_max)
    rows = []
    running = 0.0
    for n in range(1, n_max + 1):
        running += float(table.edge_left[n])
        for p in range(0, n + 1):
            entry = [n, p, table.weight(n, p)]
            if p == 0:
                entry += [running, running <= 1.0 + 1.0e-12]
            else:
                entry += [None, None]
            rows.append(tuple(entry))
    return table, rows


def _write_weights_csv(path, rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("n,p,weight,edge_running_sum,sum_le_one\n")
        for n, p, w, running, flag in rows:
            tail = ",," if running is None else (
                f",{FLOAT_FMT % running},{'true' if flag else 'false'}"
            )
            handle.write(f"{n},{p},{FLOAT_FMT % w}{tail}\n")


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
            record, paths = run_single(config)
            print(f"run {config.preset}: {record.meta['n_steps']} steps completed")
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "energy":
            config = replace(config, energy=True)
            record, paths = run_single(config, zero_forcing=True)
            print(f"energy study {config.preset}: start {FLOAT_FMT % record.energy[0]}, "
                  f"end {FLOAT_FMT % record.energy[-1]}")
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
            table, rows = dump_weights(config)
            path = out / "weights.csv"
            _write_weights_csv(path, rows)
            flags = [r[4] for r in rows if r[4] is not None]
            print(f"{len(rows)} weights, final running-sum flag: "
                  f"{'true' if flags and flags[-1] else 'false'}")
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
