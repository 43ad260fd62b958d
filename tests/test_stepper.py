"""Damping, Taylor start, stepping, the memory sum, reduction to the plain damped wave."""

import dataclasses
import math

import numpy as np
import pytest

import memwave.stepper as stepper
from memwave.cli import RunConfig, preset_problem
from memwave.fem import Mesh, assemble, interpolate, load_vector
from memwave.kernel import KernelSpec, QuadratureError, constant_transform
from memwave.quadweights import build_weight_table
from memwave.stepper import (
    _MEMORY_BLOCK,
    DampingSpec,
    LevelNorms,
    Problem,
    SimulationHistory,
    SolverError,
    StepError,
    damping_value,
    run,
    step,
    taylor_start,
)

ZERO_KERNEL = constant_transform(0.0)


def _zero_field(x, t=None):
    return np.zeros(np.shape(x))


def _velocity_rows(hist):
    """The rows the memory sum of step n = n_last weights, from the recorded
    trajectory: d_0 = the initial velocity, d_p = (U^{p+1} - U^{p-1}) / (2 tau)."""
    coeffs = hist.coefficients
    return np.vstack([hist.initial_velocity, (coeffs[2:] - coeffs[:-2]) / (2.0 * hist.tau)])


def _direct_memory_sum(hist):
    """The direct sum coefficients(n)[:n] @ rows of step n = n_last."""
    return hist.table.coefficients(hist.n_last)[:hist.n_last] @ _velocity_rows(hist)


def _norms(ops, coeffs):
    """LevelNorms of a state with its mass and elastic norms only."""
    return LevelNorms(float(coeffs @ coeffs), float((ops.eigenvalues * coeffs) @ coeffs),
                      math.nan, math.nan)


def _memory_arrays(hist):
    """Copies of the arrays the history's memory holds."""
    return [v.copy() for v in vars(hist._memory).values() if isinstance(v, np.ndarray)]


def _start_history(ops, mesh, problem, tau):
    """A history holding only the interpolated initial data, for taylor_start."""
    return SimulationHistory(mesh, ops, build_weight_table(ZERO_KERNEL, tau, 1),
                             interpolate(mesh, problem.u0), interpolate(mesh, problem.u1), 1)


SINE_PROBLEM = Problem(
    u0=lambda x: np.sin(np.pi * x),
    u1=lambda x: np.sin(2.0 * np.pi * x),
    f=None,
)

BUMP_PROBLEM = Problem(
    u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    u1=lambda x, y: np.sin(2 * np.pi * x) * y * (1.0 - y),
    f=None,
)


class TestDampingSpec:
    def test_kinds_and_derived_bounds(self):
        assert DampingSpec("affine").g0 == 1.0
        assert DampingSpec("affine").lipschitz == 1.0
        assert DampingSpec("sqrt").lipschitz == 0.5
        const = DampingSpec("constant", constant=0.7)
        assert const.g0 == 0.7
        assert const.lipschitz == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DampingSpec("cubic")
        with pytest.raises(ValueError):
            DampingSpec("sqrt", mu1=-1.0)
        with pytest.raises(ValueError):
            DampingSpec("sqrt", mu1=0.0, mu2=0.0)
        with pytest.raises(ValueError):
            DampingSpec("constant", constant=0.0)
        for kind in ("sqrt", "constant"):
            for name in ("mu1", "mu2", "constant"):
                for bad in (math.nan, math.inf):
                    with pytest.raises(ValueError, match=f"{name} must be finite"):
                        DampingSpec(kind, **{name: bad})

    def test_value_forms(self):
        assert DampingSpec("affine").value(2.0) == 3.0
        assert DampingSpec("sqrt").value(3.0) == 2.0
        assert DampingSpec("constant", constant=4.2).value(9.9) == 4.2


class TestDampingValue:
    def test_zero_state(self):
        ops = assemble(Mesh(1, 8))
        assert damping_value(DampingSpec("sqrt"), _norms(ops, np.zeros(7))) == 1.0

    def test_constant_ignores_state(self):
        ops = assemble(Mesh(1, 8))
        rng = np.random.default_rng(0)
        assert damping_value(DampingSpec("constant", constant=2.5),
                             _norms(ops, rng.standard_normal(7))) == 2.5

    def test_nan_state_raises_step_error(self):
        ops = assemble(Mesh(1, 8))
        coeffs = np.ones(7)
        coeffs[3] = np.nan
        for kind in ("sqrt", "affine"):
            with pytest.raises(StepError, match="q = nan at argument z = nan"):
                damping_value(DampingSpec(kind), _norms(ops, coeffs))

    def test_modal_norms_match_nodal(self):
        mesh = Mesh(2, 8)
        ops = assemble(mesh)
        u = np.random.default_rng(3).standard_normal(mesh.n_interior)
        spec = DampingSpec("affine", mu1=0.3, mu2=0.7)
        nodal = spec.value(0.3 * float(u @ (ops.mass @ u)) + 0.7 * float(u @ (ops.stiffness @ u)))
        modal = damping_value(spec, _norms(ops, ops.to_modal(u)))
        assert modal == pytest.approx(nodal, rel=1e-13)

    def test_sine_state_matches_continuous_norms(self):
        # ||sin(pi x)||^2 = 1/2 and ||pi cos(pi x)||^2 = pi^2/2
        mesh = Mesh(1, 64)
        ops = assemble(mesh)
        u = interpolate(mesh, lambda x: np.sin(np.pi * x))
        expected = math.sqrt(1.0 + 0.5 + np.pi**2 / 2.0)
        coeffs = ops.to_modal(u)
        assert damping_value(DampingSpec("sqrt"), _norms(ops, coeffs)) == pytest.approx(expected, abs=1e-3)


class TestTaylorStart:
    def test_quiescent_data(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        prob = Problem(u0=_zero_field, u1=_zero_field, f=None)
        hist = _start_history(ops, mesh, prob, 0.1)
        c1, a0 = taylor_start(hist, DampingSpec("sqrt"), prob)
        for vec in (c1, a0, hist.states[0], hist.states[1], hist.u1h):
            assert np.all(vec == 0.0)

    def test_pure_velocity_start(self):
        # u0 = 0, f = 0: the acceleration reduces to -q(0) * u1h exactly
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        prob = Problem(u0=_zero_field, u1=lambda x: np.sin(2 * np.pi * x), f=None)
        tau = 0.05
        damping = DampingSpec("sqrt")
        hist = _start_history(ops, mesh, prob, tau)
        _, a0 = taylor_start(hist, damping, prob)
        q0 = damping_value(damping, _norms(ops, hist.coefficients[0]))
        assert q0 == 1.0
        u1h, u2h = hist.u1h, ops.to_nodal(a0)
        assert u2h == pytest.approx(-q0 * u1h, abs=1e-12)
        assert hist.states[1] == pytest.approx(tau * u1h * (1.0 - tau * q0 / 2.0), abs=1e-12)

    def test_acceleration_matches_analytic_field(self):
        # u2 = -q(0) sin(2 pi x) - pi^2 sin(pi x) for the sine data with f = 0
        mesh = Mesh(1, 64)
        ops = assemble(mesh)
        damping = DampingSpec("sqrt")
        hist = _start_history(ops, mesh, SINE_PROBLEM, 0.01)
        _, a0 = taylor_start(hist, damping, SINE_PROBLEM)
        q0 = damping_value(damping, _norms(ops, hist.coefficients[0]))
        u2h = ops.to_nodal(a0)
        expected = interpolate(
            mesh, lambda x: -q0 * np.sin(2 * np.pi * x) - np.pi**2 * np.sin(np.pi * x)
        )
        diff = u2h - expected
        h1_err = math.sqrt(float(diff @ (ops.stiffness @ diff)))
        assert h1_err < 0.5 * mesh.h * np.pi**3


class TestStepping:
    def test_zero_fixed_point(self):
        mesh = Mesh(1, 8)
        prob = Problem(u0=_zero_field, u1=_zero_field, f=None)
        hist = run(prob, mesh, 0.02, 50, kernel=KernelSpec(1.0, 2.0, 2.0), damping=DampingSpec("sqrt"))
        assert np.abs(hist.states).max() <= 1e-12

    def test_single_step_run_is_taylor_only(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        hist = run(SINE_PROBLEM, mesh, 0.1, 1, kernel=ZERO_KERNEL,
                   damping=DampingSpec("sqrt"), ops=ops)
        assert hist.n_last == 1
        start = _start_history(ops, mesh, SINE_PROBLEM, 0.1)
        c1, _ = taylor_start(start, DampingSpec("sqrt"), SINE_PROBLEM)
        assert np.array_equal(hist.coefficients[1], c1)
        assert hist.states[1] == pytest.approx(start.states[1], abs=0.0)

    def test_history_bookkeeping(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        tau = 0.05
        hist = run(SINE_PROBLEM, mesh, tau, 6, kernel=KernelSpec(1.0, 2.0, 1.0),
                   damping=DampingSpec("affine"), ops=ops)
        coeffs = hist.coefficients
        assert len(hist.states) == 7
        assert len(coeffs) == 7
        v1 = ops.to_modal(interpolate(mesh, SINE_PROBLEM.u1))
        assert np.array_equal(hist.initial_velocity, v1)
        # the nodal states are the initial data as given, then the map of
        # each row of coefficients
        states = hist.states
        assert np.array_equal(states[0], interpolate(mesh, SINE_PROBLEM.u0))
        assert np.array_equal(states[1:], ops.to_nodal(coeffs)[1:])
        for k in range(1, 7):
            assert np.abs(hist.state(k) - states[k]).max() <= 1e-15
        # the buffers are sized once, for the requested steps
        with pytest.raises(IndexError):
            hist.push(coeffs[-1].copy())

    def test_step_order_enforced(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        # the history steps at its own last level: not at 0, and not past its size
        start = _start_history(ops, mesh, SINE_PROBLEM, 0.1)
        with pytest.raises(ValueError, match="use taylor_start first"):
            step(start, DampingSpec("sqrt"), SINE_PROBLEM)
        # the table ends at the last step taken, as run builds it, or reaches past the run
        for table_steps in (1, 40):
            table = build_weight_table(KernelSpec(1.0, 2.0, 0.0), 0.1, table_steps)
            hist = run(SINE_PROBLEM, mesh, 0.1, 2, damping=DampingSpec("sqrt"), ops=ops,
                       table=table)
            with pytest.raises(ValueError):
                taylor_start(hist, DampingSpec("sqrt"), SINE_PROBLEM)
            held = _memory_arrays(hist)
            with pytest.raises(IndexError, match="step 2 would pass the 2 steps"):
                step(hist, DampingSpec("sqrt"), SINE_PROBLEM)
            assert hist.n_last == 2
            assert all(np.array_equal(a, b) for a, b in zip(_memory_arrays(hist), held))

    def test_history_binds_its_table(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        table = build_weight_table(KernelSpec(1.0, 2.0, 1.0), 0.1, 4)
        with pytest.raises(ValueError, match="covers n <= 4, need 5"):
            SimulationHistory(mesh, ops, table, np.zeros(7), np.zeros(7), 6)
        hist = SimulationHistory(mesh, ops, table, np.zeros(7), np.zeros(7), 5)
        assert hist.table is table and hist.ops is ops
        assert (hist.tau, hist.mu0) == (table.tau, table.mu0)
        assert 0.0 < hist.mu0 < 1.0

    def test_degenerate_elastic_coefficient_rejected(self):
        # a strongly negative hook kernel drives the diagonal weight negative
        mesh = Mesh(1, 8)
        tau = 0.1
        hook = lambda t: -(16.0 / tau) * np.asarray(t, dtype=float)
        with pytest.raises(StepError):
            run(SINE_PROBLEM, mesh, tau, 5, kernel=hook, damping=DampingSpec("sqrt"))

    def test_non_finite_system_diagonal_raises_solver_error(self):
        # |u|^2 overflows, so q_n and the modal diagonal are infinite
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        table = build_weight_table(KernelSpec(1.0, 2.0, 1.0), 0.1, 4)
        # the squared norms overflow when the history forms them, at U^0 and
        # in push; the finite level passes push and its step raises
        with np.errstate(over="ignore"):
            hist = SimulationHistory(mesh, ops, table, np.full(7, 1e200), np.zeros(7), 4)
            hist.push(hist.coefficients[0].copy())
            with pytest.raises(SolverError, match="step 1 .* smallest entry inf"):
                step(hist, DampingSpec("sqrt"), SINE_PROBLEM)

    def test_non_finite_state_raises_step_error(self):
        # constant damping never looks at the state, so only the finiteness
        # check on the new state stops the NaN
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        damping = DampingSpec("constant", constant=1.0)
        nan_data = Problem(u0=lambda x: np.where(x > 0.5, np.nan, x), u1=_zero_field, f=None)
        with pytest.raises(StepError, match=r"state U\^1 computed at step 0 is not finite"):
            run(nan_data, mesh, 0.1, 4, kernel=KernelSpec(1.0, 2.0, 1.0), damping=damping, ops=ops)

        nan_forcing = Problem(u0=SINE_PROBLEM.u0, u1=SINE_PROBLEM.u1,
                              f=lambda x, t: np.full(np.shape(x), np.nan if t > 0.0 else 0.0))
        table = build_weight_table(KernelSpec(1.0, 2.0, 1.0), 0.1, 3)
        hist = SimulationHistory(mesh, ops, table, interpolate(mesh, nan_forcing.u0),
                                 interpolate(mesh, nan_forcing.u1), 4)
        taylor_start(hist, damping, nan_forcing)
        with pytest.raises(StepError, match=r"state U\^2 computed at step 1 is not finite"):
            step(hist, damping, nan_forcing)
        assert hist.n_last == 1

    def test_2d_lumped_mass_rejected(self):
        # the 2d lumped operators are refused before any run can use them
        mesh = Mesh(2, 4)
        prob = Problem(u0=lambda x, y: x * y, u1=lambda x, y: 0.0 * x, f=None)
        with pytest.raises(ValueError, match="lumped mass is 1d only"):
            run(prob, mesh, 0.1, 2, kernel=ZERO_KERNEL, damping=DampingSpec("sqrt"),
                ops=assemble(mesh, lumped_mass=True))

    def test_run_validation(self):
        mesh = Mesh(1, 8)
        with pytest.raises(ValueError):
            run(SINE_PROBLEM, mesh, 0.1, 0, kernel=ZERO_KERNEL, damping=DampingSpec("sqrt"))
        with pytest.raises(ValueError):
            run(SINE_PROBLEM, mesh, 0.1, 2, kernel=ZERO_KERNEL, damping=None)
        with pytest.raises(ValueError):
            run(SINE_PROBLEM, mesh, 0.1, 2, damping=DampingSpec("sqrt"))
        table = build_weight_table(ZERO_KERNEL, 0.1, 2)
        with pytest.raises(ValueError):
            run(SINE_PROBLEM, mesh, 0.1, 9, table=table, damping=DampingSpec("sqrt"))
        with pytest.raises(ValueError):
            run(SINE_PROBLEM, mesh, 0.2, 2, table=table, damping=DampingSpec("sqrt"))


def _reference_damped_wave(mesh, tau, n_steps, c, forcing):
    """Centered damped-wave stepper coded independently: dense algebra,
    explicit stencils, per-entry load quadrature."""
    m = mesh.m
    h = 1.0 / m
    n = m - 1
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for i in range(n):
        mass[i, i] = 4.0 * h / 6.0
        stiff[i, i] = 2.0 / h
        if i > 0:
            mass[i, i - 1] = h / 6.0
            stiff[i, i - 1] = -1.0 / h
        if i < n - 1:
            mass[i, i + 1] = h / 6.0
            stiff[i, i + 1] = -1.0 / h
    gx = np.array([0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10])
    gw = np.array([5.0, 8.0, 5.0]) / 18.0

    def load(t):
        out = np.zeros(m + 1)
        for k in range(m):
            for q in range(3):
                x = (k + gx[q]) * h
                val = forcing(x, t)
                out[k] += h * gw[q] * val * (1.0 - gx[q])
                out[k + 1] += h * gw[q] * val * gx[q]
        return out[1:m]

    xs = h * np.arange(1, m)
    u_prev = np.sin(np.pi * xs)
    vel = np.sin(2.0 * np.pi * xs)
    acc = np.linalg.solve(mass, -c * (mass @ vel) - stiff @ u_prev + load(0.0))
    u_cur = u_prev + tau * vel + 0.5 * tau * tau * acc
    states = [u_prev, u_cur]
    for k in range(1, n_steps):
        lhs = (1.0 / tau**2 + c / (2.0 * tau)) * mass + 0.5 * stiff
        rhs = (
            (2.0 / tau**2) * (mass @ states[k])
            - (1.0 / tau**2 - c / (2.0 * tau)) * (mass @ states[k - 1])
            - 0.5 * (stiff @ states[k - 1])
            + load(k * tau)
        )
        states.append(np.linalg.solve(lhs, rhs))
    return states


def _dense_direct(ops, mesh, problem, damping, table, tau, n_steps):
    """The scheme on the assembled matrices: one dense solve with S per step,
    the memory sum built from table.coefficients(n) and A applied to the
    stored centered differences."""
    mass, stiff = ops.mass, ops.stiffness

    def q(u):
        return damping.value(damping.mu1 * (u @ mass @ u) + damping.mu2 * (u @ stiff @ u))

    u0 = interpolate(mesh, problem.u0)
    vel = [interpolate(mesh, problem.u1)]
    acc = np.linalg.solve(
        mass, -q(u0) * (mass @ vel[0]) - stiff @ u0 + load_vector(mesh, problem.f, 0.0)
    )
    states = [u0, u0 + tau * vel[0] + 0.5 * tau * tau * acc]
    mu0 = table.mu0
    for n in range(1, n_steps):
        if n >= 2:
            vel.append((states[n] - states[n - 2]) / (2.0 * tau))
        q_n = q(states[n])
        w_nn = table.edge_right
        lhs = (1.0 / tau**2 + q_n / (2.0 * tau)) * mass + (0.5 * mu0 + w_nn / (2.0 * tau)) * stiff
        memory = stiff @ (table.coefficients(n)[:n] @ np.array(vel))
        rhs = (
            (2.0 / tau**2) * (mass @ states[n])
            - (1.0 / tau**2 - q_n / (2.0 * tau)) * (mass @ states[n - 1])
            - (0.5 * mu0 - w_nn / (2.0 * tau)) * (stiff @ states[n - 1])
            - memory
            + load_vector(mesh, problem.f, n * tau)
            - table.k_values[n] * (stiff @ u0)
        )
        states.append(np.linalg.solve(lhs, rhs))
    return np.array(states)


class TestModalStepping:
    """Whole trajectories of the modal stepper against the dense direct one."""

    @staticmethod
    def _bench(dim, alpha):
        """Initial data, forcing and damping of the benchmark preset."""
        config = RunConfig(
            preset="benchmark_1d" if dim == 1 else "benchmark_2d", dim=dim, m=16, n=1,
            t_final=1.0, kernel=KernelSpec(alpha, 3.0, 3.0 * math.sqrt(3.0)), damping=None,
        )
        return preset_problem(config)

    @pytest.mark.parametrize("case", ["1d_lumped_forced_half", "1d_consistent_one",
                                      "2d_consistent_half"])
    def test_matches_dense_direct_stepper(self, case):
        if case == "1d_lumped_forced_half":
            mesh, lumped, tau, n_steps = Mesh(1, 16), True, 1.0 / 64, 64
            problem, kernel, damping = self._bench(1, 0.5)
            assert problem.f is not None
        elif case == "1d_consistent_one":
            mesh, lumped, tau, n_steps = Mesh(1, 16), False, 2.0 / 64, 64
            problem, kernel, damping = SINE_PROBLEM, KernelSpec(1.0, 2.0, 2.0), DampingSpec("affine")
        else:
            mesh, lumped, tau, n_steps = Mesh(2, 16), False, 0.5 / 32, 32
            problem, kernel, damping = self._bench(2, 0.5)
        ops = assemble(mesh, lumped_mass=lumped)
        table = build_weight_table(kernel, tau, n_steps - 1)
        hist = run(problem, mesh, tau, n_steps, damping=damping, ops=ops, table=table)
        oracle = _dense_direct(ops, mesh, problem, damping, table, tau, n_steps)
        worst = np.abs(hist.states - oracle).max()
        assert worst <= 1e-10 * np.abs(oracle).max()


class TestBlockedMemorySum:
    """memory_sum against the direct sum table.coefficients(n)[:n] @ rows at
    every step, the rows derived from the recorded trajectory: entrywise
    within 1e-13 * (|weights| @ |rows|), before and after the modes take
    over the lags of L0 and more."""

    @staticmethod
    def _step_and_compare(mesh, problem, damping, table, n_steps):
        hist = SimulationHistory(mesh, assemble(mesh), table, interpolate(mesh, problem.u0),
                                 interpolate(mesh, problem.u1), n_steps)
        taylor_start(hist, damping, problem)
        for n in range(1, n_steps):
            weights, rows = hist.table.coefficients(n)[:n], _velocity_rows(hist)
            scale = np.abs(weights) @ np.abs(rows)
            assert np.all(np.abs(hist.memory_sum() - weights @ rows) <= 1e-13 * scale), n
            step(hist, damping, problem)
        return hist

    def test_1d_clipped_last_block(self):
        # the step count is no multiple of the block, so the run's last step
        # clips the last block; the table ends at that step
        n_steps = 2 * _MEMORY_BLOCK + 22
        tau = 2.0 / n_steps
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)), tau, n_steps - 1)
        assert table.n_max == n_steps - 1
        self._step_and_compare(Mesh(1, 16), SINE_PROBLEM, DampingSpec("sqrt"), table, n_steps)

    def test_run_shorter_than_one_block(self):
        # the turn that serves the first block is clipped at the run's
        # last step, which the table ends at
        n_steps = 20
        tau = 1.0 / n_steps
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)), tau, n_steps - 1)
        self._step_and_compare(Mesh(1, 16), SINE_PROBLEM, DampingSpec("sqrt"), table, n_steps)

    def test_2d(self):
        # the table reaches past the run, whose last step clips the last block
        n_steps = 2 * _MEMORY_BLOCK + 13
        tau = 1.0 / n_steps
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0), tau, n_steps + 40)
        self._step_and_compare(Mesh(2, 8), BUMP_PROBLEM, DampingSpec("affine"), table, n_steps)

    def test_decay_over_twenty_orders(self):
        # the bound is relative to each step's own terms, so it stays sharp
        # while the states fall from 1 to below 1e-20
        n_steps, tau = 400, 50.0 / 400
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)), tau, n_steps - 1)
        hist = self._step_and_compare(Mesh(1, 8), SINE_PROBLEM,
                                      DampingSpec("constant", constant=3.0), table, n_steps)
        coeffs = hist.coefficients
        assert np.abs(coeffs[-1]).max() < 1e-20 * np.abs(coeffs[0]).max()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_alpha_one_is_one_mode(self, dim):
        # criterion 8's indefinite alpha = 1 kernel: two state rows, the real
        # and imaginary part of the one exact mode
        n_steps = 5 * _MEMORY_BLOCK + 7
        tau = 3.0 / n_steps
        table = build_weight_table(KernelSpec(1.0, 3.0, 3.0 * math.sqrt(3.0)), tau, n_steps - 1)
        mesh, problem = (Mesh(1, 16), SINE_PROBLEM) if dim == 1 else (Mesh(2, 8), BUMP_PROBLEM)
        hist = self._step_and_compare(mesh, problem, DampingSpec("sqrt"), table, n_steps)
        assert hist._memory._offset == 1 + 2 + _MEMORY_BLOCK - 1

    def test_block_operand_reads_the_body_weights(self):
        # the near columns of the block operand: entry [i, c] is
        # body[L0 - 1 + i - c] at every lag >= 1, else 0; and a run leaves the
        # table's arrays as built
        n_steps = 3 * _MEMORY_BLOCK + 5
        tau = 2.0 / n_steps
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0), tau, n_steps - 1)
        body, edge_left = table.body.copy(), table.edge_left.copy()
        hist = self._step_and_compare(Mesh(1, 16), SINE_PROBLEM, DampingSpec("sqrt"),
                                      table, n_steps)
        memory = hist._memory
        states = memory._offset - _MEMORY_BLOCK + 1
        assert memory._weights.shape == (_MEMORY_BLOCK, states + 2 * _MEMORY_BLOCK - 1)
        near = memory._weights[:, states:]
        lags = _MEMORY_BLOCK - 1 + np.arange(_MEMORY_BLOCK)[:, None] - np.arange(near.shape[1])
        assert np.array_equal(near[lags >= 1], table.body[lags[lags >= 1]])
        assert np.all(near[lags < 1] == 0.0)
        assert np.array_equal(table.body, body)
        assert np.array_equal(table.edge_left, edge_left)

    def test_runs_leave_a_shared_table_as_built(self):
        # two runs on one table: the table keeps its fields and every array
        # bit for bit, and the runs agree bitwise
        n_steps, tau = 600, 60.0 / 600
        table = build_weight_table(KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0)), tau, n_steps - 1)
        built = {key: np.array(value).tobytes() for key, value in vars(table).items()}
        mesh, damping = Mesh(1, 16), DampingSpec("constant", constant=1.0)
        runs = []
        for _ in range(2):
            runs.append(run(SINE_PROBLEM, mesh, tau, n_steps, damping=damping, table=table))
            assert vars(table).keys() == built.keys()
            for key, value in vars(table).items():
                assert np.array(value).tobytes() == built[key], key
        assert runs[0].coefficients.tobytes() == runs[1].coefficients.tobytes()


class TestMemoryWindow:
    """The exact window and the modes on decaying runs, alpha = 1/2 and alpha = 1."""

    N_STEPS, TAU = 600, 60.0 / 600
    KERNEL = KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0))

    @pytest.mark.parametrize("kernel, damping", [
        (KERNEL, DampingSpec("constant", constant=1.0)),
        (KernelSpec(1.0, 2.0, 1.0), DampingSpec("sqrt")),
    ], ids=["alpha=0.5", "alpha=1"])
    def test_trajectory_matches_direct_sum(self, monkeypatch, kernel, damping):
        # every level against the run with the direct sum over rows derived
        # from its trajectory, within 1e-12 of its own l2 norm while the
        # states fall by 13 orders or more
        mesh = Mesh(1, 16)
        ours = run(SINE_PROBLEM, mesh, self.TAU, self.N_STEPS, kernel=kernel, damping=damping)
        monkeypatch.setattr(SimulationHistory, "memory_sum", _direct_memory_sum)
        direct = run(SINE_PROBLEM, mesh, self.TAU, self.N_STEPS, kernel=kernel, damping=damping)
        ours, theirs = ours.coefficients, direct.coefficients
        assert np.linalg.norm(theirs[-1]) < 1e-12 * np.linalg.norm(theirs[0])
        errors = np.linalg.norm(ours - theirs, axis=1)
        assert np.all(errors <= 1e-12 * np.linalg.norm(theirs, axis=1))

    def test_window_does_not_widen(self):
        # the memory holds the same arrays at every step of the run: its
        # buffer keeps the 2K state rows, the L0 - 1 rows of the previous
        # block and the L0 slots of the current one
        mesh, damping = Mesh(1, 16), DampingSpec("constant", constant=1.0)
        table = build_weight_table(self.KERNEL, self.TAU, self.N_STEPS - 1)
        hist = SimulationHistory(mesh, assemble(mesh), table, interpolate(mesh, SINE_PROBLEM.u0),
                                 interpolate(mesh, SINE_PROBLEM.u1), self.N_STEPS)
        taylor_start(hist, damping, SINE_PROBLEM)
        step(hist, damping, SINE_PROBLEM)  # from here U^0, U^{n-1} and U^n are three arrays
        memory, held = hist._memory, hist.nbytes
        states = memory._offset - _MEMORY_BLOCK + 1
        for _ in range(2, self.N_STEPS):
            step(hist, damping, SINE_PROBLEM)
            assert hist.nbytes == held
            assert memory._front.shape == (states + 2 * _MEMORY_BLOCK - 1, mesh.n_interior)

    def test_quiescent_history_drops_no_row(self):
        # zero data long enough for the modes to take over: every level and
        # every state row stays exactly 0
        prob = Problem(u0=_zero_field, u1=_zero_field, f=None)
        hist = run(prob, Mesh(1, 8), self.TAU, self.N_STEPS, kernel=self.KERNEL,
                   damping=DampingSpec("sqrt"))
        assert np.all(hist.coefficients == 0.0)
        assert not hist._memory._front.any() and not hist._memory._back.any()

    @pytest.mark.parametrize("column, lag", [("body", 40)])
    def test_mode_misfit_raises_quadrature_error(self, column, lag):
        # a weight the modes do not reproduce, at a lag the modes serve, is
        # refused when the history is built; inside the exact window it is not
        mesh = Mesh(1, 8)
        table = build_weight_table(self.KERNEL, self.TAU, 100)
        u0, u1 = interpolate(mesh, SINE_PROBLEM.u0), interpolate(mesh, SINE_PROBLEM.u1)
        for at, fails in ((lag, True), (_MEMORY_BLOCK - 1, False)):
            weights = getattr(table, column).copy()
            weights[at] += 1e-11 * self.TAU
            bad = dataclasses.replace(table, **{column: weights})
            if fails:
                with pytest.raises(QuadratureError, match=f"at lag {at} by"):
                    SimulationHistory(mesh, assemble(mesh), bad, u0, u1, 101)
            else:
                SimulationHistory(mesh, assemble(mesh), bad, u0, u1, 101)

    def test_edge_column_is_read_from_the_table(self):
        # the modes serve body alone, and d_0 takes edge_left[n] from the
        # table at every step: an edge weight off by far more than the
        # modes' tolerance is accepted, and moves the memory sum of its
        # step by delta * d_0
        mesh, damping, at, delta = Mesh(1, 8), DampingSpec("sqrt"), 40, 1e-11 * self.TAU
        table = build_weight_table(self.KERNEL, self.TAU, 100)
        edge = table.edge_left.copy()
        edge[at] += delta
        sums = []
        for weights in (table, dataclasses.replace(table, edge_left=edge)):
            hist = SimulationHistory(mesh, assemble(mesh), weights,
                                     interpolate(mesh, SINE_PROBLEM.u0),
                                     interpolate(mesh, SINE_PROBLEM.u1), 101)
            taylor_start(hist, damping, SINE_PROBLEM)
            while hist.n_last < at:
                step(hist, damping, SINE_PROBLEM)
            sums.append(hist.memory_sum())
        scale = np.abs(table.coefficients(at)[:at]) @ np.abs(_velocity_rows(hist))
        moved = sums[1] - sums[0] - delta * hist.initial_velocity
        assert np.all(np.abs(moved) <= 4.0 * np.finfo(float).eps * scale)

    def test_nonzero_kernel_hook_is_refused(self):
        # a callable hook has no exponential modes; only the zero hook,
        # whose memory keeps nothing, may drive a run
        mesh = Mesh(1, 8)
        table = build_weight_table(constant_transform(0.5), 0.1, 4)
        with pytest.raises(ValueError, match="KernelSpec"):
            SimulationHistory(mesh, assemble(mesh), table, np.zeros(7), np.zeros(7), 5)

    @pytest.mark.parametrize("real", [0.0, -0.5])
    def test_growing_mode_raises_quadrature_error(self, monkeypatch, real):
        # a rate with Re w <= 0 would not decay in the state rows; building
        # the memory names the mode
        modes = stepper.exponential_modes

        def growing(spec, delta, t_final):
            amplitudes, rates = modes(spec, delta, t_final)
            return amplitudes, np.where(np.arange(rates.size) == 1, real + 1j * rates.imag, rates)

        monkeypatch.setattr(stepper, "exponential_modes", growing)
        mesh = Mesh(1, 8)
        table = build_weight_table(self.KERNEL, self.TAU, 100)
        with pytest.raises(QuadratureError, match="exponential mode 1 has rate"):
            SimulationHistory(mesh, assemble(mesh), table, interpolate(mesh, SINE_PROBLEM.u0),
                              interpolate(mesh, SINE_PROBLEM.u1), 101)


class TestObservedRun:
    """A run with an observer streams its levels and keeps only what a step reads."""

    @staticmethod
    def _case(dim):
        if dim == 1:
            return Mesh(1, 16), SINE_PROBLEM, 1.0 / 50, 50
        problem = Problem(u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                          u1=lambda x, y: np.sin(2 * np.pi * x) * y * (1.0 - y))
        return Mesh(2, 8), problem, 1.0 / 40, 40

    @pytest.mark.parametrize("dim", [1, 2])
    def test_levels_arrive_in_order_as_recorded(self, dim):
        mesh, problem, tau, n_steps = self._case(dim)
        kernel, damping = KernelSpec(0.5, 3.0, 3.0), DampingSpec("sqrt")
        seen = []
        hist = run(problem, mesh, tau, n_steps, kernel=kernel, damping=damping,
                   observe=lambda n, coeffs, norms: seen.append((n, coeffs.copy())))
        recorded = run(problem, mesh, tau, n_steps, kernel=kernel, damping=damping)
        assert [n for n, _ in seen] == list(range(n_steps + 1))
        assert np.array_equal(np.array([c for _, c in seen]), recorded.coefficients)
        assert all(np.array_equal(a, b)
                   for a, b in zip(_memory_arrays(hist), _memory_arrays(recorded)))
        assert np.array_equal(hist.state(n_steps), recorded.state(n_steps))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_norms_match_recorded_trajectory(self, dim):
        # each level's norms are, bit for bit, the same expressions applied
        # to the recorded trajectory; the velocity is that of the memory row
        # d_{n-1}, the initial velocity at n = 1
        mesh, problem, tau, n_steps = self._case(dim)
        kernel, damping = KernelSpec(0.5, 3.0, 3.0), DampingSpec("sqrt")
        seen = []
        run(problem, mesh, tau, n_steps, kernel=kernel, damping=damping,
            observe=lambda n, coeffs, norms: seen.append(norms))
        recorded = run(problem, mesh, tau, n_steps, kernel=kernel, damping=damping)
        lam, c = recorded.ops.eigenvalues, recorded.coefficients
        rows = _velocity_rows(recorded)
        expected = [LevelNorms(float(c[n] @ c[n]), float((lam * c[n]) @ c[n]),
                               float(rows[n - 1] @ rows[n - 1]),
                               float((c[n] - c[n - 1]) @ (c[n] - c[n - 1])))
                    for n in range(1, n_steps + 1)]
        assert seen[1:] == expected
        assert seen[0][:2] == (float(c[0] @ c[0]), float((lam * c[0]) @ c[0]))
        assert math.isnan(seen[0].velocity) and math.isnan(seen[0].increment)

    def test_damping_value_once_per_step(self, monkeypatch):
        # taylor_start and each step read q through the module's damping_value
        calls = []

        def counted(spec, norms):
            calls.append(norms)
            return damping_value(spec, norms)

        monkeypatch.setattr(stepper, "damping_value", counted)
        mesh, problem, tau, n_steps = self._case(1)
        run(problem, mesh, tau, n_steps, kernel=KernelSpec(0.5, 3.0, 3.0),
            damping=DampingSpec("sqrt"), observe=lambda n, coeffs, norms: None)
        assert len(calls) == n_steps

    @pytest.mark.parametrize("dim", [1, 2])
    def test_observed_history_holds_one_row_buffer(self, dim):
        # no array of an observed KernelSpec run grows with the step count:
        # none has more rows than the memory's buffer of 2K state rows and
        # 2 L0 - 1 window rows, and nbytes at 8192 steps is below twice that
        # at 1024 on the same mesh, although the modes grow with log T
        mesh, problem, tau, _ = self._case(dim)
        held = {}
        for n_steps in (1024, 8192):
            hist = run(problem, mesh, tau, n_steps, kernel=KernelSpec(0.5, 3.0, 3.0),
                       damping=DampingSpec("sqrt"), observe=lambda n, coeffs, norms: None)
            memory = hist._memory
            arrays = [v for owner in (hist, hist.constants, memory) for v in vars(owner).values()
                      if isinstance(v, np.ndarray)]
            limit = memory._offset + _MEMORY_BLOCK
            assert memory._front.shape == (limit, mesh.n_interior)
            assert all(a.shape[0] <= limit for a in arrays)
            assert hist.nbytes == sum(a.nbytes for a in arrays)
            held[n_steps] = hist.nbytes
        assert held[8192] < 2 * held[1024]
        with pytest.raises(ValueError, match="observed history"):
            hist.coefficients
        with pytest.raises(ValueError, match="observed history"):
            hist.state(n_steps - 2)

    def test_zero_hook_keeps_no_rows(self):
        # the zero hook's weights are all 0: every step's memory sum is
        # exactly 0, and the memory holds one ndof vector whatever the
        # step count
        mesh, damping = Mesh(1, 16), DampingSpec("sqrt")
        held = {}
        for n_steps in (64, 4096):
            hist = SimulationHistory(mesh, assemble(mesh),
                                     build_weight_table(ZERO_KERNEL, 1.0 / 64, n_steps - 1),
                                     interpolate(mesh, SINE_PROBLEM.u0),
                                     interpolate(mesh, SINE_PROBLEM.u1), n_steps,
                                     observe=lambda n, coeffs, norms: None)
            taylor_start(hist, damping, SINE_PROBLEM)
            for _ in range(1, n_steps):
                assert np.array_equal(hist.memory_sum(), np.zeros(mesh.n_interior))
                step(hist, damping, SINE_PROBLEM)
            assert [a.shape for a in _memory_arrays(hist)] == [(mesh.n_interior,)]
            held[n_steps] = hist.nbytes
        assert held[4096] == held[64]


class TestReductionToDampedWave:
    def test_memory_off_matches_reference_stepper(self):
        mesh = Mesh(1, 16)
        tau, n_steps, c = 0.02, 50, 0.8
        forcing = lambda x, t: np.exp(-t) * np.sin(3 * np.pi * x)
        prob = Problem(u0=lambda x: np.sin(np.pi * x),
                       u1=lambda x: np.sin(2 * np.pi * x), f=forcing)
        hist = run(prob, mesh, tau, n_steps, kernel=ZERO_KERNEL,
                   damping=DampingSpec("constant", constant=c))
        reference = _reference_damped_wave(mesh, tau, n_steps, c, forcing)
        states = hist.states
        worst = max(np.abs(states[k] - reference[k]).max() for k in range(n_steps + 1))
        assert worst < 1e-10


class TestManufacturedSolution:
    def test_second_order_in_time_first_in_space(self):
        prob = Problem(
            u0=lambda x: np.sin(np.pi * x),
            u1=lambda x: -np.sin(np.pi * x),
            f=lambda x, t: np.pi**2 * np.exp(-t) * np.sin(np.pi * x),
        )
        damping = DampingSpec("constant", constant=1.0)
        mesh = Mesh(1, 32)
        ops = assemble(mesh)
        runs = {
            n: run(prob, mesh, 1.0 / n, n, kernel=ZERO_KERNEL, damping=damping, ops=ops)
            for n in (8, 16, 32, 64)
        }
        from memwave.diagnostics import rate, self_error_time

        errors = [self_error_time(runs[n], runs[2 * n]) for n in (8, 16, 32)]
        for r in (rate(errors[0], errors[1]), rate(errors[1], errors[2])):
            assert abs(r - 2.0) <= 0.15

        spatial = []
        for m in (16, 32, 64):
            msh = Mesh(1, m)
            hist = run(prob, msh, 1.0 / 256, 256, kernel=ZERO_KERNEL, damping=damping)
            from memwave.fem import gradient_array

            grads = gradient_array(msh, hist.states[-1])
            xs = msh.interior_coords()
            exact = np.pi * math.exp(-1.0) * np.cos(np.pi * xs)
            spatial.append(math.sqrt(msh.h * float(np.sum((grads - exact) ** 2))))
        for r in (rate(spatial[0], spatial[1]), rate(spatial[1], spatial[2])):
            assert abs(r - 1.0) <= 0.1

    def test_terminal_state_tracks_exact_solution(self):
        prob = Problem(
            u0=lambda x: np.sin(np.pi * x),
            u1=lambda x: -np.sin(np.pi * x),
            f=lambda x, t: np.pi**2 * np.exp(-t) * np.sin(np.pi * x),
        )
        mesh = Mesh(1, 64)
        hist = run(prob, mesh, 1.0 / 128, 128, kernel=ZERO_KERNEL,
                   damping=DampingSpec("constant", constant=1.0))
        xs = mesh.interior_coords()
        exact = math.exp(-1.0) * np.sin(np.pi * xs)
        err = math.sqrt(mesh.h * float(np.sum((hist.states[-1] - exact) ** 2)))
        assert err < 5e-5


class TestLongRunStability:
    def test_no_growth_with_zero_forcing(self):
        mesh = Mesh(1, 16)
        hist = run(SINE_PROBLEM, mesh, 0.05, 400, kernel=KernelSpec(1.0, 2.0, 2.0),
                   damping=DampingSpec("sqrt"))
        ops = assemble(mesh)
        from memwave.diagnostics import a_norm

        norms = np.array([a_norm(hist, ops, m) for m in range(400)])
        assert norms.max() <= norms[0] * 1.05
