"""Energy, stability norm, self-convergence errors, rates, CSV emission."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.diagnostics import (
    RunDiagnostics,
    a_norm,
    discrete_energy,
    energy_series,
    rate,
    self_error_space,
    self_error_time,
    write_convergence_csv,
    write_energy_csv,
)
from memwave.fem import Mesh, assemble, gradient_array, interpolate
from memwave.kernel import KernelSpec, constant_transform
from memwave.quadweights import build_weight_table
from memwave.stepper import DampingSpec, Problem, SimulationHistory, run

SINE_PROBLEM = Problem(
    u0=lambda x: np.sin(np.pi * x),
    u1=lambda x: np.sin(2.0 * np.pi * x),
    f=None,
)


def _stationary_history(mesh, ops, state, tau=0.1, mu0=0.75, steps=3):
    # alpha = 1, gamma = 0: K(0) = 1/sigma = 1 - mu0
    table = build_weight_table(KernelSpec(1.0, 1.0 / (1.0 - mu0)), tau, max(1, steps))
    hist = SimulationHistory(mesh, ops, table, state, np.zeros_like(state), steps)
    for _ in range(steps):
        hist.push(hist.coefficients[0].copy())
    return hist


def _observed_and_recorded(problem, mesh, ops, kernel, damping, tau, steps, checkpoints=()):
    """One run observed by a RunDiagnostics, that observer, and the recorded
    history of the same run."""
    table = build_weight_table(kernel, tau, max(1, steps - 1))
    observer = RunDiagnostics(checkpoints)
    observed = run(problem, mesh, tau, steps, damping=damping, ops=ops, table=table,
                   observe=observer)
    return observed, observer, run(problem, mesh, tau, steps, damping=damping, ops=ops,
                                   table=table)


def _series_by_hand(*rows):
    """energy_series, at tau = 0.1 and mu0 = 0.5, of a hand-filled norm table
    whose rows are (mass, elastic, velocity, increment)."""
    return energy_series(np.array(rows, dtype=float), 0.1, 0.5)


class TestEnergy:
    def test_zero_trajectory(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        hist = _stationary_history(mesh, ops, np.zeros(7))
        assert discrete_energy(hist, ops, 0) == 0.0
        assert discrete_energy(hist, ops, 1) == 0.0

    def test_initial_energy_of_sine_data(self):
        # 0.5*||sin 2pi x||^2 + 0.5*||pi cos pi x||^2 = 1/4 + pi^2/4
        mesh = Mesh(1, 256)
        ops = assemble(mesh)
        hist = run(SINE_PROBLEM, mesh, 0.1, 1, kernel=constant_transform(0.0),
                   damping=DampingSpec("sqrt"), ops=ops)
        expected = 0.25 + np.pi**2 / 4.0
        assert discrete_energy(hist, ops, 0) == pytest.approx(expected, abs=1e-3)

    def test_index_bounds(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        hist = _stationary_history(mesh, ops, np.ones(7), steps=2)
        with pytest.raises(IndexError):
            discrete_energy(hist, ops, 2)

    def test_decay_for_dissipative_benchmark(self):
        mesh = Mesh(1, 32)
        ops = assemble(mesh, lumped_mass=True)
        hist = run(SINE_PROBLEM, mesh, 1.0 / 32, 33,
                   kernel=KernelSpec(1.0, 3.0, 3.0 * math.sqrt(3.0)),
                   damping=DampingSpec("sqrt"), ops=ops)
        energies = np.array([discrete_energy(hist, ops, n) for n in range(33)])
        assert np.all(energies[1:] <= energies[:-1] * (1.0 + 1e-6))
        assert energies[-1] < energies[0]


class TestANorm:
    def test_zero_trajectory(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        hist = _stationary_history(mesh, ops, np.zeros(7))
        assert a_norm(hist, ops, 0) == 0.0

    def test_stationary_state_reduces_to_gradient_term(self):
        mesh = Mesh(1, 16)
        ops = assemble(mesh)
        state = interpolate(mesh, lambda x: np.sin(np.pi * x))
        mu0 = 0.6
        hist = _stationary_history(mesh, ops, state, mu0=mu0)
        expected = math.sqrt(mu0 * float(state @ (ops.stiffness @ state)))
        assert a_norm(hist, ops, 1) == pytest.approx(expected, abs=1e-14)

    def test_index_bounds(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        hist = _stationary_history(mesh, ops, np.ones(7), steps=1)
        with pytest.raises(IndexError):
            a_norm(hist, ops, 1)


class TestSelfErrors:
    def test_identical_terminal_states_give_zero(self):
        mesh = Mesh(1, 16)
        ops = assemble(mesh)
        state = interpolate(mesh, lambda x: np.sin(np.pi * x))
        coarse = _stationary_history(mesh, ops, state, tau=0.1, steps=2)
        fine = _stationary_history(mesh, ops, state, tau=0.05, steps=4)
        assert self_error_time(coarse, fine) == 0.0

    def test_repeated_runs_are_deterministic(self):
        mesh = Mesh(1, 16)
        kern = KernelSpec(1.0, 2.0, 1.0)
        damp = DampingSpec("sqrt")
        first = run(SINE_PROBLEM, mesh, 0.1, 10, kernel=kern, damping=damp)
        second = run(SINE_PROBLEM, mesh, 0.1, 10, kernel=kern, damping=damp)
        assert np.all(first.states == second.states)
        fine = run(SINE_PROBLEM, mesh, 0.05, 20, kernel=kern, damping=damp)
        assert self_error_time(first, fine) > 0.0

    def test_time_mismatch_rejected(self):
        mesh = Mesh(1, 16)
        kern = KernelSpec(1.0, 2.0, 1.0)
        damp = DampingSpec("sqrt")
        a = run(SINE_PROBLEM, mesh, 0.1, 10, kernel=kern, damping=damp)
        b = run(SINE_PROBLEM, mesh, 0.1 / 3, 30, kernel=kern, damping=damp)
        with pytest.raises(ValueError):
            self_error_time(a, b)
        other_mesh = run(SINE_PROBLEM, Mesh(1, 8), 0.05, 20, kernel=kern, damping=damp)
        with pytest.raises(ValueError):
            self_error_time(a, other_mesh)

    @pytest.mark.parametrize("error, coarse, fine, message", [
        (self_error_time, (1, 8, 0.1, 2), (1, 16, 0.05, 4), "runs must share one mesh"),
        (self_error_time, (1, 8, 0.1, 2), (1, 8, 0.05, 3),
         "fine run must have twice the steps: 2 vs 3"),
        (self_error_time, (1, 8, 0.1, 2), (1, 8, 0.06, 4), "fine run must halve the step size"),
        (self_error_space, (1, 4, 0.1, 2), (2, 8, 0.1, 2), "runs must share the dimension"),
        (self_error_space, (1, 4, 0.1, 2), (1, 12, 0.1, 2),
         "fine mesh must halve the cell width: 4 vs 12"),
        (self_error_space, (1, 4, 0.1, 2), (1, 8, 0.1, 3), "runs must share the step count"),
        (self_error_space, (1, 4, 0.1, 2), (1, 8, 0.05, 2), "runs must share the step size"),
    ], ids=["time_mesh", "time_steps", "time_tau", "space_dim", "space_cells", "space_steps",
            "space_tau"])
    def test_mismatch_message(self, error, coarse, fine, message):
        # the checks read mesh, tau and n_last alone, so bare observers do
        runs = []
        for dim, m, tau, n_last in (coarse, fine):
            kept = RunDiagnostics()
            kept.mesh, kept.tau, kept.n_last = Mesh(dim, m), tau, n_last
            runs.append(kept)
        with pytest.raises(ValueError) as info:
            error(*runs)
        assert str(info.value) == message

    def test_space_mismatch_rejected(self):
        kern = KernelSpec(1.0, 2.0, 1.0)
        damp = DampingSpec("sqrt")
        a = run(SINE_PROBLEM, Mesh(1, 16), 0.1, 10, kernel=kern, damping=damp)
        b = run(SINE_PROBLEM, Mesh(1, 48), 0.1, 10, kernel=kern, damping=damp)
        with pytest.raises(ValueError):
            self_error_space(a, b)
        c = run(SINE_PROBLEM, Mesh(1, 32), 0.1, 5, kernel=kern, damping=damp)
        with pytest.raises(ValueError):
            self_error_space(a, c)

    def test_space_error_on_injected_fields(self):
        # identical piecewise-linear fields on nested meshes differ only
        # through the gradient sampling offset
        mesh_c, mesh_f = Mesh(1, 8), Mesh(1, 16)
        ops_c, ops_f = assemble(mesh_c), assemble(mesh_f)
        field = lambda x: x * (1.0 - x)
        hist_c = _stationary_history(mesh_c, ops_c, interpolate(mesh_c, field), steps=2)
        hist_f = _stationary_history(mesh_f, ops_f, interpolate(mesh_f, field), steps=2)
        err = self_error_space(hist_c, hist_f)
        assert err > 0.0
        linear = lambda x: 0.5 * x
        hist_c2 = _stationary_history(mesh_c, ops_c, interpolate(mesh_c, linear), steps=0)
        hist_f2 = _stationary_history(mesh_f, ops_f, interpolate(mesh_f, linear), steps=0)
        # a linear profile through the origin has identical gradient samples
        # on both meshes, so the injected-field error vanishes exactly when
        # the fields are the initial data, which a history keeps as given
        assert self_error_space(hist_c2, hist_f2) == 0.0
        # pushed states are stored as modal coefficients and map back to
        # nodal values only to rounding (the gradients are O(1), divided by h)
        hist_c3 = _stationary_history(mesh_c, ops_c, interpolate(mesh_c, linear), steps=2)
        hist_f3 = _stationary_history(mesh_f, ops_f, interpolate(mesh_f, linear), steps=2)
        assert self_error_space(hist_c3, hist_f3) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_space_error_reads_the_fine_gradient_at_the_coarse_nodes(self, dim):
        # coarse node j is fine node 2j, entry 2j - 1 of the fine gradient
        # along each axis; fields not symmetric in the axes show a swap
        mesh_c, mesh_f = Mesh(dim, 4), Mesh(dim, 8)
        coarse, fine = RunDiagnostics(), RunDiagnostics()
        for kept, mesh in ((coarse, mesh_c), (fine, mesh_f)):
            kept.mesh, kept.tau, kept.n_last = mesh, 0.1, 2
        rng = np.random.default_rng(dim)
        coarse.checkpoints[2] = rng.integers(-8, 9, 3**dim).astype(float)
        fine.checkpoints[2] = rng.standard_normal(7**dim)
        grad_c = gradient_array(mesh_c, coarse.state(2))
        sub = gradient_array(mesh_f, fine.state(2))[(slice(1, None, 2),) * dim]
        expected = math.sqrt(mesh_c.h**dim * float(np.sum((grad_c - sub) ** 2)))
        assert self_error_space(coarse, fine) == expected
        # the coarse field interpolated (bi)linearly onto the fine mesh has
        # the coarse gradient at the coarse nodes, exactly for integer values
        prolong = np.zeros((9, 5))
        prolong[2 * np.arange(5), np.arange(5)] = 1.0
        prolong[2 * np.arange(4) + 1, np.arange(4)] = 0.5
        prolong[2 * np.arange(4) + 1, np.arange(1, 5)] = 0.5
        full = np.zeros((5,) * dim)
        full[(slice(1, 4),) * dim] = coarse.state(2).reshape((3,) * dim)
        full = prolong @ full if dim == 1 else prolong @ full @ prolong.T
        fine.checkpoints[2] = full[(slice(1, 8),) * dim].ravel()
        assert self_error_space(coarse, fine) == 0.0


class TestRunDiagnostics:
    """The series of the norm table, the streamed checkpoints and the terminal
    gradient against the recorded trajectory of the same run."""

    @pytest.mark.parametrize("case", ["1d_lumped_half", "1d_consistent_one", "2d_consistent_half"])
    def test_matches_recorded_trajectory(self, case):
        kernel = KernelSpec(0.5, 3.0, 3.0 * math.sqrt(3.0))
        damping = DampingSpec("sqrt")
        if case == "1d_lumped_half":
            mesh, lumped, tau, steps = Mesh(1, 16), True, 1.0 / 64, 64
            problem = Problem(u0=SINE_PROBLEM.u0, u1=SINE_PROBLEM.u1,
                              f=lambda x, t: t**0.5 * math.exp(-3.0 * t) * np.sin(np.pi * x))
        elif case == "1d_consistent_one":
            mesh, lumped, tau, steps = Mesh(1, 16), False, 2.0 / 61, 61
            problem, kernel, damping = SINE_PROBLEM, KernelSpec(1.0, 2.0, 2.0), DampingSpec("affine")
        else:
            mesh, lumped, tau, steps = Mesh(2, 16), False, 0.5 / 23, 23
            problem = Problem(u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                              u1=lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
        ops = assemble(mesh, lumped_mass=lumped)
        marks = (0, 1, 4, 5, 6, steps - 1, steps)
        observed, observer, hist = _observed_and_recorded(problem, mesh, ops, kernel, damping,
                                                          tau, steps, marks)
        energy, a_norms = energy_series(observed.norms, observed.tau, observed.mu0)

        # the per-step formulas add in another order
        per_step = [discrete_energy(hist, ops, n) for n in range(steps)]
        assert energy == pytest.approx(per_step, rel=1e-13, abs=0.0)
        per_step = [a_norm(hist, ops, m) for m in range(steps)]
        assert a_norms == pytest.approx(per_step, rel=1e-13, abs=0.0)

        assert sorted(observer.checkpoints) == sorted(set(marks))
        for c in marks:
            assert np.array_equal(observer.checkpoints[c], hist.state(c))
        # the observer keeps only the checkpoints
        assert [name for name, v in vars(observer).items()
                if isinstance(v, np.ndarray)] == []

    def test_record_needs_the_last_step(self):
        # a row the run has not reached is nan, and the series refuse it
        filled = (1.0, 2.0, 3.0, 4.0)
        for missing in range(1, 5):
            rows = [filled] * missing + [(math.nan,) * 4] * (5 - missing)
            with pytest.raises(ValueError, match="nonnegative numbers"):
                _series_by_hand(*rows)
        energy, a_norms = _series_by_hand(*[filled] * 5)
        assert energy.tolist() == [0.5 * 3.0 + 0.5 * 2.0] * 4
        assert a_norms.tolist() == [math.sqrt(4.0 / 0.1**2 + 0.5 * 0.5 * 4.0)] * 4

    def test_terminal_gradient_stands_in_for_the_history(self):
        # an observer whose one checkpoint is the last step stands in for
        # the history in both self-error functions, as a ladder's rungs do
        mesh = Mesh(1, 16)
        ops = assemble(mesh)
        kern = KernelSpec(1.0, 2.0, 1.0)
        damp = DampingSpec("sqrt")
        kept = {n: RunDiagnostics((n,)) for n in (10, 20)}
        for n, observer in kept.items():
            run(SINE_PROBLEM, mesh, 1.0 / n, n, kernel=kern, damping=damp, ops=ops,
                observe=observer)
        coarse = run(SINE_PROBLEM, mesh, 0.1, 10, kernel=kern, damping=damp, ops=ops)
        fine = run(SINE_PROBLEM, mesh, 0.05, 20, kernel=kern, damping=damp, ops=ops)
        # the observer takes the mesh, step size and step count from the history
        for observer, hist in ((kept[10], coarse), (kept[20], fine)):
            assert (observer.mesh, observer.tau, observer.n_last) == (mesh, hist.tau, hist.n_last)
            assert np.array_equal(observer.state(hist.n_last), hist.state(hist.n_last))
        assert self_error_time(kept[10], kept[20]) == self_error_time(coarse, fine)
        assert self_error_time(kept[10], fine) == self_error_time(coarse, kept[20])
        with pytest.raises(ValueError):
            self_error_time(kept[20], kept[10])
        mesh_f = Mesh(1, 32)
        finer = RunDiagnostics((10,))
        run(SINE_PROBLEM, mesh_f, 0.1, 10, kernel=kern, damping=damp, ops=assemble(mesh_f),
            observe=finer)
        finer_hist = run(SINE_PROBLEM, mesh_f, 0.1, 10, kernel=kern, damping=damp,
                         ops=assemble(mesh_f))
        assert self_error_space(kept[10], finer) == self_error_space(coarse, finer_hist)


class TestRate:
    def test_doubling(self):
        assert rate(2e-3, 5e-4) == pytest.approx(2.0)

    def test_equal_errors(self):
        assert rate(1.5e-2, 1.5e-2) == 0.0

    def test_reference_pair(self):
        assert rate(2.3145e-3, 7.2638e-4) == pytest.approx(1.67, abs=0.01)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            rate(0.0, 1e-3)
        with pytest.raises(ValueError):
            rate(1e-3, -1e-4)

    @given(
        a=st.floats(min_value=1e-10, max_value=1e3),
        b=st.floats(min_value=1e-10, max_value=1e3),
        c=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, a, b, c):
        assert rate(c * a, c * b) == pytest.approx(rate(a, b), abs=1e-9)


class TestRecordAndCsv:
    def test_record_validation(self):
        # the pass checks the series it forms; the columns of the table are
        # (mass, elastic, velocity, increment)
        for last in ((0.0, 0.0, math.nan, 0.0),     # energy nan
                     (0.0, 0.0, 0.0, math.nan),     # a_norm nan
                     (0.0, math.nan, 0.0, 0.0),     # a_norm nan, by U^2
                     (0.0, 0.0, -9.0, 0.0)):        # energy negative
            with pytest.raises(ValueError, match="recorded norms must be nonnegative numbers"):
                _series_by_hand((0.0, 1.0, math.nan, math.nan), (0.0, 1.0, 1.0, 1.0), last)
        # the nan of row 0 is never read
        energy, a_norms = _series_by_hand((0.0, 1.0, math.nan, math.nan), (0.0, 1.0, 1.0, 1.0),
                                          (0.0, 0.0, 0.0, 0.0))
        assert energy.tolist() == [1.0, 0.5] and np.isfinite(a_norms).all()

    def test_series_match_per_step_and_nodal_forms(self):
        mesh = Mesh(2, 8)
        ops = assemble(mesh)
        tau, steps = 0.05, 11
        prob = Problem(u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                       u1=lambda x, y: np.sin(2 * np.pi * x) * y * (1.0 - y), f=None)
        observed, _, hist = _observed_and_recorded(prob, mesh, ops, KernelSpec(0.5, 3.0, 3.0),
                                                   DampingSpec("sqrt"), tau, steps)
        energy = [discrete_energy(hist, ops, n) for n in range(steps)]
        norms = [a_norm(hist, ops, m) for m in range(steps)]
        series = energy_series(observed.norms, tau, observed.mu0)
        assert series[0] == pytest.approx(energy, rel=1e-13, abs=0.0)
        assert series[1] == pytest.approx(norms, rel=1e-13, abs=0.0)

        states = hist.states
        mass, stiff = ops.mass, ops.stiffness
        for n in range(steps):
            vel = hist.u1h if n == 0 else (states[n + 1] - states[n - 1]) / (2 * tau)
            nodal = 0.5 * vel @ (mass @ vel) + 0.5 * states[n] @ (stiff @ states[n])
            assert energy[n] == pytest.approx(nodal, rel=1e-12)
            dt = (states[n + 1] - states[n]) / tau
            nodal = dt @ (mass @ dt) + 0.5 * hist.mu0 * (
                states[n + 1] @ (stiff @ states[n + 1]) + states[n] @ (stiff @ states[n]))
            assert norms[n] == pytest.approx(math.sqrt(nodal), rel=1e-12)

    def test_energy_csv_bytes_match_csv_writer(self, tmp_path):
        # the header, CRLF row ends, a value that needs 17 digits and a tiny tail
        energy = np.array([0.1 + 0.2, 1.0, 2.5e-7, 1e-43])
        a_norms = np.array([1.0 / 3.0, 0.0, 123456.789, 1.0000000000000002e-43])
        tau = 0.1
        write_energy_csv(tmp_path / "energy.csv", tau, energy, a_norms)
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "t", "energy", "a_norm"])
            for n, (e, a) in enumerate(zip(energy, a_norms)):
                writer.writerow([n, "%.17g" % (n * tau), "%.17g" % e, "%.17g" % a])
        written = (tmp_path / "energy.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.startswith(b"n,t,energy,a_norm\r\n0,0,0.30000000000000004,")
        assert written.endswith(b"\r\n3,0.30000000000000004,1.0000000000000001e-43,"
                                b"1.0000000000000003e-43\r\n")

    def test_convergence_csv_bytes_match_csv_writer(self, tmp_path):
        write_convergence_csv(tmp_path / "table.csv",
                              [(32, 16, 1.25e-2, None), (32, 32, 3.1e-3, 2.01)])
        assert (tmp_path / "table.csv").read_bytes() == (
            b"M,N,E,CR\r\n32,16,0.012500000000000001,\r\n"
            b"32,32,0.0030999999999999999,2.0099999999999998\r\n")

    def test_collect_and_write(self, tmp_path):
        mesh = Mesh(1, 16)
        ops = assemble(mesh)
        observed, _, _ = _observed_and_recorded(SINE_PROBLEM, mesh, ops,
                                                KernelSpec(1.0, 2.0, 1.0), DampingSpec("sqrt"),
                                                0.05, 11)
        energy, a_norms = energy_series(observed.norms, observed.tau, observed.mu0)
        assert energy.shape == (11,)
        assert np.all(a_norms >= 0.0)

        energy_path = tmp_path / "energy.csv"
        write_energy_csv(energy_path, observed.tau, energy, a_norms)
        with open(energy_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "t", "energy", "a_norm"]
        assert len(rows) == 12
        assert float(rows[1][2]) == pytest.approx(energy[0])

        table_path = tmp_path / "table.csv"
        write_convergence_csv(table_path, [(32, 16, 1.25e-2, None), (32, 32, 3.1e-3, 2.01)])
        with open(table_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["M", "N", "E", "CR"]
        assert rows[1][3] == ""
        assert float(rows[2][3]) == pytest.approx(2.01)
