"""Assembly, interpolation, load vectors, gradient sampling."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.fem import (
    Mesh,
    assemble,
    gradient_array,
    interpolate,
    load_vector,
)

GAUSS5_X, GAUSS5_W = np.polynomial.legendre.leggauss(5)
# the shipped 3-point Gauss rule on [0, 1], restated for the reference forms
GAUSS3_X = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
SRC = Path(__file__).resolve().parent.parent / "src"


def _hat_eval_1d(mesh, coeffs, x):
    """Value of the interior-node hat expansion at arbitrary points."""
    h = mesh.h
    full = np.concatenate(([0.0], coeffs, [0.0]))
    cell = np.clip((x / h).astype(int), 0, mesh.m - 1)
    lam = x / h - cell
    return full[cell] * (1.0 - lam) + full[cell + 1] * lam


class TestAssembly:
    def test_1d_stencils(self):
        mesh = Mesh(1, 8)
        ops = assemble(mesh)
        h = mesh.h
        mass = ops.mass
        stiff = ops.stiffness
        assert np.allclose(np.diag(mass), 4.0 * h / 6.0)
        assert np.allclose(np.diag(mass, 1), h / 6.0)
        assert np.allclose(np.diag(stiff), 2.0 / h)
        assert np.allclose(np.diag(stiff, 1), -1.0 / h)

    def test_single_unknown(self):
        ops = assemble(Mesh(1, 2))
        h = 0.5
        assert float(ops.mass[0, 0]) == pytest.approx(2.0 * h / 3.0)
        assert float(ops.stiffness[0, 0]) == pytest.approx(2.0 / h)

    def test_2d_interior_row_sums_vanish(self):
        ops = assemble(Mesh(2, 8))
        sums = ops.stiffness.sum(axis=1).reshape(7, 7)
        assert np.abs(sums[1:-1, 1:-1]).max() < 1e-14

    @pytest.mark.parametrize("mesh", [Mesh(1, 9), Mesh(2, 5)])
    def test_symmetry_and_definiteness(self, mesh):
        ops = assemble(mesh)
        for dense in (ops.mass, ops.stiffness):
            assert np.abs(dense - dense.T).max() == 0.0
            eigs = np.linalg.eigvalsh(dense)
            assert eigs.min() > 0.0

    def test_lumped_mass_is_row_sum_diagonal(self):
        mesh = Mesh(1, 8)
        full = assemble(mesh).mass
        lumped = assemble(mesh, lumped_mass=True).mass
        assert np.allclose(lumped, np.diag(full.sum(axis=1)))

    def test_mass_realizes_l2_norm(self):
        # coefficient quadratic form equals the integral of the hat expansion
        mesh = Mesh(1, 9)
        ops = assemble(mesh)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(mesh.n_interior)
        total = 0.0
        for k in range(mesh.m):
            a, b = k * mesh.h, (k + 1) * mesh.h
            x = 0.5 * (a + b) + 0.5 * (b - a) * GAUSS5_X
            total += 0.5 * (b - a) * np.sum(GAUSS5_W * _hat_eval_1d(mesh, v, x) ** 2)
        assert float(v @ (ops.mass @ v)) == pytest.approx(total, abs=1e-12)

    def test_stiffness_realizes_gradient_norm(self):
        mesh = Mesh(1, 9)
        ops = assemble(mesh)
        rng = np.random.default_rng(12)
        v = rng.standard_normal(mesh.n_interior)
        full = np.concatenate(([0.0], v, [0.0]))
        grads = np.diff(full) / mesh.h
        assert float(v @ (ops.stiffness @ v)) == pytest.approx(
            float(np.sum(grads**2) * mesh.h), abs=1e-12
        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_smallest_eigenvalue_matches_laplace(self, dim):
        # principal Dirichlet eigenvalue of the unit domain is dim * pi^2
        mesh = Mesh(dim, 32)
        ops = assemble(mesh)
        lam = scipy.linalg.eigh(
            ops.stiffness, ops.mass,
            subset_by_index=[0, 0], eigvals_only=True,
        )[0]
        assert lam == pytest.approx(dim * np.pi**2, rel=0.05)


class TestModalBasis:
    @pytest.mark.parametrize("lumped", [False, True])
    def test_1d_pencil_is_diagonalized(self, lumped):
        ops = assemble(Mesh(1, 16), lumped_mass=lumped)
        v, lam = ops.vectors, ops.eigenvalues
        mass_modal = v.T @ ops.mass @ v
        stiff_modal = v.T @ ops.stiffness @ v
        assert np.abs(mass_modal - np.eye(15)).max() <= 1e-12
        assert np.abs(stiff_modal - np.diag(lam)).max() <= 1e-12 * lam.max()
        assert np.abs(ops.inverse @ v - np.eye(15)).max() <= 1e-12

    def test_2d_modes_are_products_of_1d_modes(self):
        mesh = Mesh(2, 6)
        ops = assemble(mesh)
        v = np.kron(ops.vectors, ops.vectors)
        lam = ops.eigenvalues
        assert np.abs(v.T @ ops.mass @ v - np.eye(25)).max() <= 1e-12
        assert np.abs(v.T @ ops.stiffness @ v - np.diag(lam)).max() <= 1e-12 * lam.max()

    def test_2d_round_trip_and_projection(self):
        mesh = Mesh(2, 8)
        ops = assemble(mesh)
        u = interpolate(mesh, lambda x, y: x * (1.0 - x) * np.sin(3.0 * y))
        coeffs = ops.to_modal(u)
        assert np.abs(ops.to_nodal(coeffs) - u).max() <= 1e-14
        # the modal components of M u are the coefficients of u
        assert np.abs(ops.project(ops.mass @ u) - coeffs).max() <= 1e-14
        # and the squared norms become plain and eigenvalue-weighted sums
        assert float(coeffs @ coeffs) == pytest.approx(float(u @ (ops.mass @ u)), rel=1e-13)
        assert float((ops.eigenvalues * coeffs) @ coeffs) == pytest.approx(
            float(u @ (ops.stiffness @ u)), rel=1e-13
        )

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        # the operators are the dense 1d pair and its eigenbasis
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        probe = "import sys, memwave.cli; print('scipy.sparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("lumped", [False, True])
    @pytest.mark.parametrize("m", [16, 64, 128, 1099])
    def test_basis_is_accurate_at_every_size(self, m, lumped):
        # the closed-form sine modes (consistent) and the scaled symmetric
        # eigensolve (lumped), against scipy's generalized eigensolver
        ops = assemble(Mesh(1, m), lumped_mass=lumped)
        v, lam = ops.vectors, ops.eigenvalues
        assert np.abs(v.T @ ops.mass1 @ v - np.eye(m - 1)).max() <= 1e-14
        assert np.abs(v.T @ ops.stiffness1 @ v - np.diag(lam)).max() <= 1e-14 * lam.max()
        oracle = scipy.linalg.eigh(ops.stiffness1, ops.mass1, eigvals_only=True)
        assert np.abs(lam - oracle).max() <= 1e-13 * oracle.max()

    def test_sine_data_is_one_mode(self):
        mesh = Mesh(1, 64)
        coeffs = assemble(mesh).to_modal(interpolate(mesh, lambda x: np.sin(np.pi * x)))
        assert np.abs(coeffs[1:]).max() <= 1e-14 * abs(coeffs[0])

    def test_cli_runs_load_no_scipy(self, tmp_path):
        # the basis and both kernels need numpy alone
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        configs = []
        for alpha in ("1.0", "0.5"):
            configs.append(tmp_path / f"alpha-{alpha}.ini")
            configs[-1].write_text(
                "[run]\npreset = benchmark_1d\ndim = 1\nm = 8\nn = 16\nt = 1.0\n"
                f"[kernel]\nalpha = {alpha}\nsigma = 3.0\ngamma = 3.0\n"
            )
        probe = textwrap.dedent("""
            import json, sys, memwave.cli
            def loaded():
                return sorted(n for n in sys.modules if n.split(".")[0] == "scipy")
            seen = [loaded()]
            for cfg in sys.argv[1:]:
                assert memwave.cli.main(["energy", "--config", cfg, "--out", cfg + ".out"]) == 0
                seen.append(loaded())
            print(json.dumps(seen))
        """)
        proc = subprocess.run([sys.executable, "-c", probe, *map(str, configs)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], [], []]

    def test_2d_lumped_mass_has_no_basis(self):
        # kron(L1, L1) shares no per-axis basis with the 2d stiffness
        with pytest.raises(ValueError, match="lumped mass is 1d only"):
            assemble(Mesh(2, 6), lumped_mass=True)
        ops = assemble(Mesh(1, 6), lumped_mass=True)
        assert ops.vectors.shape == (5, 5) and ops.eigenvalues.shape == (5,)


class TestInterpolate:
    def test_zero_field(self):
        assert np.all(interpolate(Mesh(1, 8), lambda x: 0.0 * x) == 0.0)

    def test_nodal_sine(self):
        vals = interpolate(Mesh(1, 4), lambda x: np.sin(np.pi * x))
        expected = [np.sin(np.pi / 4), np.sin(np.pi / 2), np.sin(3 * np.pi / 4)]
        assert vals == pytest.approx(expected, abs=1e-15)

    def test_2d_tensor_sines(self):
        mesh = Mesh(2, 4)
        vals = interpolate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        xs = mesh.interior_coords()
        expected = np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)).ravel()
        assert vals == pytest.approx(expected, abs=1e-15)

    def test_scalar_return_broadcast(self):
        vals = interpolate(Mesh(1, 6), lambda x: 2.5)
        assert np.all(vals == 2.5)


class TestLoadVector:
    def test_zero_and_none(self):
        mesh = Mesh(1, 8)
        assert np.all(load_vector(mesh, None, 0.0) == 0.0)
        assert np.all(load_vector(mesh, lambda x, t: 0.0 * x, 0.0) == 0.0)

    def test_constant_forcing_gives_hat_area(self):
        mesh = Mesh(1, 8)
        vals = load_vector(mesh, lambda x, t: np.ones_like(x), 0.0)
        assert vals == pytest.approx(np.full(7, mesh.h), abs=1e-15)

    def test_sine_forcing_matches_quadrature_oracle(self):
        mesh = Mesh(1, 16)
        vals = load_vector(mesh, lambda x, t: np.sin(np.pi * x), 0.0)
        h = mesh.h
        for j in range(1, mesh.m):
            a = (j - 1) * h
            total = 0.0
            for k, (lo, hi) in enumerate(((a, a + h), (a + h, a + 2 * h))):
                x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * GAUSS5_X
                hat = (x - a) / h if k == 0 else (a + 2 * h - x) / h
                total += 0.5 * h * np.sum(GAUSS5_W * np.sin(np.pi * x) * hat)
            # the shipped rule is exact to degree 5, so transcendental
            # integrands agree with the finer oracle only to its own error
            assert vals[j - 1] == pytest.approx(total, abs=1e-10)

    def test_sine_close_to_mass_times_interpolant(self):
        mesh = Mesh(1, 32)
        ops = assemble(mesh)
        vals = load_vector(mesh, lambda x, t: np.sin(np.pi * x), 0.0)
        approx = ops.mass @ interpolate(mesh, lambda x: np.sin(np.pi * x))
        assert np.abs(vals - approx).max() < mesh.h**2

    def test_2d_constant_forcing(self):
        mesh = Mesh(2, 6)
        vals = load_vector(mesh, lambda x, y, t: np.ones(np.broadcast_shapes(x.shape, y.shape)), 0.0)
        assert vals == pytest.approx(np.full(25, mesh.h**2), abs=1e-15)

    def test_2d_separable_matches_tensor_of_1d(self):
        mesh2, mesh1 = Mesh(2, 8), Mesh(1, 8)
        vals2 = load_vector(mesh2, lambda x, y, t: np.sin(np.pi * x) * np.sin(2 * np.pi * y), 0.0)
        fx = load_vector(mesh1, lambda x, t: np.sin(np.pi * x), 0.0)
        fy = load_vector(mesh1, lambda x, t: np.sin(2 * np.pi * x), 0.0)
        assert vals2 == pytest.approx(np.outer(fx, fy).ravel(), abs=1e-14)


class TestGradients:
    def test_linear_field_unit_slope(self):
        mesh = Mesh(1, 8)
        u = interpolate(mesh, lambda x: x)
        assert gradient_array(mesh, u) == pytest.approx(np.ones(7), abs=1e-14)

    def test_zero_field(self):
        mesh = Mesh(2, 4)
        assert np.all(gradient_array(mesh, np.zeros(9)) == 0.0)

    def test_midpoint_accuracy(self):
        mesh = Mesh(1, 64)
        u = interpolate(mesh, lambda x: np.sin(np.pi * x))
        j = 32  # node j is entry j - 1
        target = np.pi * np.cos(np.pi * (31.5 / 64.0))
        grad = gradient_array(mesh, u)[j - 1]
        assert grad == pytest.approx(target, abs=np.pi**3 / (24 * 64**2) * 2)

    def test_index_bounds(self):
        # one sample per interior node, and a state of another size is refused
        assert gradient_array(Mesh(1, 8), np.zeros(7)).shape == (7,)
        assert gradient_array(Mesh(2, 4), np.zeros(9)).shape == (3, 3)
        with pytest.raises(ValueError, match="expected 7"):
            gradient_array(Mesh(1, 8), np.zeros(8))
        with pytest.raises(ValueError, match="expected 9"):
            gradient_array(Mesh(2, 4), np.zeros(16))

    def test_2d_combined_magnitude(self):
        mesh = Mesh(2, 16)
        u = interpolate(mesh, lambda x, y: x + 2.0 * y)
        w = gradient_array(mesh, u)
        # away from the boundary the backward differences see slopes (1, 2)
        assert w[4:-1, 4:-1] == pytest.approx(np.sqrt(5.0), abs=1e-12)


def _field(dim):
    """A field of exact arithmetic, not symmetric in x and y, whose values
    do not depend on how the coordinates are batched."""
    if dim == 1:
        return lambda x: x * (1.0 - x) + 0.25 * x * x * x
    return lambda x, y: x * (1.0 - y) + 2.0 * y * y - x * y * x


def _interpolate_per_node(mesh, g):
    """Nodal values by one call of g per interior node, i slow."""
    nodes = [mesh.h * i for i in range(1, mesh.m)]
    if mesh.dim == 1:
        return np.array([g(x) for x in nodes])
    return np.array([g(x, y) for x in nodes for y in nodes])


def _gradient_padded(mesh, u):
    """Backward differences from a zero-padded copy of the state."""
    m, h = mesh.m, mesh.h
    if mesh.dim == 1:
        return np.diff(np.concatenate(([0.0], u))) / h
    full = np.zeros((m + 1, m + 1))
    full[1:m, 1:m] = u.reshape(m - 1, m - 1)
    dx = (full[1:m, 1:m] - full[0:m - 1, 1:m]) / h
    dy = (full[1:m, 1:m] - full[1:m, 0:m - 1]) / h
    return np.sqrt(dx * dx + dy * dy)


def _gauss_points(mesh):
    """The (cell, point) array of Gauss points along one axis."""
    return mesh.h * np.arange(mesh.m)[:, None] + mesh.h * GAUSS3_X


def _load_padded_1d(mesh, f, t):
    """The 1d load vector summed into a zero-padded node array."""
    m, h = mesh.m, mesh.h
    fv = f(_gauss_points(mesh), t)
    full = np.zeros(m + 1)
    full[:-1] += fv @ (h * GAUSS3_W * (1.0 - GAUSS3_X))
    full[1:] += fv @ (h * GAUSS3_W * GAUSS3_X)
    return full[1:m]


def _load_einsum_2d(mesh, f, t):
    """The 2d load vector as four corner passes into a zero-padded grid."""
    m, h = mesh.m, mesh.h
    pts = _gauss_points(mesh)
    fv = f(pts[:, :, None, None], pts[None, None, :, :], t)
    w0, w1 = GAUSS3_W * (1.0 - GAUSS3_X), GAUSS3_W * GAUSS3_X
    full = np.zeros((m + 1, m + 1))
    for a, wa in ((0, w0), (1, w1)):
        for b, wb in ((0, w0), (1, w1)):
            full[a:m + a, b:m + b] += h * h * np.einsum("kqlr,q,r->kl", fv, wa, wb)
    return full[1:m, 1:m].ravel()


class TestTensorGrid:
    """Interpolation, gradients and load vectors against per-node and
    zero-padded reference forms."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 40), dim=st.sampled_from([1, 2]))
    def test_interpolate_and_gradient_match_references(self, m, dim):
        mesh = Mesh(dim, m)
        u = interpolate(mesh, _field(dim))
        assert np.array_equal(u, _interpolate_per_node(mesh, _field(dim)))
        assert np.array_equal(gradient_array(mesh, u), _gradient_padded(mesh, u))

    @pytest.mark.parametrize("m", [3, 4, 7, 16, 33, 64, 128, 256])
    def test_1d_load_matches_padded_form(self, m):
        mesh = Mesh(1, m)
        f = lambda x, t: np.exp(-t) * np.sin(np.pi * x) + x * x
        assert np.array_equal(load_vector(mesh, f, 0.3), _load_padded_1d(mesh, f, 0.3))

    @pytest.mark.parametrize("m", [2, 3, 8, 17, 32])
    def test_2d_load_matches_einsum_form(self, m):
        # exp(xy + t) is not separable, and x (1 + x) y^2 is not symmetric
        # in x and y, so a swapped axis shows
        mesh = Mesh(2, m)
        for f in (lambda x, y, t: np.exp(x * y + t), lambda x, y, t: x * (1.0 + x) * y * y):
            vals, ref = load_vector(mesh, f, 0.25), _load_einsum_2d(mesh, f, 0.25)
            assert np.abs(vals - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_2d_fields_receive_open_axes(self):
        # g sees one open array per axis, which broadcast to the grid
        shapes = []

        def g(x, y):
            shapes.append((x.shape, y.shape))
            return x * y

        mesh = Mesh(2, 6)
        vals = interpolate(mesh, g)
        assert shapes == [((5, 1), (1, 5))]
        xs = mesh.interior_coords()
        assert np.array_equal(vals, np.outer(xs, xs).ravel())
