"""Finite elements on the uniform unit interval / unit square.

Linear elements in 1d, bilinear tensor-product elements in 2d, homogeneous
Dirichlet boundary everywhere: boundary nodes carry no unknowns, so vectors
hold interior nodal values only.  2d interior nodes (i, j), 1 <= i, j <= M-1,
are flattened row-major with i slow, which makes the mass and stiffness
matrices Kronecker products of their 1d counterparts.  The generalized
eigenvectors of the 1d pair therefore diagonalize both operators, per axis,
so `DiscreteOperators` holds only the 1d pair and that basis; the time
stepper works in the basis.  The consistent 1d pair is tridiagonal Toeplitz,
so its basis is the sine modes in closed form; the lumped 1d pair takes one
symmetric eigensolve.  Interpolation and the load vector are the 1d rule
along each axis as well: interpolation evaluates on the tensor grid of the
1d nodes, and the load vector applies the 1d Gauss rule of each hat to one
axis, then the other.  Only numpy is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_thread

__all__ = [
    "Mesh",
    "DiscreteOperators",
    "assemble",
    "interpolate",
    "load_vector",
    "gradient_array",
]

# 3-point Gauss rule on [0, 1]; exact through polynomial degree 5
_GPTS = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GWTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of (0,1) (dim 1) or (0,1)^2 (dim 2) with M cells per axis."""

    dim: int
    m: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.m < 2:
            raise ValueError(f"m must be at least 2, got {self.m}")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def n_interior(self) -> int:
        return (self.m - 1) ** self.dim

    def interior_coords(self) -> np.ndarray:
        """Interior node coordinates along one axis."""
        return self.h * np.arange(1, self.m)


@dataclass(frozen=True, eq=False)
class DiscreteOperators:
    """The 1d pencil (A1, M1) and its generalized eigenbasis, applied along each axis.

    `stiffness1` (A1) and `mass1` (M1) are the dense tridiagonal 1d
    matrices; the 2d operators are A = kron(A1, M1) + kron(M1, A1) and
    M = kron(M1, M1).  The columns of `vectors` (V) satisfy V'M1V = I and
    V'A1V = diag(lam), lam ascending: the consistent pair's sine modes in
    closed form, or for the lumped pair one symmetric eigensolve scaled by
    the diagonal mass.  `eigenvalues` holds lam in 1d; in 2d the modes are
    the products V[:, i] V[:, j] with eigenvalues lam[i] + lam[j], flattened
    like the nodes, i slow.  A state with coefficients c has
    ||u||_M^2 = sum(c^2) and ||u||_A^2 = sum(eigenvalues * c^2), so M is the
    identity and A is diag(eigenvalues) in this basis.
    """

    dim: int
    mass1: np.ndarray
    stiffness1: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray  # V^{-1} = V'M1
    eigenvalues: np.ndarray

    @property
    def mass(self) -> np.ndarray:
        """Dense mass matrix M, formed on each access: a reference for small meshes."""
        if self.dim == 1:
            return self.mass1
        return np.kron(self.mass1, self.mass1)

    @property
    def stiffness(self) -> np.ndarray:
        """Dense stiffness matrix A, formed on each access: a reference for small meshes."""
        if self.dim == 1:
            return self.stiffness1
        return np.kron(self.stiffness1, self.mass1) + np.kron(self.mass1, self.stiffness1)

    def _apply(self, left: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """`left` applied along each axis of one vector, or of each row of a
        stack of vectors (shape (rows, ndof))."""
        if self.dim == 1:
            return left @ vec if vec.ndim == 1 else vec @ left.T
        k = left.shape[1]
        grid = vec.reshape(vec.shape[:-1] + (k, k))
        return (left @ grid @ left.T).reshape(vec.shape)

    @one_thread()
    def to_modal(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of the nodal vector u, on one BLAS thread
        (`one_thread`): only the set-up calls it, for the initial data, and
        so their coefficients do not depend on the thread count."""
        return self._apply(self.inverse, u)

    @one_thread()
    def to_nodal(self, c: np.ndarray) -> np.ndarray:
        """Nodal values of the state with coefficients c, or of each row of a
        stack, on one BLAS thread (`one_thread`), so that the checkpoints a
        run writes do not depend on the thread count."""
        return self._apply(self.vectors, c)

    def project(self, b: np.ndarray) -> np.ndarray:
        """Modal components of a load vector b, i.e. its values on the modes."""
        return self._apply(self.vectors.T, b)


def _tridiagonal(n: int, main: float, off: float) -> np.ndarray:
    return (np.diag(np.full(n, main)) + np.diag(np.full(n - 1, off), 1)
            + np.diag(np.full(n - 1, off), -1))


def _sine_modes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and M1-orthonormal eigenvectors of the consistent 1d pair.

    Both matrices are tridiagonal Toeplitz, so the sine vectors
    s_k[j] = sin(j k pi / m), j, k = 1..m-1, are eigenvectors of each, with
    M1 s_k = mu_k s_k, mu_k = h (2 + cos theta_k) / 3, theta_k = k pi / m,
    A1 s_k = (4/h) sin^2(theta_k / 2) s_k and |s_k|^2 = m/2.
    """
    h = 1.0 / m
    k = np.arange(1, m)
    theta = np.pi * k / m
    mass_values = h * (2.0 + np.cos(theta)) / 3.0
    values = (4.0 / h) * np.sin(0.5 * theta) ** 2 / mass_values
    # j*k reduced modulo 2m in integers keeps the sine's argument below
    # 2 pi, so each entry is as accurate at m = 1000 as at m = 16
    phase = np.outer(k, k) % (2 * m)
    vectors = np.sin(np.pi * phase / m) / np.sqrt(0.5 * m * mass_values)
    return values, vectors


@one_thread()
def assemble(mesh: Mesh, lumped_mass: bool = False) -> DiscreteOperators:
    """Exact element integrals for linear (1d) / bilinear (2d) elements.

    With `lumped_mass` the 1d mass matrix is replaced by its row-sum
    diagonal, diag(5/6, 1, ..., 1, 5/6) * h: the rows next to the boundary
    keep their missing neighbour's share, so the lumped scheme is not the
    classical finite-difference scheme, whose mass is h * I.  The 1d
    reference benchmarks are reproduced with lumping, so the 1d benchmark
    preset enables it.  The 2d lumped mass, kron(L1, L1), would pair with a
    stiffness built on the consistent 1d mass, so no per-axis basis
    diagonalizes both; it is rejected.  The lumped pencil's basis comes from
    an eigh.  All of it runs on one BLAS thread (`one_thread`): the eigh and
    the modal mass product V'M1, which from m = 128 on would wake the BLAS
    worker and whose bits would depend on the thread count.
    """
    if lumped_mass and mesh.dim == 2:
        raise ValueError("the lumped mass is 1d only: in 2d no per-axis basis "
                         "diagonalizes it together with the stiffness")
    h, n = mesh.h, mesh.m - 1
    mass1 = _tridiagonal(n, 4.0 * h / 6.0, h / 6.0)
    stiff1 = _tridiagonal(n, 2.0 / h, -1.0 / h)
    if lumped_mass:
        mass1 = np.diag(mass1.sum(axis=1))
        # with S = diag(M1)^(-1/2), the pencil's eigenvectors are S times
        # those of the symmetric S A1 S
        scale = 1.0 / np.sqrt(np.diag(mass1))
        values, modes = np.linalg.eigh(scale[:, None] * stiff1 * scale[None, :])
        vectors = scale[:, None] * modes
    else:
        values, vectors = _sine_modes(mesh.m)
    if mesh.dim == 2:
        values = (values[:, None] + values[None, :]).ravel()
    return DiscreteOperators(mesh.dim, mass1, stiff1, vectors, vectors.T @ mass1, values)


def _broadcast_field(values, shape: tuple) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).astype(float)
    return out


def _to_nodes(cells: np.ndarray, h: float) -> np.ndarray:
    """Gauss values on the last two axes (cell, point) to the interior nodes.

    Node j takes the rising half of cell j - 1 and the falling half of
    cell j: the 1d load rule, applied along one axis."""
    w = h * _GWTS
    return cells[..., :-1, :] @ (w * _GPTS) + cells[..., 1:, :] @ (w * (1.0 - _GPTS))


def interpolate(mesh: Mesh, g) -> np.ndarray:
    """Nodal values of g at the interior nodes (boundary values are 0).

    g receives one open array of node coordinates per axis, in 2d of shapes
    (M-1, 1) and (1, M-1), and its value broadcasts to the grid."""
    xs = mesh.interior_coords()
    values = g(*np.ix_(*[xs] * mesh.dim))
    return _broadcast_field(values, (xs.size,) * mesh.dim).ravel().copy()


def load_vector(mesh: Mesh, f, t: float) -> np.ndarray:
    """Entries (f(., t), phi_j) for each interior basis function.

    Per-cell Gauss quadrature, exact through degree 5.  The 2d basis
    functions are products of 1d hats, so the 2d vector is the 1d rule
    applied along each axis of the Gauss values, y first.  f receives the
    Gauss points as (cell, point) arrays: one of shape (M, 3) in 1d; in 2d
    open arrays of shapes (M, 3, 1, 1) and (M, 3), and its value broadcasts
    to the (M, 3, M, 3) grid.
    `f = None` means a zero forcing term and skips the quadrature entirely.
    """
    m, h = mesh.m, mesh.h
    if f is None:
        return np.zeros(mesh.n_interior)
    pts = h * np.arange(m)[:, None] + h * _GPTS  # (cell, point)
    if mesh.dim == 1:
        return _to_nodes(_broadcast_field(f(pts, t), pts.shape), h)
    values = _broadcast_field(f(pts[:, :, None, None], pts, t), pts.shape * 2)
    return _to_nodes(_to_nodes(values, h).transpose(2, 0, 1), h).T.ravel()


def gradient_array(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Backward-difference gradient samples at every interior node.

    1d: V_j = (U_j - U_{j-1}) / h, j = 1..M-1.
    2d: W_ij = sqrt(((U_ij - U_{i-1,j})/h)^2 + ((U_ij - U_{i,j-1})/h)^2),
    returned as an (M-1, M-1) array.  Boundary values enter as zeros.
    """
    m, h = mesh.m, mesh.h
    u = np.asarray(u, dtype=float)
    if u.size != mesh.n_interior:
        raise ValueError(f"state has {u.size} entries, expected {mesh.n_interior}")
    if mesh.dim == 1:
        padded = np.concatenate(([0.0], u))
        return np.diff(padded) / h
    full = np.zeros((m + 1, m + 1))
    full[1:m, 1:m] = u.reshape(m - 1, m - 1)
    dx = (full[1:m, 1:m] - full[0:m - 1, 1:m]) / h
    dy = (full[1:m, 1:m] - full[1:m, 0:m - 1]) / h
    return np.sqrt(dx * dx + dy * dy)
