"""Galerkin solver for wave equations with variable-sign memory kernels
and nonlinear-nonlocal damping."""

from .kernel import (
    KernelSpec,
    QuadratureError,
    beta,
    constant_transform,
    k_zero,
    kernel_transform,
    transform_by_quadrature,
)
from .quadweights import WeightTable, build_weight_table
from .fem import (
    DiscreteOperators,
    Mesh,
    assemble,
    gradient_array,
    interpolate,
    load_vector,
)
from .stepper import (
    DampingSpec,
    Problem,
    SimulationHistory,
    SolverError,
    StepError,
    Trajectory,
    damping_value,
    run,
    step,
    taylor_start,
)
from .diagnostics import (
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

__version__ = "0.1.0"
