"""Galerkin solver for wave equations with variable-sign memory kernels
and nonlinear-nonlocal damping."""

from .kernel import (
    KernelSpec,
    QuadratureError,
    beta,
    constant_transform,
    k_zero,
    kernel_transform,
    mu_zero,
    transform_by_quadrature,
)
from .quadweights import WeightTable, build_weight_table, convolve
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
    LevelNorms,
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
    DiagnosticsRecord,
    RunDiagnostics,
    TerminalGradient,
    a_norm,
    discrete_energy,
    rate,
    self_error_space,
    self_error_time,
    write_convergence_csv,
    write_energy_csv,
)

__version__ = "0.1.0"
