"""Anatomy of the memory-convolution weight table.

The integral int_0^{t_n} K(t_n - s) phi(s) ds is approximated by integrating
K against the piecewise-linear interpolant of phi, which yields one weight
per sample point.  On a uniform grid almost all of those weights collapse
onto a single array indexed by the lag n - p; this script shows the
structure, the classical bound on the accumulated first-column weights, and
the interpolatory exactness of the resulting convolution.
"""

import numpy as np
from scipy.integrate import quad

from memwave import KernelSpec, build_weight_table, kernel_transform
from memwave.kernel import constant_transform

print("=" * 72)
print("Toeplitz structure")
print("=" * 72)

spec = KernelSpec(alpha=0.5, sigma=3.0, gamma=3.0 * np.sqrt(3.0))
tau = 1.0 / 32.0
table = build_weight_table(spec, tau, 16)

print(f"\nkernel: singular exponent, tau = 1/32, K(0) = {table.k0:.6f}")
print("\nweight(n, p) for n = 1..6 (rows), p = 0..n (columns):")
for n in range(1, 7):
    row = "  ".join(f"{table.weight(n, p):+.6f}" for p in range(n + 1))
    print(f"  n={n}: {row}")
print("\nEvery interior diagonal repeats the same stored value:")
print(f"  weight(5, 2) is weight(6, 3): {table.weight(5, 2) == table.weight(6, 3)}")

print("\n" + "=" * 72)
print("Accumulated first-column weights stay below one")
print("=" * 72)
big = build_weight_table(spec, 1.0 / 128.0, 1024)
running = np.cumsum(big.edge_left[1:])
print(f"\ntau = 1/128, 1024 steps: max running sum = {running.max():.6f} (bound 1)")

print("\n" + "=" * 72)
print("Interpolatory exactness")
print("=" * 72)
n = 16
phi = 0.7 - 0.4 * tau * np.arange(n + 1)  # a linear signal is its own interpolant
approx = table.coefficients(n) @ phi
exact, _ = quad(lambda s: kernel_transform(spec, n * tau - s) * (0.7 - 0.4 * s),
                0.0, n * tau, epsabs=1e-13, limit=200)
print(f"\nQ_n of a linear signal : {approx:.12e}")
print(f"exact convolution      : {exact:.12e}")
print(f"difference             : {abs(approx - exact):.2e}")

print("\nUnit test hook (K = 1): the convolution degenerates to the")
print("composite trapezoid rule.")
hook = build_weight_table(constant_transform(1.0), 0.1, 8)
vals = np.sin(np.arange(9.0))
print(f"  Q_8      = {hook.coefficients(8) @ vals:.12f}")
print(f"  trapezoid = {np.trapezoid(vals, dx=0.1):.12f}")
