"""Tour of the memory kernel and its tail transform.

The kernel beta changes sign and may blow up at t = 0, so the solver never
touches it directly: everything runs through the tail integral
K(t) = int_t^inf beta(s) ds, which is bounded, decays exponentially, and
starts strictly inside (0, 1).  This script evaluates both, then shows the
closed forms agreeing with an independent QUADPACK quadrature
(scipy.integrate.quad) to near machine precision.
"""

import numpy as np

from memwave import (
    KernelSpec,
    beta,
    k_zero,
    kernel_transform,
    transform_by_quadrature,
)

ROOT3 = np.sqrt(3.0)

print("=" * 72)
print("Kernel values and tail transform")
print("=" * 72)

smooth = KernelSpec(alpha=1.0, sigma=3.0, gamma=3.0 * ROOT3)
singular = KernelSpec(alpha=0.5, sigma=3.0, gamma=3.0 * ROOT3)

print(f"\nsmooth exponent   : K(0) = {k_zero(smooth):.12f}  (exactly 1/12)")
print(f"singular exponent : K(0) = {k_zero(singular):.12f}  (1/(2 sqrt 2))")
print(f"elastic coefficients 1 - K(0): {1 - k_zero(smooth):.6f}, {1 - k_zero(singular):.6f}")

ts = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 4.0])
print(f"\n{'t':>6} {'beta (smooth)':>15} {'K (smooth)':>15} {'beta (singular)':>16} {'K (singular)':>15}")
for t in ts:
    print(f"{t:6.2f} {beta(smooth, t):15.6e} {kernel_transform(smooth, t):15.6e} "
          f"{beta(singular, t):16.6e} {kernel_transform(singular, t):15.6e}")

print("\nNote the sign changes in beta and even in K: classical quadrature")
print("rules for monotone kernels do not apply, which is why the scheme is")
print("built on K and interpolatory weights instead.")

print("\n" + "=" * 72)
print("Closed form vs QUADPACK quadrature")
print("=" * 72)
for spec, label in ((smooth, "smooth exponent: exponential"),
                    (singular, "singular exponent: complex erfc")):
    print(f"\n{label}")
    for t in (0.0, 0.1, 1.0, 10.0):
        a = kernel_transform(spec, t)
        b = transform_by_quadrature(spec, t)
        print(f"  t = {t:5.2f}: {a:+.15f} vs {b:+.15f}  (diff {abs(a - b):.2e})")

print("\nmagnitude bound |K(t)| <= sigma**(-alpha):")
for spec, label in ((smooth, "smooth"), (singular, "singular")):
    grid = np.linspace(0.0, 6.0, 200)
    worst = np.abs(kernel_transform(spec, grid)).max()
    print(f"  {label:8s}: max |K| = {worst:.6f} <= {spec.sigma ** (-spec.alpha):.6f}")
