"""Functions of a periodic operator through contour integrals.

f(A) is the contour integral of f(z) against the resolvent, evaluated fiber
by fiber with the trapezoid rule.  On a circle the rule converges
geometrically for analytic integrands, so a handful of nodes already gives
machine precision.  The same nodes give a bound on the weighted norm of f(A)
whose suprema over the contour are sampled at the nodes, so it is an
estimate between them, not a certified bound.
"""

import numpy as np

from blochlat import LatticeSpec, build_family
from blochlat.norms import weighted_norm
from blochlat.opfunc import (
    FUNCTIONS,
    Circle,
    function_norm_bound,
    function_of_operator,
    function_of_operator_nodes,
    make_polynomial,
)
from blochlat.periodic_op import compose, identity_kernel, periodic_kernel
from blochlat.periodization import periodize, zkernel
from blochlat.rand import random_zkernel, rng_from_seed

spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
fam = build_family(spec)
rng = rng_from_seed(11)

# random kernel rescaled and shifted so the spectrum sits in |z - 10| <= 2
raw = random_zkernel(spec, (2, 2), rng)
scaled = np.asarray(raw.entries) * (2.0 / weighted_norm(raw, 0.0))
a = periodic_kernel(fam, periodize(zkernel(spec, raw.radii, scaled), fam).entries
                    + 10.0 * np.asarray(identity_kernel(fam).entries))
contour = Circle(10.0, 4.0)
print("operator with spectrum inside |z - 10| <= 2, contour |z - 10| = 4")

back = function_of_operator(a, FUNCTIONS["identity"], contour)
print(f"f(z) = z reproduces A:      {np.abs(back.entries - a.entries).max():.3e}")

sq = function_of_operator(a, FUNCTIONS["square"], contour)
print(f"f(z) = z^2 vs A o A:        "
      f"{np.abs(sq.entries - compose(a, a).entries).max():.3e}")

inv = function_of_operator(a, FUNCTIONS["inverse"], contour)
residual = compose(a, inv).entries - identity_kernel(fam).entries
print(f"f(z) = 1/z gives A^-1:      {np.abs(residual).max():.3e}")

p = make_polynomial([1.0, -2.0, 0.5])  # 1 - 2z + z^2/2
direct = function_of_operator(a, p, contour)
explicit = periodic_kernel(
    fam,
    identity_kernel(fam).entries - 2.0 * np.asarray(a.entries)
    + 0.5 * compose(a, a).entries,
)
print(f"polynomial vs explicit sum: "
      f"{np.abs(direct.entries - explicit.entries).max():.3e}")

print("\ntrapezoid convergence for f = exp (node doubling):")
reference = function_of_operator_nodes(a, FUNCTIONS["exp"], contour, 4096)
for nodes in (8, 16, 32, 64):
    approx = function_of_operator_nodes(a, FUNCTIONS["exp"], contour, nodes)
    err = np.abs(approx.entries - reference.entries).max()
    print(f"  {nodes:4d} nodes: max error {err:.3e}")

mass = 0.25
exp_a = function_of_operator(a, FUNCTIONS["exp"], contour)
print(f"\nsampled norm bound: ||exp(A)||_{mass} = {weighted_norm(exp_a, mass):.4e}"
      f" <= {function_norm_bound(a, FUNCTIONS['exp'], contour, mass):.4e}")

# a contour that slices through the spectrum is refused, not silently wrong
try:
    function_of_operator(a, FUNCTIONS["exp"], Circle(10.0, 1.0))
except ValueError as exc:
    print(f"\ncontour through the spectrum is rejected: {exc}")
