"""Functions of a periodic operator through contour integrals.

f(A) is the contour integral of f(z) against the resolvent, evaluated fiber
by fiber with the trapezoid rule.  On a circle the rule converges
geometrically for analytic integrands, so a few dozen nodes already give
machine precision, and the library takes the node count from a certified
error bound: the fiber's norm disc bounds the powers of (M - center) /
radius, and the function's closed-form sup on larger discs bounds its
Taylor coefficients.  Arcs around the nodes give a certified bound on the
weighted norm of f(A): on each arc the resolvent's norm is bounded from
its value at the node, and |f| by the function's closed-form certificate.
"""

import numpy as np

from blochlat import LatticeSpec, build_family
from blochlat.norms import weighted_norm
from blochlat.opfunc import (
    FUNCTIONS,
    CertifiedFunction,
    Circle,
    _circle_rule,
    contour_nodes,
    function_norm_bound,
    function_of_operator,
    make_polynomial,
)
from blochlat.periodic_op import (
    bloch_fibers,
    compose,
    identity_kernel,
    periodic_kernel,
    reconstruct,
)
from blochlat.periodization import periodize, zkernel
from blochlat.rand import random_zkernel, rng_from_seed

spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
fam = build_family(spec)
rng = rng_from_seed(11)

# random kernel rescaled and shifted so the spectrum sits in |z - 10| <= 2
raw = random_zkernel(spec, (2, 2), rng)
scaled = np.asarray(raw.entries) * (2.0 / weighted_norm(raw, 0.0))
a = periodic_kernel(fam, periodize(zkernel(spec, raw.radii, scaled), fam).rows
                    + 10.0 * identity_kernel(fam).rows)
contour = Circle(10.0, 4.0)
print("operator with spectrum inside |z - 10| <= 2, contour |z - 10| = 4")

back = function_of_operator(a, FUNCTIONS["identity"], contour)
print(f"f(z) = z reproduces A:      {np.abs(back.rows - a.rows).max():.3e}")

sq = function_of_operator(a, FUNCTIONS["square"], contour)
print(f"f(z) = z^2 vs A o A:        "
      f"{np.abs(sq.rows - compose(a, a).rows).max():.3e}")

inv = function_of_operator(a, FUNCTIONS["inverse"], contour)
residual = compose(a, inv).rows - identity_kernel(fam).rows
print(f"f(z) = 1/z gives A^-1:      {np.abs(residual).max():.3e}")

p = make_polynomial([1.0, -2.0, 0.5])  # 1 - 2z + z^2/2
direct = function_of_operator(a, p, contour)
explicit = periodic_kernel(
    fam, identity_kernel(fam).rows - 2.0 * a.rows + 0.5 * compose(a, a).rows
)
print(f"polynomial vs explicit sum: "
      f"{np.abs(direct.rows - explicit.rows).max():.3e}")

print("\nnode-interpolant convergence for f = exp at fixed node counts:")
fibers = bloch_fibers(a)


def fixed_rule(nodes):
    values = np.exp(contour_nodes(contour, nodes)[0])
    rule = _circle_rule(fibers.entries, contour, values)
    return reconstruct(fam, fibers.replace(entries=rule))


reference = fixed_rule(4096)
for nodes in (8, 16, 32, 64):
    err = np.abs(fixed_rule(nodes).rows - reference.rows).max()
    print(f"  {nodes:4d} nodes: max error {err:.3e}")

# count the nodes at which the library evaluates exp: f at the centre sets
# the error scale, then each node once for every fiber
calls = []
counted_exp = CertifiedFunction(lambda z: calls.append(z) or np.exp(z),
                                FUNCTIONS["exp"].disc_sup)
exp_a = function_of_operator(a, counted_exp, contour)
print(f"  certified rule: {len(calls) - 1} nodes, "
      f"max error {np.abs(exp_a.rows - reference.rows).max():.3e}")

mass = 0.25
bound = function_norm_bound(a, FUNCTIONS["exp"], contour, mass)
print(f"\ncertified norm bound: ||exp(A)||_{mass} = {weighted_norm(exp_a, mass):.4e}"
      f" <= {bound:.4e} ({bound.arcs} arcs)")

# a contour that slices through the spectrum (|z - 10| <= 0.49) is refused,
# not silently wrong
try:
    function_of_operator(a, FUNCTIONS["exp"], Circle(10.0, 0.25))
except ValueError as exc:
    print(f"\ncontour through the spectrum is rejected: {exc}")
