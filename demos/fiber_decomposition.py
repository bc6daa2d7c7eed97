"""Block-diagonalize a periodic lattice operator into momentum fibers.

An operator on the 81-site fine torus that commutes with coarse translations
only (not with every fine translation) cannot be diagonalized by a plain
FFT, but it splits into 9 independent 9x9 fiber matrices indexed by coarse
momentum.  This script builds a random such operator, extracts the fibers,
and demonstrates that composition and transposition act fiber by fiber.
"""

import numpy as np

from blochlat import LatticeSpec, build_family
from blochlat.periodic_op import (
    apply_kernel,
    bloch_fibers,
    compose,
    reconstruct,
)
from blochlat.fourier import transform
from blochlat.rand import random_field_values, random_periodic_kernel, rng_from_seed

spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
fam = build_family(spec)
rng = rng_from_seed(42)

print(f"fine torus: {fam.n_fine} sites, coarse sublattice: {fam.n_coarse} sites,"
      f" block: {fam.n_block} sites")

a = random_periodic_kernel(fam, rng)  # stored as its 9 block rows
print(f"kernel: {a.rows.shape[0]} block rows of {a.rows.shape[1]} entries, "
      f"not the dense {fam.n_fine}x{fam.n_fine} matrix")

fibers = bloch_fibers(a)  # one stack, a 9x9 fiber per coarse momentum class
print(f"fibers: stack of shape {fibers.entries.shape}")

back = reconstruct(fam, fibers)
print(f"reconstruction from fibers, max deviation: "
      f"{np.abs(back.rows - a.rows).max():.3e}")

# applying the operator in position space agrees with multiplying each
# momentum class k + l by its fiber: (A phi)^(k+l) = sum_l' fiber(k)[l, l'] phi^(k+l')
lift = fam.extents("dual_fine") // fam.extents("dual_block")
classes = fam.indices("dual_fine", fibers.rep[:, None, :] + fam.coords("dual_block") * lift)
phi = fam.field("fine", random_field_values(fam, "fine", rng))
phi_hat = transform(fam, phi).values
via_position = transform(fam, apply_kernel(a, phi)).values
via_fibers = np.empty(fam.n_fine, dtype=complex)
via_fibers[classes] = (fibers.entries @ phi_hat[classes][:, :, None])[:, :, 0]
print(f"position action vs fiber action in momentum space, max deviation: "
      f"{np.abs(via_position - via_fibers).max():.3e}")

b = random_periodic_kernel(fam, rng)
ab = compose(a, b)
worst = 0.0
for fa, fb, fab in zip(fibers, bloch_fibers(b), bloch_fibers(ab)):
    worst = max(worst, np.abs(fa.entries @ fb.entries - fab.entries).max())
print(f"composition is fiber-wise multiplication, max deviation: {worst:.3e}")

eigenvalues = np.sort_complex(np.linalg.eigvals(fibers.entries).ravel())
dense = np.sort_complex(np.linalg.eigvals(fam.vol_f * np.asarray(a.entries)))
print(f"spectrum from 9 small eigenproblems vs one dense 81x81 solve, "
      f"max deviation: {np.abs(eigenvalues - dense).max():.3e}")
