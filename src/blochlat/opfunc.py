"""Holomorphic functions of lattice operators via contour quadrature.

For an operator A with spectrum strictly inside a closed contour,

    f(A) = (1 / 2 pi i) * integral f(zeta) (zeta - A)^(-1) dzeta.

The momentum fibers of a coarse-invariant kernel block-diagonalize A, so
the integral is evaluated fiber by fiber: circles use the uniform
trapezoid rule (geometric convergence for analytic integrands), polylines
use Gauss-Legendre nodes per segment.  Node counts double until the
result stops moving at relative tolerance 1e-10.

Each fiber is handled as one batched computation over its shifts: the
shifted matrices (zeta_j - M) are stacked and inverted by one batched LU
(numpy has no Schur factorization to reuse across shifts).  On a circle
the n trapezoid nodes are exactly the even nodes of the 2n rule, so each
doubling halves the previous sum and adds only the n new odd nodes.
Gauss-Legendre nodes do not nest, so polylines recompute every node.

Every fiber's eigenvalues must be enclosed with winding number one and
clear the contour by more than 1e-8 of the spectral scale, and each shift's
2-norm condition number must stay below 1e14.  The disc |z - c| <= rho,
c = trace / n, rho >= ||M - cI||_2, holds the spectrum, and cond_2(zeta - M)
<= (d + rho) / (d - rho) at |zeta - c| = d > rho (Neumann series; Trefethen
and Embree 2005).  It settles both at twice the clearance and a tenth of the
limit; the rest fall back to eigenvalues, an inverse-based bound, the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .norms import _torus_norm
from .periodic_op import BlochFiber, PeriodicKernel, _fiber_rows, bloch_fibers, reconstruct
from .periodization import FiberFunction, ZKernel, fiber_function

__all__ = [
    "Circle",
    "Polyline",
    "contour_nodes",
    "contour_length",
    "encloses",
    "contour_clearance",
    "resolvent_fiber",
    "function_of_operator",
    "function_of_operator_nodes",
    "function_fiber",
    "function_norm_bound",
    "make_polynomial",
    "FUNCTIONS",
]

RESOLVENT_COND_LIMIT = 1e14
# The bounds clear a shift only this far below the limit: near 1e14 a bound
# and the SVD condition number carry rounding errors of about eps * cond,
# roughly one percent, so the exact check decides there.
COND_BOUND_ACCEPT = RESOLVENT_COND_LIMIT / 10
# Shifts per resolvent stack in the quadrature, which caps its memory when
# the node count doubles towards MAX_NODES.
NODE_BATCH = 256
CLEARANCE_RTOL = 1e-8
DOUBLING_RTOL = 1e-10
MAX_NODES = 1 << 14


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _edges(verts) -> list:
    """The segments (a, b) of the closed polygon through ``verts``."""
    return list(zip(verts, verts[1:] + verts[:1]))


def _segments_cross(a, b, c, d) -> bool:
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class Polyline:
    """Closed, simple, positively oriented polygonal contour.

    The final vertex connects back to the first; listing the first vertex
    again at the end is optional.
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 3:
            raise ValueError(
                f"a closed contour needs at least 3 distinct vertices, got {len(verts)}"
            )
        n = len(verts)
        edges = _edges(verts)
        if sum(a.real * b.imag - b.real * a.imag for a, b in edges) <= 0.0:
            raise ValueError("contour must be positively oriented (counterclockwise)")
        for i, j in combinations(range(n), 2):
            # adjacent segments share a vertex; only the others must not cross
            if j - i not in (1, n - 1) and _segments_cross(*edges[i], *edges[j]):
                raise ValueError(
                    f"contour segments {i} and {j} intersect; the contour must be simple"
                )
        object.__setattr__(self, "vertices", verts)


def contour_length(contour) -> float:
    if isinstance(contour, Circle):
        return 2.0 * np.pi * contour.radius
    return float(sum(abs(b - a) for a, b in _edges(contour.vertices)))


def contour_nodes(contour, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for (1 / 2 pi i) * contour integral.

    Circles get n trapezoid nodes; polylines get n Gauss-Legendre nodes on
    each segment.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if isinstance(contour, Circle):
        theta = 2.0 * np.pi * np.arange(n) / n
        offs = contour.radius * np.exp(1j * theta)
        return contour.center + offs, offs / n
    t, w = leggauss(n)
    nodes = []
    weights = []
    for a, b in _edges(contour.vertices):
        nodes.append(a + (b - a) * (t + 1.0) / 2.0)
        weights.append(w * (b - a) / (2.0 * 2j * np.pi))
    return np.concatenate(nodes), np.concatenate(weights)


def encloses(contour, point: complex) -> bool:
    """Whether the contour winds once around the point."""
    if isinstance(contour, Circle):
        return abs(point - contour.center) < contour.radius
    total = sum(np.angle((b - point) / (a - point)) for a, b in _edges(contour.vertices))
    return int(round(total / (2.0 * np.pi))) == 1


def contour_clearance(contour, point: complex) -> float:
    """Distance from the point to the contour."""
    if isinstance(contour, Circle):
        return abs(abs(point - contour.center) - contour.radius)
    best = np.inf
    for a, b in _edges(contour.vertices):
        ab = b - a
        t = ((point - a) * np.conj(ab)).real / abs(ab) ** 2
        t = min(1.0, max(0.0, t))
        best = min(best, abs(point - (a + t * ab)))
    return float(best)


def _norm2_bound(a: np.ndarray) -> np.ndarray:
    """min(||A||_F, sqrt(||A||_1 ||A||_inf)) >= ||A||_2 per stacked |A| = ``a``."""
    return np.minimum(np.sqrt((a * a).sum(axis=(-2, -1))),
                      np.sqrt(a.sum(axis=-2).max(axis=-1) * a.sum(axis=-1).max(axis=-1)))


def _require_finite(matrix: np.ndarray) -> None:
    """Reject a fiber with a NaN or infinite entry, naming the first one."""
    if not np.isfinite(matrix).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(matrix))[0])
        raise ValueError(f"fiber matrix is not finite: entry {at} is {matrix[at]}")


def _spectral_disc(matrix: np.ndarray) -> tuple[complex, float]:
    """(c, rho): c = trace / n and rho >= ||M - cI||_2, rounded up to cover its
    own rounding; NaN or infinite for a matrix whose sums overflow."""
    n = len(matrix)
    with np.errstate(all="ignore"):
        c = complex(np.trace(matrix)) / n
        rho = float(_norm2_bound(np.abs(matrix - c * np.eye(n))))
    return c, rho * (1.0 + (n * n + 8) * np.finfo(float).eps)


def _validate_spectrum(contour, matrix: np.ndarray) -> None:
    """Reject eigenvalues outside the contour or within 1e-8 of the spectral
    scale of it.  A disc that is enclosed and clears the contour by 2e-8 *
    max(1, |c| + rho) passes with no eigensolve: it is connected and holds
    every eigenvalue, computed ones included."""
    _require_finite(matrix)
    c, rho = _spectral_disc(matrix)
    # a finite rho keeps c finite; clearance before encloses, which divides by
    # zero at a Polyline vertex
    if (np.isfinite(rho) and contour_clearance(contour, c) - rho
            > 2.0 * CLEARANCE_RTOL * max(1.0, abs(c) + rho) and encloses(contour, c)):
        return
    eigenvalues = np.linalg.eigvals(matrix)
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    for lam in eigenvalues:
        lam = complex(lam)
        if contour_clearance(contour, lam) <= CLEARANCE_RTOL * scale:
            raise ValueError(f"contour passes through the spectrum: eigenvalue {lam:.6g} "
                             f"clears it by less than {CLEARANCE_RTOL:.0e} * {scale:.3g}")
        if not encloses(contour, lam):
            raise ValueError(f"contour does not enclose the whole spectrum: eigenvalue "
                             f"{lam:.6g} lies outside")


def _condition_bound(shifted: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Upper bound on the 2-norm condition number of each stacked matrix;
    an overflow gives an infinite or NaN bound, which clears nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm2_bound(np.abs(shifted)) * _norm2_bound(np.abs(inverse))


def resolvent_fiber(matrix: np.ndarray, zeta) -> np.ndarray:
    """(zeta - M)^(-1), rejecting near-singular shifts.

    ``zeta`` is one shift, giving an (n, n) matrix, or a 1-D array of shifts,
    giving the (m, n, n) stack of resolvents from one batched inversion.
    The disc bound (d + rho) / (d - rho) clears a shift when ten times below
    the limit; the rest get ``_condition_bound``, then the SVD.
    """
    matrix = np.asarray(matrix)
    _require_finite(matrix)
    zetas = np.asarray(zeta, dtype=complex)
    if zetas.ndim > 1:
        raise ValueError(f"shifts must be a scalar or a 1-D array, got shape {zetas.shape}")
    shifts = np.atleast_1d(zetas)
    shifted = shifts[:, None, None] * np.eye(len(matrix)) - matrix
    try:
        inverse = np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        inverse, failure = None, exc
        unsure = np.ones(len(shifts), dtype=bool)
    else:
        c, rho = _spectral_disc(matrix)
        with np.errstate(all="ignore"):
            d = np.abs(shifts - c)
            disc_bound = (d + rho) / (d - rho)
        # written so that a NaN bound, from a non-finite d or rho, clears nothing
        unsure = ~((d > rho) & (disc_bound <= COND_BOUND_ACCEPT))
        if unsure.any():
            bound = _condition_bound(shifted[unsure], inverse[unsure])
            unsure[unsure] = ~(bound <= COND_BOUND_ACCEPT)
    if unsure.any():
        exact = np.linalg.cond(shifted[unsure])
        bad = shifts[unsure][exact > RESOLVENT_COND_LIMIT]
        if len(bad):
            raise ValueError(
                f"resolvent at zeta={complex(bad[0]):.6g} is ill-conditioned; "
                "the contour runs too close to the spectrum"
            )
    if inverse is None:
        raise failure
    return inverse if zetas.ndim else inverse[0]


def _function_values(fn, nodes: np.ndarray) -> np.ndarray:
    """f at each node, rejecting a value that is not finite by its node."""
    with np.errstate(all="ignore"):  # an overflow is reported below, by node
        values = np.array([fn(z) for z in nodes], dtype=complex)
    bad = nodes[~np.isfinite(values)]
    if len(bad):
        raise ValueError(f"function value at zeta={complex(bad[0]):.6g} is not finite")
    return values


def _node_sum(matrix: np.ndarray, fn, nodes: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """sum_j w_j f(z_j) (z_j - M)^(-1), one resolvent stack per NODE_BATCH
    nodes."""
    coeffs = weights * _function_values(fn, nodes)
    acc = np.zeros(matrix.shape, dtype=complex)
    for lo in range(0, len(nodes), NODE_BATCH):
        part = slice(lo, lo + NODE_BATCH)
        acc += np.tensordot(coeffs[part], resolvent_fiber(matrix, nodes[part]), axes=1)
    return acc


def _fiber_quadrature(matrix: np.ndarray, fn, contour) -> np.ndarray:
    """Adaptive doubling of the contour rule on a single fiber matrix."""
    _validate_spectrum(contour, matrix)
    n = 16
    acc = _node_sum(matrix, fn, *contour_nodes(contour, n))
    while 2 * n <= MAX_NODES:
        n *= 2
        nodes, weights = contour_nodes(contour, n)
        if isinstance(contour, Circle):
            # the previous rule is this one's even nodes at twice the weight
            new = 0.5 * acc + _node_sum(matrix, fn, nodes[1::2], weights[1::2])
        else:
            new = _node_sum(matrix, fn, nodes, weights)
        dev = np.abs(new - acc).max()
        if dev <= DOUBLING_RTOL * max(1.0, np.abs(new).max()):
            return new
        acc = new
    raise ValueError(
        f"contour quadrature did not converge within {MAX_NODES} nodes; "
        "the spectrum may hug the contour"
    )


def _map_fibers(kernel: PeriodicKernel, per_fiber) -> PeriodicKernel:
    """Torus kernel whose fiber at each momentum is ``per_fiber`` of the
    kernel's fiber matrix there."""
    return reconstruct(kernel.family, [
        BlochFiber(fiber.k, per_fiber(np.asarray(fiber.entries)), fiber.rep)
        for fiber in bloch_fibers(kernel)
    ])


def function_of_operator(kernel: PeriodicKernel, fn: Callable[[complex], complex],
                         contour) -> PeriodicKernel:
    """Apply a holomorphic function to a torus operator, fiber by fiber."""
    return _map_fibers(kernel, lambda matrix: _fiber_quadrature(matrix, fn, contour))


def function_of_operator_nodes(kernel: PeriodicKernel, fn, contour,
                               nodes: int) -> PeriodicKernel:
    """Fixed-node variant, for convergence studies; no adaptivity."""
    zs, ws = contour_nodes(contour, nodes)

    def per_fiber(matrix):
        _validate_spectrum(contour, matrix)
        return _node_sum(matrix, fn, zs, ws)

    return _map_fibers(kernel, per_fiber)


def function_fiber(source, fn, contour) -> FiberFunction:
    """Momentum-fiber evaluator of f(A) for an infinite-lattice kernel."""
    if isinstance(source, ZKernel):
        source = fiber_function(source)
    if not isinstance(source, FiberFunction):
        raise TypeError(f"expected a ZKernel or FiberFunction, got {type(source).__name__}")

    def matrix_at(ks):
        stack = np.asarray(source.matrix_at(ks))
        flat = stack.reshape((-1,) + stack.shape[-2:])
        return np.reshape([_fiber_quadrature(m, fn, contour) for m in flat], stack.shape)

    return FiberFunction(source.spec, matrix_at)


def function_norm_bound(kernel: PeriodicKernel, fn, contour, mass: float,
                        *, nodes: int = 64) -> float:
    """length / (2 pi) * sup |f| * sup |resolvent norm| over the contour.

    The suprema are sampled at the quadrature nodes; with analytic data and
    a clear contour this dominates the weighted norm of f(A).  The fibers
    are taken once; each pass of ceil(nodes / n_fibers) nodes, about one
    fiber's stack of resolvents, is resummed and measured as one stack.
    """
    zs, _ = contour_nodes(contour, nodes)
    sup_f = max(abs(complex(v)) for v in _function_values(fn, zs))
    fam, fibers = kernel.family, bloch_fibers(kernel)
    size = -(-len(zs) // len(fibers))
    sup_res = 0.0
    for lo in range(0, len(zs), size):
        blocks = np.stack([resolvent_fiber(np.asarray(f.entries), zs[lo:lo + size])
                           for f in fibers], axis=1)  # (node, fiber, l, l')
        rows = _fiber_rows(fam, [f.rep for f in fibers], blocks)
        sup_res = max(sup_res, float(_torus_norm(fam, rows, float(mass)).max()))
    return contour_length(contour) / (2.0 * np.pi) * sup_f * sup_res


def make_polynomial(coeffs) -> Callable[[complex], complex]:
    """Polynomial sum_j coeffs[j] * z**j as a contour-calculus function."""
    coeffs = [complex(c) for c in coeffs]
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")

    def poly(z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    return poly


FUNCTIONS: dict[str, Callable[[complex], complex]] = {
    "identity": lambda z: z,
    "square": lambda z: z * z,
    "inverse": lambda z: 1.0 / z,
    "exp": np.exp,
}
