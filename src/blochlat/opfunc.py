"""Holomorphic functions of lattice operators via contour quadrature.

For an operator A with spectrum strictly inside a positively oriented
circle,

    f(A) = (1 / 2 pi i) * integral f(zeta) (zeta - A)^(-1) dzeta.

The momentum fibers of a coarse-invariant kernel block-diagonalize A, so
the integral is evaluated fiber by fiber with the uniform trapezoid rule,
which converges geometrically for analytic integrands.  Node counts double
until the result stops moving at relative tolerance 1e-10.

On a circle |zeta - z0| = r the n-node sum has a closed form (Trefethen and
Weideman, SIAM Review 56, 2014): with B = (M - z0) / r and fhat =
fft(f(z_j)) / n,

    sum_j w_j f(z_j) (z_j - M)^(-1) = (I - B^n)^(-1) sum_{k<n} fhat_k B^k,

so a rule costs n - 1 matrix products and one solve, with no resolvent.
The fibers go through it as one stack, CHUNK fibers per batched product,
and f is evaluated once per node for all of them.  The n-node rule is the
even nodes of the 2n-node rule, and the odd nodes are an n-node rule on the
circle turned by pi / n, so each doubling adds one such rule and averages;
a fiber retires once its sum stops moving.

Every fiber's eigenvalues must be enclosed and clear the circle by more
than 1e-8 of the spectral scale, and each shift's 2-norm condition number
must stay below 1e14.  The disc |z - c| <= rho, c = trace / n,
rho >= ||M - cI||_2, holds the spectrum, and cond_2(zeta - M)
<= (d + rho) / (d - rho) at |zeta - c| = d > rho (Neumann series; Trefethen
and Embree 2005).  It settles both at twice the clearance and a tenth of the
limit; only where it does not are the eigenvalues or the SVD computed.

``function_norm_bound`` certifies an upper bound on the weighted norm of
f(A): the circle is cut into arcs around the nodes, the resolvent identity
bounds the resolvent's norm on each arc from its norm at the node, and the
function carries a closed-form sup of |f| on a disc (``CertifiedFunction``;
every entry of ``FUNCTIONS`` and every ``make_polynomial`` is one).  The
quadrature takes any callable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .norms import _block_distances, _torus_norm
from .periodic_op import PeriodicKernel, _fiber_rows, bloch_fibers, reconstruct
from .periodization import FiberFunction, ZKernel, fiber_function

__all__ = [
    "Circle",
    "contour_nodes",
    "encloses",
    "contour_clearance",
    "resolvent_fiber",
    "function_of_operator",
    "function_of_operator_nodes",
    "function_fiber",
    "function_norm_bound",
    "make_polynomial",
    "CertifiedFunction",
    "NormBound",
    "FUNCTIONS",
]

RESOLVENT_COND_LIMIT = 1e14
# The disc bound clears a shift only this far below the limit: near 1e14 it
# and the SVD condition number carry rounding errors of about eps * cond,
# roughly one percent, so the exact check decides there.
COND_BOUND_ACCEPT = RESOLVENT_COND_LIMIT / 10
# Matrices per batched product, solve or SVD in the quadrature.  A chunk's
# working set, five stacks of CHUNK (base, power, running sum and two
# temporaries), is that of a 16-node resolvent stack with its shifted
# matrices and moduli.
CHUNK = 8
CLEARANCE_RTOL = 1e-8
DOUBLING_RTOL = 1e-10
MAX_NODES = 1 << 14
# Arcs that function_norm_bound starts from, and the entries of the (node,
# fiber) resolvent stack that one of its passes may hold.
NORM_BOUND_ARCS = 16
NORM_BOUND_BUDGET = 1 << 17


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


def contour_nodes(contour, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n trapezoid nodes and weights for (1 / 2 pi i) * contour integral."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    theta = 2.0 * np.pi * np.arange(n) / n
    offs = contour.radius * np.exp(1j * theta)
    return contour.center + offs, offs / n


def encloses(contour, point: complex) -> bool:
    """Whether the circle winds once around the point."""
    return abs(point - contour.center) < contour.radius


def contour_clearance(contour, point: complex) -> float:
    """Distance from the point to the circle."""
    return abs(abs(point - contour.center) - contour.radius)


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


def _validate_spectrum(contour, matrix: np.ndarray) -> tuple[complex, float]:
    """Reject eigenvalues outside the contour or within 1e-8 of the spectral
    scale of it, and return the matrix's disc (c, rho).  A disc that is
    enclosed and clears the contour by 2e-8 * max(1, |c| + rho) passes with
    no eigensolve: it is connected and holds every eigenvalue, computed ones
    included."""
    _require_finite(matrix)
    c, rho = _spectral_disc(matrix)
    # a finite rho keeps c finite
    if (np.isfinite(rho) and contour_clearance(contour, c) - rho
            > 2.0 * CLEARANCE_RTOL * max(1.0, abs(c) + rho) and encloses(contour, c)):
        return c, rho
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
    return c, rho


def _check_conditioning(stack: np.ndarray, centers: np.ndarray, rhos: np.ndarray,
                        live: np.ndarray, shifts: np.ndarray) -> None:
    """Reject any shift zeta at which (zeta - M) has a 2-norm condition number
    above the limit, for each M = stack[i], i in ``live``, whose disc is
    (centers[i], rhos[i]).

    The disc bound (d + rho) / (d - rho) clears a pair when ten times below
    the limit; the SVD decides the rest, whose shifted matrices alone are
    built, CHUNK at a time.
    """
    c, rho = centers[live, None], rhos[live, None]
    with np.errstate(all="ignore"):
        d = np.abs(shifts - c)
        disc_bound = (d + rho) / (d - rho)
    # written so that a NaN bound, from a non-finite d or rho, clears nothing
    which, at = np.nonzero(~((d > rho) & (disc_bound <= COND_BOUND_ACCEPT)))
    which = live[which]
    eye = np.eye(stack.shape[-1])
    for lo in range(0, len(which), CHUNK):
        zetas = shifts[at[lo:lo + CHUNK]]
        exact = np.linalg.cond(zetas[:, None, None] * eye - stack[which[lo:lo + CHUNK]])
        bad = zetas[exact > RESOLVENT_COND_LIMIT]
        if len(bad):
            raise ValueError(
                f"resolvent at zeta={complex(bad[0]):.6g} is ill-conditioned; "
                "the contour runs too close to the spectrum"
            )


def resolvent_fiber(matrix: np.ndarray, zeta) -> np.ndarray:
    """(zeta - M)^(-1), rejecting near-singular shifts.

    ``zeta`` is one shift, giving an (n, n) matrix, or a 1-D array of shifts,
    giving the (m, n, n) stack of resolvents from one batched inversion.
    """
    matrix = np.asarray(matrix)
    _require_finite(matrix)
    zetas = np.asarray(zeta, dtype=complex)
    if zetas.ndim > 1:
        raise ValueError(f"shifts must be a scalar or a 1-D array, got shape {zetas.shape}")
    shifts = np.atleast_1d(zetas)
    c, rho = _spectral_disc(matrix)
    # checked first, so that a singular shift is named instead of failing the LU
    _check_conditioning(matrix[None], np.array([c]), np.array([rho]), np.arange(1), shifts)
    inverse = np.linalg.inv(shifts[:, None, None] * np.eye(len(matrix)) - matrix)
    return inverse if zetas.ndim else inverse[0]


def _function_values(fn, nodes: np.ndarray) -> np.ndarray:
    """f at each node, rejecting a value that is not finite by its node."""
    with np.errstate(all="ignore"):  # an overflow is reported below, by node
        values = np.array([fn(z) for z in nodes], dtype=complex)
    bad = nodes[~np.isfinite(values)]
    if len(bad):
        raise ValueError(f"function value at zeta={complex(bad[0]):.6g} is not finite")
    return values


def _circle_rule(stack: np.ndarray, live: np.ndarray, contour, values: np.ndarray,
                 odd: bool) -> np.ndarray:
    """sum_j w_j f(z_j) (z_j - M)^(-1) for each fiber M = stack[i], i in
    ``live``, in closed form: (I - s B^n)^(-1) sum_{k<n} s_k fhat_k B^k.

    The n = len(values) nodes z_j are the n-node rule's, or with ``odd`` the
    odd nodes of the 2n-node rule, at the n-node rule's weights.  B = (M -
    center) / radius and fhat = fft(f(z)) / n; s_k = exp(-i pi k / n) and
    s = -1 for the odd nodes, 1 otherwise.  The powers of B run forward,
    n - 1 products per CHUNK fibers, and the last gives B^n for the solve.
    """
    n = len(values)
    coeffs = np.fft.fft(values) / n
    if odd:
        coeffs *= np.exp(-1j * np.pi * np.arange(n) / n)
    eye = np.eye(stack.shape[-1])
    out = np.empty((len(live),) + stack.shape[1:], dtype=complex)
    for lo in range(0, len(live), CHUNK):
        base = (stack[live[lo:lo + CHUNK]] - contour.center * eye) / contour.radius
        total = np.broadcast_to(coeffs[0] * eye, base.shape).copy()
        power = base
        for a in coeffs[1:]:
            total += a * power
            power = power @ base
        out[lo:lo + CHUNK] = np.linalg.solve(eye + power if odd else eye - power, total)
    return out


def _rounding_floor(matrix: np.ndarray, contour, mean: float) -> float:
    """eps * mean|f| * sum_{k<h} max|B^k| * max|(I -+ B^h)^(-1)|, h = MAX_NODES / 2:
    each FFT coefficient of the two h-node rules that the last doubling
    compares, a mean of f times unit phases, is off by about eps * mean|f|,
    and the power sum and the solve carry that into the result."""
    eye = np.eye(len(matrix))
    base = (matrix - contour.center * eye) / contour.radius
    power, total = eye, 0.0
    for _ in range(MAX_NODES // 2):
        total += np.abs(power).max()
        power = power @ base
    gain = max(np.abs(np.linalg.inv(eye - s * power)).max() for s in (1.0, -1.0))
    return np.finfo(float).eps * mean * total * gain


def _fiber_quadrature(stack: np.ndarray, fn, contour, nodes: int | None = None) -> np.ndarray:
    """f(M) for every fiber M of the (m, n, n) stack by the contour rule.

    With ``nodes`` the rule has that many nodes.  Otherwise the node count
    doubles from 16, every fiber in lockstep, each retiring once its sum
    stops moving; f is evaluated once per node for the whole stack.
    """
    discs = [_validate_spectrum(contour, matrix) for matrix in stack]
    centers = np.array([c for c, _ in discs], dtype=complex)
    rhos = np.array([rho for _, rho in discs], dtype=float)

    def rule(zs, live, odd):
        values = _function_values(fn, zs)
        _check_conditioning(stack, centers, rhos, live, zs)
        return _circle_rule(stack, live, contour, values, odd), values

    live = np.arange(len(stack))
    if nodes is not None:
        return rule(contour_nodes(contour, nodes)[0], live, False)[0]
    n = 16
    acc, values = rule(contour_nodes(contour, n)[0], live, False)
    top, size = float(np.abs(values).max()), float(np.abs(values).sum())
    while 2 * n <= MAX_NODES:
        # the previous rule is this one's even nodes; the odd nodes are an
        # n-node rule on the circle turned by pi / n, and the two average
        new, values = rule(contour_nodes(contour, 2 * n)[0][1::2], live, True)
        top, size = max(top, float(np.abs(values).max())), size + float(np.abs(values).sum())
        n *= 2
        old = acc[live]
        new += old
        new *= 0.5
        old -= new
        dev = np.abs(old).max(axis=(1, 2))
        acc[live] = new
        moving = dev > DOUBLING_RTOL * np.maximum(1.0, np.abs(new).max(axis=(1, 2)))
        live, dev = live[moving], dev[moving]
        if not len(live):
            return acc
    dev, floor = float(dev[0]), _rounding_floor(stack[live[0]], contour, size / n)
    if dev <= 10.0 * floor:  # each rule carries rounding errors of about the floor
        raise ValueError(
            f"contour quadrature stalled at its rounding floor: at {MAX_NODES} nodes the "
            f"doubling deviation {dev:.2g} is within 10x the floor {floor:.2g} "
            f"(eps * mean|f| * sum max|B^k| * max|(I -+ B^n)^-1|, B = (M - center) / radius) "
            f"set by max |f| = {top:.3g} on the contour")
    raise ValueError(f"contour quadrature did not converge within {MAX_NODES} nodes; "
                     "the spectrum may hug the contour")


def _map_fibers(kernel: PeriodicKernel, per_stack) -> PeriodicKernel:
    """Torus kernel whose fibers are ``per_stack`` of the kernel's fiber
    stack (n_coarse, n_block, n_block)."""
    fibers = bloch_fibers(kernel)
    # rebinding frees the input fibers before reconstruct
    fibers = replace(fibers, entries=per_stack(fibers.entries))
    return reconstruct(kernel.family, fibers)


def function_of_operator(kernel: PeriodicKernel, fn: Callable[[complex], complex],
                         contour) -> PeriodicKernel:
    """Apply a holomorphic function to a torus operator, on all its fibers."""
    return _map_fibers(kernel, lambda stack: _fiber_quadrature(stack, fn, contour))


def function_of_operator_nodes(kernel: PeriodicKernel, fn, contour,
                               nodes: int) -> PeriodicKernel:
    """Fixed-node variant, for convergence studies; no adaptivity."""
    return _map_fibers(kernel, lambda stack: _fiber_quadrature(stack, fn, contour, nodes))


def function_fiber(source, fn, contour) -> FiberFunction:
    """Momentum-fiber evaluator of f(A) for an infinite-lattice kernel."""
    if isinstance(source, ZKernel):
        source = fiber_function(source)
    if not isinstance(source, FiberFunction):
        raise TypeError(f"expected a ZKernel or FiberFunction, got {type(source).__name__}")

    def matrix_at(ks):
        stack = np.asarray(source.matrix_at(ks))
        flat = stack.reshape((-1,) + stack.shape[-2:])
        return _fiber_quadrature(flat, fn, contour).reshape(stack.shape)

    return FiberFunction(source.spec, matrix_at)


@dataclass(frozen=True)
class CertifiedFunction:
    """A contour-calculus function that carries a closed-form bound on |f|.

    Calling it calls ``fn``.  ``disc_sup(c, h)`` bounds |f| on the disc
    |z - c| <= h, elementwise over an array of centres c, and is inf where
    the disc may hold a pole.
    """

    fn: Callable[[complex], complex]
    disc_sup: Callable[[np.ndarray, float], np.ndarray]

    def __call__(self, z):
        return self.fn(z)


def _polynomial_sup(coeffs) -> Callable[[np.ndarray, float], np.ndarray]:
    """sum_j |a_j| (|c| + h)^j, by Horner's rule."""
    moduli = [abs(a) for a in coeffs]

    def sup(c, h):
        t, acc = np.abs(c) + h, 0.0
        for a in reversed(moduli):
            acc = acc * t + a
        return acc

    return sup


def _inverse_sup(c, h):
    """1 / (|c| - h), inf where the disc reaches the pole at 0."""
    gap = np.abs(c) - h
    return np.where(gap > 0.0, 1.0 / np.where(gap > 0.0, gap, 1.0), np.inf)


def make_polynomial(coeffs) -> CertifiedFunction:
    """Polynomial sum_j coeffs[j] * z**j as a contour-calculus function."""
    coeffs = [complex(c) for c in coeffs]
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")

    def poly(z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    return CertifiedFunction(poly, _polynomial_sup(coeffs))


FUNCTIONS: dict[str, CertifiedFunction] = {
    "identity": CertifiedFunction(lambda z: z, _polynomial_sup([0.0, 1.0])),
    "square": CertifiedFunction(lambda z: z * z, _polynomial_sup([0.0, 0.0, 1.0])),
    "inverse": CertifiedFunction(lambda z: 1.0 / z, _inverse_sup),
    "exp": CertifiedFunction(np.exp, lambda c, h: np.exp(np.real(c) + h)),
}


class NormBound(float):
    """A certified norm bound that also records the contour arcs it took."""

    arcs: int

    def __new__(cls, value: float, arcs: int):
        bound = super().__new__(cls, value)
        bound.arcs = arcs
        return bound


def _resolvent_norms(fam, stack, centers, rhos, zs, mass: float):
    """(||R(z)||_m, b(z)) at each node z, R(z) = (z - A)^(-1) on the torus
    and b(z) >= ||R(z)||_2, the largest norm bound of its fibers.  The nodes
    go in passes whose (node, fiber) resolvent stack holds at most
    NORM_BOUND_BUDGET entries: per pass one conditioning check, one batched
    inversion, one row FFT and one norm."""
    size = max(1, NORM_BOUND_BUDGET // stack.size)
    eye, live = np.eye(stack.shape[-1]), np.arange(len(stack))
    norms, spectral = np.empty(len(zs)), np.empty(len(zs))
    for lo in range(0, len(zs), size):
        shifts = zs[lo:lo + size]
        _check_conditioning(stack, centers, rhos, live, shifts)
        blocks = np.linalg.inv(shifts[:, None, None, None] * eye - stack)  # (node, fiber, l, l')
        spectral[lo:lo + size] = _norm2_bound(np.abs(blocks)).max(axis=1)
        blocks = _fiber_rows(fam, blocks)  # rebinding frees the fibers before the norm
        norms[lo:lo + size] = _torus_norm(fam, blocks, mass)
    return norms, spectral


def function_norm_bound(kernel: PeriodicKernel, fn: CertifiedFunction, contour,
                        mass: float) -> NormBound:
    """Certified upper bound on the weighted norm ||f(A)||_m, m >= 0.

    The circle is cut into n arcs centred on the nodes z_j; every point of
    arc j lies within h = 2 r sin(pi / 2n) of z_j.  The torus norm is
    submultiplicative with ||I||_m = 1, so the resolvent identity gives
    ||R(z)||_m <= N_j = ||R_j||_m / (1 - h ||R_j||_m) on the arc, R_j =
    (z_j - A)^(-1), and

        ||f(A)||_m <= (r / n) sum_j S_j N_j,

    with S_j = ``fn.disc_sup(z_j, h)`` >= |f| on |z - z_j| <= h.  From
    NORM_BOUND_ARCS arcs, n doubles, reusing the old nodes as the even ones,
    until every h ||R_j||_m <= 1/2 and every S_j is finite.

    Where that would take more than MAX_NODES arcs (a weight e^(m d) that
    makes ||R_j||_m huge), the arcs stop doubling once h b_j <= 1/2 for
    b_j >= ||R_j||_2, and an arc with h ||R_j||_m > 1/2 takes N_j = ||R_j||_m
    + h W b_j^2 / (1 - h b_j) instead: R(z) = R_j + (z_j - z) R(z) R_j,
    every entry of an operator is at most its 2-norm, and W = max_x sum_y
    e^(m d(x, y)).

    The spectrum must lie inside the contour and f must be bounded on its
    closed disc, so that the integral is f(A).  The bound holds in exact
    arithmetic on the computed resolvents; ``arcs`` on the result is n.
    """
    if not isinstance(fn, CertifiedFunction):
        raise TypeError(f"function_norm_bound needs a CertifiedFunction, which carries "
                        f"its disc sup; got {getattr(fn, '__name__', repr(fn))}")
    mass = float(mass)
    if not mass >= 0.0:
        raise ValueError(f"function_norm_bound needs mass >= 0, where the weighted norm "
                         f"is submultiplicative; got {mass}")
    fam, stack = kernel.family, bloch_fibers(kernel).entries
    discs = [_validate_spectrum(contour, matrix) for matrix in stack]
    centers = np.array([c for c, _ in discs], dtype=complex)
    rhos = np.array([rho for _, rho in discs], dtype=float)
    n = NORM_BOUND_ARCS
    zs = contour_nodes(contour, n)[0]
    _function_values(fn, zs)  # a value that is not finite is named by its node
    with np.errstate(over="ignore"):
        if not np.isfinite(fn.disc_sup(contour.center, contour.radius)):
            raise ValueError(f"function_norm_bound: f has no finite sup on the closed disc "
                             f"of the contour {contour}: a pole lies on or inside it, "
                             f"or |f| overflows there")
    norms, spectral = _resolvent_norms(fam, stack, centers, rhos, zs, mass)
    while True:
        h = 2.0 * contour.radius * np.sin(np.pi / (2 * n))
        with np.errstate(over="ignore"):
            sups = np.asarray(fn.disc_sup(zs, h), dtype=float)
        neumann = h * norms <= 0.5
        # doubling about halves h, so the norm route needs about this many arcs
        out_of_reach = 2 * n * h * norms.max() > MAX_NODES
        if np.isfinite(sups).all() and (neumann.all() or (
                out_of_reach and (h * spectral).max() <= 0.5)):
            break
        if 2 * n > MAX_NODES:
            raise ValueError(
                f"function_norm_bound: no certificate on the contour {contour} within "
                f"{MAX_NODES} arcs: max h * ||R(z_j)||_2 = {(h * spectral).max():.3g} "
                f"> 1/2 or an infinite sup of |f| on an arc")
        zs = contour_nodes(contour, 2 * n)[0]
        more = _resolvent_norms(fam, stack, centers, rhos, zs[1::2], mass)
        norms, spectral = (np.stack([old, new], axis=1).reshape(-1)
                           for old, new in zip((norms, spectral), more))
        n *= 2
    with np.errstate(all="ignore"):  # the arcs where this is not finite are replaced
        arc_norms = norms / (1.0 - h * norms)
        if not neumann.all():
            weight = np.exp(mass * _block_distances(fam.spec)).sum(axis=1).max()
            arc_norms[~neumann] = (norms + h * weight * spectral**2
                                   / (1.0 - h * spectral))[~neumann]
    total = contour.radius / n * float((sups * arc_norms).sum())
    return NormBound(total, n)
