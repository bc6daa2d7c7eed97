"""Holomorphic functions of lattice operators via contour quadrature.

For an operator A with spectrum strictly inside a positively oriented
circle, f(A) = (1 / 2 pi i) * integral f(zeta) (zeta - A)^(-1) dzeta, which
the momentum fibers of a coarse-invariant kernel split fiber by fiber.  On
a circle |zeta - z0| = r, with B = (M - z0) / r and fhat = fft(f(z_j)) / n
at the n nodes z_j, the trapezoid rule is (I - B^n)^(-1) P(B) (Trefethen and
Weideman, SIAM Review 56, 2014), where P(B) = sum_{k<n} fhat_k B^k is f's
degree n - 1 interpolant at the nodes, evaluated at M (Higham, Functions of
Matrices, SIAM 2008, ch. 4).  The quadrature returns P(B), with no B^n and
no solve, by Paterson and Stockmeyer (SIAM J. Comput. 2, 1973) in about 2
sqrt(n) matrix products (9 at n = 27), with f evaluated once per node.

The node count comes from a certified error bound: a majorant ||B^j||_2 <=
K gamma^j per fiber, from its norm disc or computed powers of B; Cauchy
bounds on the Taylor coefficients of f about z0, from the closed-form sups
of a ``CertifiedFunction`` (every entry of ``FUNCTIONS`` and every
``make_polynomial`` is one), so the error falls like s^n and (s gamma)^n for
r / s the radius of a disc about z0 on which f is bounded; and a
first-order rounding term.  Each fiber's certified error is at most 1e-10 * max(1, max|f(M)|), or the
quadrature stops and names the fiber.

Every fiber's eigenvalues must be enclosed and clear the circle by more
than 1e-8 of the spectral scale.  The disc |z - c| <= rho, c = trace / n,
rho >= ||M - cI||_2, holds the spectrum and bounds cond_2(zeta - M) by
(d + rho) / (d - rho) at |zeta - c| = d > rho (Trefethen and Embree 2005);
every fiber's disc comes from one batched pass, and only where it settles
neither are the eigenvalues or the SVD computed.

``function_norm_bound`` certifies an upper bound on the weighted norm of
f(A): the resolvent identity bounds the resolvent's norm on arcs around
the nodes from its norm at each node, and f's sup bounds |f| on each arc.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from .lattice import Record, _shape
from .norms import _block_distances, _finite, _torus_norm
from .periodic_op import PeriodicKernel, _fiber_rows, bloch_fibers, reconstruct
from .periodization import FiberFunction, ZKernel, fiber_function

__all__ = [
    "Circle", "contour_nodes", "encloses", "contour_clearance", "resolvent_fiber",
    "function_of_operator", "function_fiber", "function_norm_bound", "make_polynomial",
    "CertifiedFunction", "NormBound", "FUNCTIONS",
]

RESOLVENT_COND_LIMIT = 1e14
# The disc bound clears a shift only this far below the limit: near 1e14 it and the
# SVD condition number carry rounding errors near one percent, so the SVD decides.
COND_BOUND_ACCEPT = RESOLVENT_COND_LIMIT / 10
# Matrices per batched product, solve or SVD in the quadrature.  The circle
# rule holds at most MAX_POWERS powers of B per chunk, 2 * CHUNK**2 = 128
# matrices, as many as a 16-node resolvent stack of CHUNK fibers, and a few
# working stacks; the cap costs products only from 289 nodes on.
CHUNK = 8
MAX_POWERS = 2 * CHUNK
CLEARANCE_RTOL = 1e-8
QUADRATURE_RTOL = 1e-10  # per fiber, relative to max(1, max|f(M)|)
MAX_NODES = 1 << 14
# function_norm_bound's first arcs, and the (node, fiber) resolvent entries of a pass
NORM_BOUND_ARCS = 16
NORM_BOUND_BUDGET = 1 << 17


class Circle(Record):
    """Positively oriented circle in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")
        for name in ("center", "radius"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"circle {name} must be finite, got {getattr(self, name)}")


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


def _spectral_disc(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, rho) per matrix of an (..., n, n) stack: c = trace / n and rho >=
    ||M - cI||_2, rounded up to cover its own rounding; NaN or infinite for a
    matrix whose sums overflow, or that is not finite."""
    n = matrix.shape[-1]
    with np.errstate(all="ignore"):
        c = np.trace(matrix, axis1=-2, axis2=-1) / n
        shifted = np.array(matrix, dtype=complex)
        shifted.reshape(matrix.shape[:-2] + (-1,))[..., ::n + 1] -= c[..., None]
        rho = _norm2_bound(np.abs(shifted))
    return c, rho * (1.0 + (n * n + 8) * np.finfo(float).eps)


def _disc_clears(contour, c, rho) -> np.ndarray:
    """Whether each disc |z - c| <= rho is enclosed and clears the contour by
    2e-8 * max(1, |c| + rho); never where rho is not finite."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(c - contour.center)
        return ((np.abs(gap - contour.radius) - rho
                 > 2.0 * CLEARANCE_RTOL * np.maximum(1.0, np.abs(c) + rho))
                & (gap < contour.radius))


def _validate_spectrum(contour, matrix: np.ndarray) -> None:
    """Reject eigenvalues outside the contour or within 1e-8 of the spectral
    scale of it.  A disc that clears the contour (``_disc_clears``) passes
    with no eigensolve: it is connected and holds every eigenvalue, computed
    ones included."""
    _require_finite(matrix)
    if _disc_clears(contour, *_spectral_disc(matrix)):
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


def _check_conditioning(stack: np.ndarray, centers: np.ndarray, rhos: np.ndarray,
                        shifts: np.ndarray) -> None:
    """Reject any shift zeta at which (zeta - M) has a 2-norm condition number
    above the limit, for each fiber M = stack[i] with disc (centers[i],
    rhos[i]).  The disc bound (d + rho) / (d - rho) clears a pair when ten
    times below the limit; the SVD decides the rest, CHUNK at a time."""
    c, rho = centers[:, None], rhos[:, None]
    with np.errstate(all="ignore"):
        d = np.abs(shifts - c)
        disc_bound = (d + rho) / (d - rho)
    # written so that a NaN bound, from a non-finite d or rho, clears nothing
    which, at = np.nonzero(~((d > rho) & (disc_bound <= COND_BOUND_ACCEPT)))
    eye = np.eye(stack.shape[-1])
    for lo in range(0, len(which), CHUNK):
        zetas = shifts[at[lo:lo + CHUNK]]
        exact = np.linalg.cond(zetas[:, None, None] * eye - stack[which[lo:lo + CHUNK]])
        bad = zetas[exact > RESOLVENT_COND_LIMIT]
        if len(bad):
            raise ValueError(f"resolvent at zeta={complex(bad[0]):.6g} is ill-conditioned; "
                             "the contour runs too close to the spectrum")


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
    _check_conditioning(matrix[None], np.array([c]), np.array([rho]), shifts)
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


def _require_certified(fn, caller: str) -> None:
    if not isinstance(fn, CertifiedFunction):
        raise TypeError(f"{caller} needs a CertifiedFunction, which carries its disc sup; "
                        f"got {getattr(fn, '__name__', repr(fn))}")


def _contour_setup(stack: np.ndarray, fn, contour) -> tuple[np.ndarray, np.ndarray, float]:
    """(centers, rhos, sup): every fiber's disc, CHUNK fibers per batched
    pass, with ``_validate_spectrum`` on each fiber whose disc does not clear
    the contour, in order, so the first failing fiber is named; and the sup
    of |f| on the closed disc of the contour, which must be finite; a value
    of f that is not finite at a node is named first."""
    centers, rhos = np.empty(len(stack), dtype=complex), np.empty(len(stack))
    for lo in range(0, len(stack), CHUNK):
        centers[lo:lo + CHUNK], rhos[lo:lo + CHUNK] = _spectral_disc(stack[lo:lo + CHUNK])
    # a finite rho keeps the fiber finite, so a cleared disc needs no other check
    for i in np.flatnonzero(~_disc_clears(contour, centers, rhos)):
        _validate_spectrum(contour, stack[i])
    sup = float(fn.disc_sup(np.array([complex(contour.center)]), contour.radius)[0])
    if not np.isfinite(sup):
        _function_values(fn, contour_nodes(contour, NORM_BOUND_ARCS)[0])
        raise ValueError(f"f has no finite sup on the closed disc of the contour "
                         f"{contour}: a pole lies on or inside it, or |f| overflows there")
    return centers, rhos, sup


def _circle_rule(stack: np.ndarray, contour, values: np.ndarray) -> np.ndarray:
    """P(B) = sum_{k<n} fhat_k B^k, n = len(values), for each fiber M of the
    stack: f's interpolant at the n nodes, evaluated at M, which is the rule
    sum_j w_j f(z_j) (z_j - M)^(-1) times (I - B^n).  Paterson-Stockmeyer:
    with X = B^s, the block size s <= MAX_POWERS of the fewest products, the
    sum is Horner's rule in X over the blocks sum_(i<s) fhat_(js+i) B^i,
    formed by elementwise multiply-adds, so each fiber's result is the same
    in any stack."""
    n = len(values)
    coeffs = np.fft.fft(values) / n
    # B^2..B^s and Horner over the ceil(n / s) blocks take s - 2 + ceil(n / s) products
    s = min(range(1, min(n, MAX_POWERS) + 1), key=lambda s: s - 2 + -(-n // s))
    m = stack.shape[-1]
    out = np.empty(stack.shape, dtype=complex)
    for lo in range(0, len(stack), CHUNK):
        chunk = stack[lo:lo + CHUNK]
        powers = [(chunk - contour.center * np.eye(m)) / contour.radius]  # B^1 .. B^s
        while len(powers) < s:
            powers.append(powers[-1] @ powers[0])
        total, spare = np.zeros(chunk.shape, dtype=complex), np.empty(chunk.shape, dtype=complex)
        for j in reversed(range(0, n, s)):
            if j + s < n:
                np.matmul(total, powers[-1], out=spare)
                total, spare = spare, total
            total.reshape(len(chunk), -1)[:, ::m + 1] += coeffs[j]
            for i, c in enumerate(coeffs[j + 1:j + s]):
                total += np.multiply(powers[i], c, out=spare)
        out[lo:lo + CHUNK] = total
    return out


def _majorants(stack: np.ndarray, centers, rhos, contour) -> np.ndarray:
    """(K, gamma, S) per fiber: ||B^j||_2 <= K gamma^j, gamma < 1, and S >=
    sum_j ||B^j||_2, for B = (M - center) / radius.  t_1 = beta = (|c -
    center| + rho) / radius bounds ||B||_2 by the disc; from beta = 1/2 on,
    t_p >= ||B^p||_2, p = 2^k <= MAX_NODES, bounds the squared powers with
    twice their first-order rounding.  As j is a multiple of p plus powers of
    two below p, t_p < 1 gives gamma = t_p^(1/p), K = prod_(i<k) max(1,
    t_(2^i) / gamma^(2^i)) and S = prod_(i<k) (1 + t_(2^i)) / (1 - t_p).  The
    rule's error bound takes (K, gamma) as K / (1 - s gamma), s < 1, at most
    K / (1 - gamma), so the p with the least K / (1 - gamma) is taken, and a
    fiber stops squaring once that stops falling."""
    n, u = stack.shape[-1], np.finfo(float).eps / 2
    beta = (np.abs(centers - contour.center) + rhos) / contour.radius * (1.0 + 4 * u)
    major = np.array([np.ones_like(beta), beta, 1.0 / (1.0 - beta)])
    big = np.flatnonzero(~(beta < 0.5))
    power = (stack[big] - contour.center * np.eye(n)) / contour.radius
    modulus = _norm2_bound(np.abs(power))  # >= || |B| ||_2
    t, cost, live = [], np.full(len(big), np.inf), np.ones(len(big), dtype=bool)
    with np.errstate(all="ignore"):  # an overflowing power certifies nothing
        for k, p in enumerate(1 << np.arange(MAX_NODES.bit_length() if len(big) else 0)):
            power = power @ power if k else power  # B^p of the live fibers
            t.append(t[-1] ** 2 if k else beta[big])  # t_p <= t_(p/2)^2 where not live
            bound = _norm2_bound(np.abs(power)) + 4 * p * (n + 3) * u * modulus[live] ** p
            t[k][live] = np.fmin(bound * (1.0 + (n * n + 8) * u), t[k][live])
            log_t = np.log(np.maximum(t, np.finfo(float).tiny))  # (level i, fiber)
            log_gamma = log_t[k] / p
            log_k = np.maximum(log_t[:k] - (1 << np.arange(k))[:, None] * log_gamma, 0).sum(0)
            level = np.where(np.exp(log_gamma) < 1.0, log_k - np.log1p(-np.exp(log_gamma)), np.inf)
            better = live & (level < cost)
            cost[better] = level[better]
            log_s = np.log1p(t[:k]).sum(axis=0) - np.log1p(-np.minimum(t[k], 1.0))
            major[:, big[better]] = np.exp([log_k, log_gamma, log_s])[:, better]
            power = power[(better | np.isinf(cost))[live]]
            live &= better | np.isinf(cost)
            if not live.any():
                break
    for i in big[np.isinf(cost)][:1]:
        raise ValueError(f"contour quadrature did not converge at fiber {i}: no B^p, p <= "
                         f"{MAX_NODES}, has norm below 1; the spectrum may hug the contour")
    return major


def _rule_errors(major, n, fn, contour, top, n_block) -> tuple[np.ndarray, np.ndarray]:
    """(truncation, rounding) in 2-norm of the n-node rule P(B) per fiber
    (row) and count n (column).

    Write f(center + radius w) = sum_j c_j w^j, so f(M) = sum_j c_j B^j.  The
    nodes alias c_j onto fhat_k = sum_(p>=0) c_(k+pn), hence P(B) - f(B) =
    sum_(k<n) sum_(p>=1) c_(k+pn) (B^k - B^(k+pn)).  With ||B^j||_2 <= K g^j
    (g = gamma, K >= 1 = ||B^0||) and, for the ladder R = radius / s, with
    1 / s = 1 + 2^-k for k = 10..4 and then 2^(k/8) for k = 1..96, Cauchy's
    |c_j| <= F s^j with F = sup |f| on |z - center| <= R, the B^k terms sum
    to at most K F s^n / (1 - s^n) sum_(k<n) (s g)^k and the B^(k+pn) terms
    to K F sum_(j>=n) (s g)^j, so the error is at most K min_R F (s^n / (1 -
    s^n) + (s g)^n) / (1 - s g).  The rungs near 1 reach an f whose
    singularity lies just outside the circle.  An error e
    in the FFT coefficients or the power sum reaches the result as at most e
    sum_(k<n) ||B^k||_2 <= S_n = min(S, K (1 - g^n) / (1 - g)): rounding adds
    u (n + n_block) max|f| S_n, with no solve to amplify it."""
    factor, gamma, total = (row[:, None] for row in major)
    ladder = np.concatenate([1.0 + 2.0 ** -np.arange(10.0, 3.0, -1.0),
                             2.0 ** (np.arange(1, 97) / 8.0)])
    sups = fn.disc_sup(np.array([complex(contour.center)]), contour.radius * ladder)
    ladder, sups = ladder[np.isfinite(sups)], sups[np.isfinite(sups), None]
    n, log_g = np.asarray(n, dtype=float), np.log(np.maximum(gamma, np.finfo(float).tiny))
    log_sg = log_g[:, None] - np.log(ladder)[:, None]  # (fiber, rung, 1)
    with np.errstate(over="ignore"):  # an overflowing bound certifies nothing
        # (s g)^n as exp(n log(s g)): ** on the (fiber, rung, n) cube is far slower
        trunc = (sups * (1.0 / np.expm1(np.log(ladder)[:, None] * n) + np.exp(log_sg * n))
                 / -np.expm1(log_sg))
        partial = np.minimum(total, factor * np.expm1(log_g * n) / np.expm1(log_g))
        return (factor * trunc.min(axis=1, initial=np.inf),
                np.finfo(float).eps / 2 * (n + n_block) * top * partial)


def _node_count(major, target, rows, fn, contour, top, n_block, fallback: bool) -> int:
    """The least n <= MAX_NODES whose truncation plus rounding meets
    ``target`` on every fiber of ``rows``, or with ``fallback``, where the
    rounding misses, whose truncation does; a fiber it misses stops."""
    # a fiber with no larger (K, gamma, S) and no smaller target needs no more nodes
    keep, todo = [], rows[np.lexsort((-major[1, rows], target[rows]))]
    while len(todo):
        keep.append(todo[0])
        todo = todo[~(major[:, todo] <= major[:, todo[:1]]).all(axis=0)]
    alone, both = np.zeros((2, len(keep)), dtype=int)
    for lo in range(1, MAX_NODES + 1, 64):
        n = np.arange(lo, lo + 64)
        trunc, rounding = _rule_errors(major[:, keep], n, fn, contour, top, n_block)
        for counts, ok in ((alone, trunc <= target[keep, None]),
                           (both, trunc + rounding <= target[keep, None])):
            counts[:] = np.where((counts > 0) | ~ok.any(axis=1), counts, n[ok.argmax(axis=1)])
        # the rounding grows with n: past a target, no larger n meets it
        if ((both > 0) | (alone > 0) & (rounding[:, -1] > target[keep])).all():
            break
    for i, enough, reached in zip(keep, both, alone):
        factor, gamma, total = major[:, i]
        if not (enough or fallback and reached):
            raise ValueError("contour quadrature " + (
                f"stalled at its rounding floor at fiber {i}: the rounding term u (n + n_block) "
                f"max|f| S_n, S_n <= S = {total:.3g}, stays above {target[i]:.2g} at every n "
                f"whose truncation meets it, set by max |f| = {top:.3g} on the contour"
                if reached else f"did not converge within {MAX_NODES} nodes at fiber {i}: its "
                f"truncation bound stays above {target[i]:.2g} (K = {factor:.3g}, gamma = "
                f"{gamma:.6g}): s gamma stays near 1 for every s = radius / R such that f is "
                "bounded on |z - center| <= R, as a singularity of f or the spectrum lies near "
                "the contour"))
    return int(np.where(both > 0, both, alone).max(initial=1))


def _fiber_quadrature(stack: np.ndarray, fn, contour) -> np.ndarray:
    """f(M) for every fiber of the (m, n, n) stack, each certified to
    QUADRATURE_RTOL * max(1, max|f(M)|): one rule at the count for the scale
    |f(center)|, and one more for the fibers whose results are smaller."""
    centers, rhos, top = _contour_setup(stack, fn, contour)
    major, n_block = _majorants(stack, centers, rhos, contour), stack.shape[-1]
    scale = abs(_function_values(fn, np.array([contour.center]))[0])
    target = np.full(len(stack), QUADRATURE_RTOL * max(1.0, scale))
    n = _node_count(major, target, np.arange(len(stack)), fn, contour, top, n_block, True)
    values = _function_values(fn, contour_nodes(contour, n)[0])
    out, top = _circle_rule(stack, contour, values), float(np.abs(values).max())
    error = sum(_rule_errors(major, [n], fn, contour, top, n_block))[:, 0]
    # max|f(M)| >= max|result| - error, so this target holds for f(M)
    target = QUADRATURE_RTOL * np.maximum(1.0, np.abs(out).max(axis=(1, 2)) - error)
    again = np.flatnonzero(error > target)
    if len(again):
        n = _node_count(major, target, again, fn, contour, top, n_block, False)
        out[again] = _circle_rule(stack[again], contour,
                                  _function_values(fn, contour_nodes(contour, n)[0]))
    return out


def function_of_operator(kernel: PeriodicKernel, fn: CertifiedFunction,
                         contour) -> PeriodicKernel:
    """Apply a holomorphic function to a torus operator, on all its fibers."""
    _require_certified(fn, "function_of_operator")
    fibers = bloch_fibers(kernel)
    # rebinding frees the input fibers before reconstruct
    fibers = fibers.replace(entries=_fiber_quadrature(fibers.entries, fn, contour))
    return reconstruct(kernel.family, fibers)


def function_fiber(source, fn: CertifiedFunction, contour) -> FiberFunction:
    """Momentum-fiber evaluator of f(A) for an infinite-lattice kernel."""
    _require_certified(fn, "function_fiber")
    if isinstance(source, ZKernel):
        source = fiber_function(source)
    if not isinstance(source, FiberFunction):
        raise TypeError(f"expected a ZKernel or FiberFunction, got {type(source).__name__}")

    def matrix_at(ks):
        stack = np.asarray(source.matrix_at(ks))
        flat = stack.reshape((-1,) + stack.shape[-2:])
        return _fiber_quadrature(flat, fn, contour).reshape(stack.shape)

    return FiberFunction(source.spec, matrix_at)


class CertifiedFunction(Record):
    """A contour-calculus function that carries a closed-form bound on |f|.

    Calling it calls ``fn``.  ``disc_sup(c, h)`` bounds |f| on the disc
    |z - c| <= h, elementwise over centres c and radii h that broadcast, and
    is inf where the disc may hold a pole or the bound overflows.
    """

    fn: Callable[[complex], complex]
    disc_sup: Callable[[np.ndarray, float], np.ndarray]

    def __call__(self, z):
        return self.fn(z)


def _polynomial_sup(coeffs) -> Callable[[np.ndarray, float], np.ndarray]:
    """sum_j |a_j| (|c| + h)^j, by Horner's rule."""
    moduli = [abs(a) for a in coeffs]

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is an infinite sup
    def sup(c, h):
        t, acc = np.abs(c) + h, 0.0
        for a in reversed(moduli):
            acc = acc * t + a
        return np.where(np.isnan(acc), np.inf, acc)  # 0 * inf from an infinite |c| + h

    return sup


@np.errstate(over="ignore")  # an overflow is an infinite sup
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
    "exp": CertifiedFunction(np.exp, np.errstate(over="ignore")(
        lambda c, h: np.exp(np.real(c) + h))),
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
    and b(z) >= ||R(z)||_2, the largest norm bound of its fibers, in passes
    of at most NORM_BOUND_BUDGET (node, fiber) resolvent entries."""
    size = max(1, NORM_BOUND_BUDGET // stack.size)
    eye = np.eye(stack.shape[-1])
    norms, spectral = np.empty(len(zs)), np.empty(len(zs))
    for lo in range(0, len(zs), size):
        shifts = zs[lo:lo + size]
        _check_conditioning(stack, centers, rhos, shifts)
        blocks = np.linalg.inv(shifts[:, None, None, None] * eye - stack)  # (node, fiber, l, l')
        spectral[lo:lo + size] = _norm2_bound(np.abs(blocks)).max(axis=1)
        blocks = _fiber_rows(fam, _shape(fam, "coarse"), blocks)  # frees the fibers
        norms[lo:lo + size] = _torus_norm(fam, blocks, mass)
    return norms, spectral


def function_norm_bound(kernel: PeriodicKernel, fn: CertifiedFunction, contour,
                        mass: float) -> NormBound:
    """Certified upper bound on the weighted norm ||f(A)||_m, m >= 0.

    The circle is cut into n arcs centred on the nodes z_j; every point of
    arc j lies within h = 2 r sin(pi / 2n) of z_j.  The torus norm is
    submultiplicative with ||I||_m = 1, so the resolvent identity gives
    ||R(z)||_m <= N_j = ||R_j||_m / (1 - h ||R_j||_m) on the arc, R_j =
    (z_j - A)^(-1), and ||f(A)||_m <= (r / n) sum_j S_j N_j with S_j =
    ``fn.disc_sup(z_j, h)`` >= |f| on |z - z_j| <= h.  From NORM_BOUND_ARCS
    arcs, n doubles, reusing the old nodes, until every h ||R_j||_m <= 1/2.

    Where that would take more than MAX_NODES arcs (a weight e^(m d) that
    makes ||R_j||_m huge), the arcs stop doubling once h b_j <= 1/2 for
    b_j >= ||R_j||_2, and an arc with h ||R_j||_m > 1/2 takes N_j = ||R_j||_m
    + h W b_j^2 / (1 - h b_j) instead: R(z) = R_j + (z_j - z) R(z) R_j,
    every entry of an operator is at most its 2-norm, and W = max_x sum_y
    e^(m d(x, y)).  The bound holds in exact arithmetic on the computed
    resolvents; ``arcs`` on the result is n.  Where e^(m diameter) overflows,
    it raises naming the mass (the CLI exits 1), though ||f(A)||_m is finite:
    the resolvents have full support (the reference ``funcalc`` at m = 200).
    """
    _require_certified(fn, "function_norm_bound")
    mass = float(_finite("mass", mass))
    if not mass >= 0.0:
        raise ValueError(f"function_norm_bound needs mass >= 0, where the weighted norm "
                         f"is submultiplicative; got {mass}")
    fam, stack = kernel.family, bloch_fibers(kernel).entries
    centers, rhos, _ = _contour_setup(stack, fn, contour)
    n, zs = NORM_BOUND_ARCS, contour_nodes(contour, NORM_BOUND_ARCS)[0]
    norms, spectral = _resolvent_norms(fam, stack, centers, rhos, zs, mass)
    while True:
        h = 2.0 * contour.radius * np.sin(np.pi / (2 * n))
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
            weight = np.exp(mass * _block_distances(fam)).sum(axis=1).max()
            arc_norms[~neumann] = (norms + h * weight * spectral**2
                                   / (1.0 - h * spectral))[~neumann]
    total = contour.radius / n * float((sups * arc_norms).sum())
    return NormBound(total, n)
