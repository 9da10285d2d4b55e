"""Lebesgue decomposition B = B_a + B_s of a PSD matrix relative to a reference.

Two routes are implemented: the Arlinskii fixed-point iteration, whose limit
is the singular part, and the direct construction on the auxiliary space of
the sum C = A + B, where the singular part is a compressed kernel projection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    PsdMatrix,
    Tolerances,
    eig_hermitian,
    range_projection,
    require_same_dim,
)
from .parallel import ando_ac_part, parallel_sum

__all__ = [
    "AuxiliarySpace",
    "LebesgueDecomposition",
    "Method",
    "SINGULARITY_RTOL",
    "arlinskii_iterate",
    "arlinskii_step",
    "auxiliary_space",
    "decompose",
    "direct_decompose",
    "is_absolutely_continuous",
    "is_singular",
]

# Relative threshold on ||A : B||_F deciding mutual singularity.
SINGULARITY_RTOL = 1e-8


class Method(str, enum.Enum):
    """Decomposition route."""

    ITERATE = "iterate"
    DIRECT = "direct"
    ANDO = "ando"


@dataclass(frozen=True, eq=False)
class LebesgueDecomposition:
    """Splitting B = ac + sing into parts absolutely continuous / singular
    relative to the reference matrix, with method metadata."""

    ac: PsdMatrix
    sing: PsdMatrix
    method: Method
    iterations: int
    residual: float
    converged: bool = True


@dataclass(frozen=True, eq=False)
class AuxiliarySpace:
    """Concrete model of the sum space of C = A + B.

    embed is the dim x rank factor with embed @ embed* = C; a_tilde and
    b_tilde are the positive contractions carrying A and B back through the
    embedding, with a_tilde + b_tilde = I.
    """

    rank: int
    embed: np.ndarray
    a_tilde: PsdMatrix
    b_tilde: PsdMatrix

    def __post_init__(self):
        self.embed.flags.writeable = False


def arlinskii_step(x: PsdMatrix, a: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """One step of the Arlinskii iteration: X - X : A.

    Fixed points are exactly the matrices singular to the reference A.
    """
    require_same_dim(x, a)
    return PsdMatrix(x.entries - parallel_sum(x, a, tol).entries, tol)


def arlinskii_iterate(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Iterate B <- B - B : A until the trace increment stalls.

    The iterates decrease monotonically to the singular part of B relative
    to A; stopping uses trace(B_n - B_{n+1}) <= iter_tol * (1 + trace B).
    When A has eigenvalues many orders below those of B on a shared subspace
    the iteration needs roughly one step per eigenvalue ratio, so it carries
    ``max_iter`` and a non-converged flag; the direct method is the reference.
    """
    require_same_dim(a, b)
    if b.norm == 0.0:
        zero = PsdMatrix.zero(b.dim)
        return LebesgueDecomposition(zero, zero, Method.ITERATE, 0, 0.0, True)
    if a.norm == 0.0:
        return LebesgueDecomposition(PsdMatrix.zero(b.dim), b, Method.ITERATE, 0, 0.0, True)
    threshold = tol.iter_tol * (1.0 + b.trace)
    current = b
    iterations = 0
    residual = float("inf")
    converged = False
    while iterations < tol.max_iter:
        nxt = arlinskii_step(current, a, tol)
        iterations += 1
        residual = max(current.trace - nxt.trace, 0.0)
        current = nxt
        if residual <= threshold:
            converged = True
            break
    ac = PsdMatrix(b.entries - current.entries, tol)
    return LebesgueDecomposition(ac, current, Method.ITERATE, iterations, residual, converged)


def auxiliary_space(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> AuxiliarySpace:
    """Factor C = A + B as embed @ embed* and split the identity it carries.

    With C = U diag(lam) U* and r the rank of C under the relative cutoff:
    embed = U_r diag(sqrt(lam)), a_tilde the congruence of A by
    diag(1/sqrt(lam)) U_r*, and b_tilde = I - a_tilde.  Rank zero yields the
    empty space.
    """
    require_same_dim(a, b)
    dec = eig_hermitian(a + b, tol)
    w = dec.eigenvalues
    cutoff = tol.rank_rtol * max(float(w[0]), 0.0) if w.size else 0.0
    keep = w > cutoff
    lam = w[keep]
    u = dec.vectors[:, keep]
    rank = int(lam.size)
    embed = u * np.sqrt(lam)
    scaled = u / np.sqrt(lam) if rank else u
    at = scaled.conj().T @ a.entries @ scaled
    a_tilde = PsdMatrix((at + at.conj().T) / 2.0, tol)
    b_tilde = PsdMatrix(np.eye(rank) - a_tilde.entries, tol)
    return AuxiliarySpace(rank, embed, a_tilde, b_tilde)


def direct_decompose(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Decompose B in one shot via the auxiliary space of C = A + B.

    With a_tilde = V diag(mu) V* and G = embed @ V, the singular part is the
    compression G_0 G_0* of the projection onto the kernel of a_tilde, and
    the absolutely continuous part is G_1 diag(1 - mu_1) G_1*, the
    compression of b_tilde minus that projection, over the kept
    eigenvectors.  Both are built from that one eigendecomposition, so they
    are positive up to the round-off of their own size, not of C's.  Kernel
    membership uses the relative rank cutoff, so a_tilde that vanishes
    entirely makes all of B singular.
    """
    require_same_dim(a, b)
    aux = auxiliary_space(a, b, tol)
    dec = eig_hermitian(aux.a_tilde, tol)
    mu = dec.eigenvalues
    cutoff = tol.rank_rtol * max(float(mu[0]), 0.0) if mu.size else 0.0
    keep = mu > cutoff
    g = aux.embed @ dec.vectors
    g0 = g[:, ~keep]
    g1 = g[:, keep]
    sing = PsdMatrix(g0 @ g0.conj().T, tol)
    ac = PsdMatrix((g1 * np.clip(1.0 - mu[keep], 0.0, None)) @ g1.conj().T, tol)
    return LebesgueDecomposition(ac, sing, Method.DIRECT, 0, 0.0, True)


def is_absolutely_continuous(
    b: PsdMatrix, a: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Whether B is absolutely continuous with respect to A.

    Finite-dimensional criterion: compressing B to the range of A leaves it
    unchanged (range containment).
    """
    require_same_dim(b, a)
    p = range_projection(a, tol).entries
    leak = float(np.linalg.norm(p @ b.entries @ p - b.entries))
    return leak <= tol.recon_tol * (1.0 + b.norm)


def is_singular(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A and B are mutually singular, i.e. A : B vanishes."""
    require_same_dim(a, b)
    return parallel_sum(a, b, tol).norm <= SINGULARITY_RTOL * (1.0 + a.norm + b.norm)


def decompose(
    a: PsdMatrix,
    b: PsdMatrix,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> LebesgueDecomposition:
    """Lebesgue decomposition of B relative to A by the chosen method."""
    method = Method(method)
    if method is Method.ITERATE:
        return arlinskii_iterate(a, b, tol)
    if method is Method.DIRECT:
        return direct_decompose(a, b, tol)
    result = ando_ac_part(a, b, tol)
    sing = PsdMatrix(b.entries - result.ac_part.entries, tol)
    return LebesgueDecomposition(
        result.ac_part,
        sing,
        Method.ANDO,
        result.terms_used,
        result.final_increment,
        result.converged,
    )
