"""Lebesgue decomposition B = B_a + B_s of a PSD matrix relative to a reference.

Two routes are implemented: the Arlinskii fixed-point iteration, whose limit
is the singular part, and the direct construction on the auxiliary space of
the sum C = A + B, where the singular part is a compressed kernel projection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from .core import (
    DEFAULT_TOL,
    NumericalError,
    PsdMatrix,
    Tolerances,
    _frobenius,
    clip_psd,
    eig_hermitian,
    factor_psd,
    psd_by_construction,
    psd_difference,
    range_projection,
    require_same_dim,
    roundoff,
    spectral_map,
    support_roots,
)
from .parallel import _parallel_product, ando_ac_part, parallel_sum

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

# The parts' type: PsdMatrix, or the form or functional a reduction lifts them to.
Part = TypeVar("Part")


class Method(str, enum.Enum):
    """Decomposition route."""

    ITERATE = "iterate"
    DIRECT = "direct"
    ANDO = "ando"


@dataclass(frozen=True, eq=False)
class LebesgueDecomposition(Generic[Part]):
    """Splitting B = ac + sing into parts absolutely continuous / singular
    relative to the reference, with method metadata; unpacks as the pair
    (ac, sing).  The parts are matrices, or the forms or functionals whose
    decomposition reduces to the matrix one."""

    ac: Part
    sing: Part
    method: Method
    iterations: int
    residual: float
    converged: bool = True

    def __iter__(self):
        return iter((self.ac, self.sing))


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

    Fixed points are exactly the matrices singular to the reference A.  The
    difference is validated at the scale of the inputs, ||X|| + ||A||.
    """
    return _step(x, a, 0.0, tol)


def _step(x: PsdMatrix, a: PsdMatrix, carried: float, tol: Tolerances) -> PsdMatrix:
    """X - X : A for an X carrying up to ``carried`` round-off from earlier steps,
    which the parallel sum's clip and the difference's slack allow on top."""
    prod, noise = _parallel_product(x, a, tol)
    xa = clip_psd(prod, noise + carried, tol, "parallel sum")
    return psd_difference(x, xa, tol.psd_slack * (x.norm + a.norm) + carried,
                          "Arlinskii step", tol)


def _range_compression(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, PsdMatrix]:
    """(U, lam, Y) for M = ran B: B = U diag(lam) U* over B's kept eigenvalues,
    and Y = U* S_M(A) U, the short of A to M (Anderson & Trapp 1975) in U's
    coordinates.

    With A = R R* its root factor and U0 the rest of B's eigenvectors, S_M(A)
    = R K K* R* where K spans the kernel of U0* R: its squared singular
    values are judged by the rank cutoff against A's largest eigenvalue.  So
    Y = (U* R K)(U* R K)* is a Gram product, positive by construction, and
    no pseudo-inverse of a block of A is formed.
    """
    dec = eig_hermitian(b, tol)
    keep = tol.support(dec.eigenvalues)
    u, u0 = dec.vectors[:, keep], dec.vectors[:, ~keep]
    root, _ = support_roots(a, tol)
    try:
        _, sigma, vh = np.linalg.svd(u0.conj().T @ root)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the short failed to converge: {exc}") from exc
    top = eig_hermitian(a, tol).eigenvalues[0]
    kernel = vh[np.count_nonzero(tol.support(sigma**2, top)):]
    factor = u.conj().T @ root @ kernel.conj().T
    return u, dec.eigenvalues[keep], psd_by_construction(factor @ factor.conj().T, tol)


def arlinskii_iterate(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Iterate B <- B - B : A on the range of B until the trace increment stalls.

    The iterates decrease monotonically to the singular part of B relative
    to A; stopping uses trace(B_n - B_{n+1}) <= iter_tol * trace B.  Every
    iterate lies below B, so it lives on M = ran B, where X : A = X_M : S_M(A)
    for the short S_M(A) of A to M: the steps run on rank(B)-sized matrices
    X against Y = U* S_M(A) U (``_range_compression``), starting from
    X = diag(lam), and the result is sing = U X U* and ac = B - sing.
    Eigenvalues of B under the rank cutoff therefore belong to ac.  When A
    has eigenvalues many orders below those of B on a shared subspace the
    iteration needs roughly one step per eigenvalue ratio, so it carries
    ``max_iter`` and a non-converged flag; the direct method is the reference.
    """
    require_same_dim(a, b)
    if b.norm == 0.0:
        zero = PsdMatrix.zero(b.dim)
        return LebesgueDecomposition(zero, zero, Method.ITERATE, 0, 0.0, True)
    if a.norm == 0.0:
        return LebesgueDecomposition(PsdMatrix.zero(b.dim), b, Method.ITERATE, 0, 0.0, True)
    u, lam, short = _range_compression(a, b, tol)
    threshold = tol.iter_tol * b.trace
    # Each step adds at most this much round-off to what the iterate carries.
    drift = roundoff(b.dim, a.norm + b.norm)
    current = psd_by_construction(np.diag(lam), tol)
    iterations = 0
    residual = float("inf")
    converged = False
    while iterations < tol.max_iter:
        nxt = _step(current, short, iterations * drift, tol)
        iterations += 1
        residual = max(current.trace - nxt.trace, 0.0)
        current = nxt
        if residual <= threshold:
            converged = True
            break
    sing = psd_by_construction(u @ current.entries @ u.conj().T, tol)
    ac = psd_difference(b, sing, tol.psd_slack * (a.norm + b.norm) + iterations * drift,
                        "iterate limit", tol)
    return LebesgueDecomposition(ac, sing, Method.ITERATE, iterations, residual, converged)


def auxiliary_space(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> AuxiliarySpace:
    """Factor C = A + B as embed @ embed* and split the identity it carries.

    With C = U diag(lam) U* and r the rank of C under the relative cutoff:
    embed = U_r diag(sqrt(lam)), a_tilde the congruence of A by
    diag(1/sqrt(lam)) U_r*, and b_tilde = I - a_tilde, built on the spectrum
    1 - mu of a_tilde = V diag(mu) V*.  Rank zero yields the empty space.
    """
    require_same_dim(a, b)
    embed, coords = support_roots(a + b, tol)
    a_tilde = factor_psd(coords.conj().T @ a.entries @ coords, tol)
    b_tilde = spectral_map(a_tilde, 1.0 - eig_hermitian(a_tilde, tol).eigenvalues, tol)
    return AuxiliarySpace(a_tilde.dim, embed, a_tilde, b_tilde)


def direct_decompose(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Decompose B in one shot via the auxiliary space of C = A + B.

    With a_tilde = V diag(mu) V* and G = embed @ V, the singular part is the
    compression G_0 G_0* of the projection onto the kernel of a_tilde, and
    the absolutely continuous part is G_1 diag(1 - mu_1) G_1*, the
    compression of b_tilde minus that projection, over the kept
    eigenvectors.  Both are Gram products X X* built from that one
    eigendecomposition, so they are positive by construction (no validating
    eigensolve) and carry round-off of their own size, not of C's.  Kernel
    membership uses the relative rank cutoff, so a_tilde that vanishes
    entirely makes all of B singular.
    """
    require_same_dim(a, b)
    aux = auxiliary_space(a, b, tol)
    dec = eig_hermitian(aux.a_tilde, tol)
    mu = dec.eigenvalues
    keep = tol.support(mu)
    g = aux.embed @ dec.vectors
    g0 = g[:, ~keep]
    g1 = g[:, keep]
    sing = psd_by_construction(g0 @ g0.conj().T, tol)
    ac = psd_by_construction((g1 * np.clip(1.0 - mu[keep], 0.0, None)) @ g1.conj().T, tol)
    return LebesgueDecomposition(ac, sing, Method.DIRECT, 0, 0.0, True)


def range_leak(m: PsdMatrix, a: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> float:
    """||P M P - M||_F with P the projection onto the range of A."""
    require_same_dim(m, a)
    p = range_projection(a, tol).entries
    return _frobenius(p @ m.entries @ p - m.entries)


def range_threshold(b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> float:
    """Largest range leak of B that still counts as absolutely continuous."""
    return tol.recon_tol * b.norm


def singularity_threshold(a: PsdMatrix, b: PsdMatrix) -> float:
    """Largest ||A : B||_F that still counts as mutual singularity."""
    return SINGULARITY_RTOL * (a.norm + b.norm)


def is_absolutely_continuous(
    b: PsdMatrix, a: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Whether B is absolutely continuous with respect to A.

    Finite-dimensional criterion: compressing B to the range of A leaves it
    unchanged (range containment), up to ``range_threshold``, which scales
    with B.
    """
    return range_leak(b, a, tol) <= range_threshold(b, tol)


def is_singular(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A and B are mutually singular, i.e. A : B vanishes up to
    ``singularity_threshold``, which scales with A and B."""
    require_same_dim(a, b)
    return parallel_sum(a, b, tol).norm <= singularity_threshold(a, b)


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
    sing = psd_difference(b, result.ac_part, tol.psd_slack * b.norm, "ando singular part", tol)
    return LebesgueDecomposition(
        result.ac_part,
        sing,
        Method.ANDO,
        result.terms_used,
        result.final_increment,
        result.converged,
    )
