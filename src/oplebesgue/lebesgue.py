"""Lebesgue decomposition B = B_a + B_s of a PSD matrix relative to a reference.

Three routes are dispatched by ``decompose``: the Arlinskii fixed-point
iteration, whose limit is the singular part; the direct construction on the
auxiliary space of the sum C = A + B, where the singular part is a
compressed kernel projection; and Ando's doubling limit of (2^k A) : B,
which lives in ``parallel`` (``ando_ac_part``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Generic, TypeVar

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenDecomposition,
    NumericalError,
    PsdMatrix,
    Tolerances,
    _frobenius,
    _from_spectrum,
    _svd,
    eig_hermitian,
    psd_by_construction,
    psd_difference,
    range_projection,
    require_same_dim,
    require_unitary,
    spectral_map,
    support_roots,
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
    embedding, with a_tilde + b_tilde = I.  Both are built on first use,
    under ``tol``, on a_tilde's spectrum ``_spectrum`` = (mu, Q), whose
    eigenvectors have the unitarity residual ``_ortho``: a_tilde with mu,
    b_tilde with its own spectrum ``_complement``.
    """

    rank: int
    embed: np.ndarray
    tol: Tolerances = field(repr=False)
    _spectrum: EigenDecomposition = field(repr=False)
    _ortho: float = field(repr=False)
    _complement: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.embed.flags.writeable = False

    @cached_property
    def a_tilde(self) -> PsdMatrix:
        """Q diag(mu) Q*, kept with that factorization."""
        return _from_spectrum(self._spectrum.eigenvalues, self._spectrum.vectors, self._ortho,
                              self.tol)

    @cached_property
    def b_tilde(self) -> PsdMatrix:
        """I - a_tilde: a_tilde's eigenvectors with the spectrum ``_complement``."""
        return spectral_map(self.a_tilde, self._complement, self.tol)


def arlinskii_step(x: PsdMatrix, a: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """One step of the Arlinskii iteration: X - X : A.

    Fixed points are exactly the matrices singular to the reference A.  The
    difference is validated at the scale of the inputs, ||X|| + ||A||.
    """
    return psd_difference(x, parallel_sum(x, a, tol), tol.psd_slack * (x.norm + a.norm),
                          "Arlinskii step", tol)


def _range_compression(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, lam, F, U0, w0) for M = ran B: B = U diag(lam) U* + U0 diag(w0) U0*
    over B's kept and cut eigenvalues, and F F* = U* S_M(A) U, the short of A
    to M (Anderson & Trapp 1975) in U's coordinates.

    With A = R R* its root factor, S_M(A) = R K K* R* where K spans the kernel
    of U0* R: its squared singular values are judged by the rank cutoff
    against A's largest eigenvalue.  So F = U* R K, and no pseudo-inverse of
    a block of A is formed.
    """
    dec = eig_hermitian(b, tol)
    keep = tol.support(dec.eigenvalues)
    u, u0 = dec.vectors[:, keep], dec.vectors[:, ~keep]
    root = support_roots(a, tol)
    _, sigma, vh = _svd(u0.conj().T @ root, True)
    top = eig_hermitian(a, tol).eigenvalues[0]
    kernel = vh[np.count_nonzero(tol.support(sigma**2, top)):]
    return (u, dec.eigenvalues[keep], u.conj().T @ root @ kernel.conj().T,
            u0, dec.eigenvalues[~keep])


def arlinskii_iterate(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Iterate B <- B - B : A on the range of B until the trace increment stalls.

    The iterates decrease monotonically to the singular part of B relative
    to A; stopping uses trace(B_n - B_{n+1}) <= iter_tol * trace B, so a B
    with no positive trace, zero up to round-off, is all singular at once
    (as is any B against A = 0).  The iterates lie below B, so on M = ran B,
    where X : A = X_M : S_M(A) with the short S_M(A) = U F F* U* of A to M
    (``_range_compression``): the iteration
    starts from diag(lam) against Y = F F*.  The thin QR
    [diag(lam)^(1/2), F]* = Q R gives diag(lam) = G (I - Yc) G* and
    Y = G Yc G* for G = R*, with the contraction Yc = Q_F* Q_F = W diag(y) W*
    (Q_F the rows of Q that belong to F).  Congruence by the invertible G
    commutes with parallel sums and every iterate is a function of Yc, so
    the n-th iterate is exactly H diag(g_n) H* with H = U G W, g_0 = 1 - y
    and g_{n+1} = g_n^2 / (g_n + y), a scalar recursion.  Both parts are Gram
    products, sing = H diag(g) H* and ac = H diag(1 - y - g) H* + U0 diag(w0)
    U0* with B's eigenvalues w0 under the rank cutoff, weights clipped at
    zero.  They sum to B to round-off while diag(lam) = GW diag(1 - y) GW*
    (GW = G W), so a residual of that r x r identity above psd_slack
    (||A|| + ||B||) raises NumericalError.
    When A has eigenvalues many orders below those of B on a shared subspace
    the iteration needs roughly one step per eigenvalue ratio, so it carries
    ``max_iter`` and a non-converged flag.  No route is the reference: the
    tests judge each against an independent oracle.
    """
    require_same_dim(a, b)
    if b.trace <= 0.0 or a.norm == 0.0:
        zero = psd_by_construction(np.zeros((b.dim, b.dim)), tol)
        return LebesgueDecomposition(zero, b, Method.ITERATE, 0, 0.0, True)
    u, lam, factor, u0, w0 = _range_compression(a, b, tol)
    q, r = np.linalg.qr(np.hstack([np.diag(np.sqrt(lam)), factor]).conj().T)
    # Q_F* = W diag(sqrt y) V*, with W square so that y is padded by zeros
    w, root_y, _ = _svd(q[lam.size:].conj().T, True)
    y = np.clip(np.pad(root_y**2, (0, lam.size - root_y.size)), 0.0, 1.0)
    gw = r.conj().T @ w
    consistency = _frobenius(np.diag(lam) - (gw * (1.0 - y)) @ gw.conj().T)
    noise = tol.psd_slack * (a.norm + b.norm)
    if consistency > noise:
        raise NumericalError(f"iterate's factors disagree with the spectrum of B by "
                             f"{consistency:.3e} > {noise:.3e}", residual=consistency)
    h = u @ gw
    weight = np.sum(np.abs(h) ** 2, axis=0)
    threshold = tol.iter_tol * b.trace
    g = 1.0 - y
    converged = False
    for iterations in range(1, tol.max_iter + 1):
        nxt = g * g / (g + y)
        residual = max(float(weight @ (g - nxt)), 0.0)
        g = nxt
        if residual <= threshold:
            converged = True
            break
    sing = psd_by_construction((h * g) @ h.conj().T, tol)
    kept = np.hstack([h, u0])
    ac = psd_by_construction(
        (kept * np.maximum(np.concatenate([1.0 - y - g, w0]), 0.0)) @ kept.conj().T, tol)
    return LebesgueDecomposition(ac, sing, Method.ITERATE, iterations, residual, converged)


def auxiliary_space(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> AuxiliarySpace:
    """Factor C = A + B as embed @ embed* and split the identity it carries.

    With root factors A = X X* and B = Y Y* read off the inputs' kept
    factorizations, the SVD [X Y]* = [V_X; V_Y] diag(s) U* gives embed =
    U_r diag(s_r) over s above the cutoff (on s, not s^2, so B's mass below
    rank_rtol ||A|| stays), a_tilde = V_X* V_X = Q diag(sigma^2) Q* by one SVD
    of V_X*, and b_tilde = V_Y* V_Y = Q diag(||V_Y q_i||^2) Q*; nothing is
    divided by s.  Rank zero yields the empty space; C that overflows raises.
    """
    require_same_dim(a, b)
    x = support_roots(a, tol)
    v, s, uh = _svd(np.vstack([x.conj().T, support_roots(b, tol).conj().T]), False)
    if s.size and s[0] > np.sqrt(np.finfo(float).max):
        raise NumericalError(f"sum A + B overflows: its largest eigenvalue is {s[0]:.3e} squared")
    rank = int(np.count_nonzero(tol.support(s)))
    embed = uh[:rank].conj().T * s[:rank]
    q, sigma = _svd(v[:x.shape[1], :rank].conj().T, True)[:2]
    complement = np.sum(np.abs(v[x.shape[1]:, :rank] @ q) ** 2, axis=0)
    # sigma descends, so a_tilde keeps Q's column order; J*'s factors are freed first
    del x, v, uh
    mu = np.pad(sigma**2, (0, rank - sigma.size))
    ortho = _frobenius(q.conj().T @ q - np.eye(rank))
    return AuxiliarySpace(rank, embed, tol, EigenDecomposition(mu, q), ortho, complement)


def direct_decompose(
    a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL
) -> LebesgueDecomposition:
    """Decompose B in one shot via the auxiliary space of C = A + B.

    With a_tilde = V diag(mu) V* and G = embed @ V, the singular part is the
    compression G_0 G_0* of the projection onto the kernel of a_tilde, and
    the absolutely continuous part is G_1 diag(1 - mu_1) G_1*, the
    compression of b_tilde minus that projection, over the kept eigenvectors
    (a prefix), with 1 - mu read as b_tilde's spectrum ``_complement``.
    Both are Gram products X X*, so they are positive by construction (no
    validating eigensolve) and carry round-off of their own size.  Kernel
    membership uses the relative rank cutoff, so a_tilde that vanishes
    entirely makes all of B singular.  Only a_tilde's spectrum (mu, V) is
    read, so its n x n entries are never built.
    """
    aux = auxiliary_space(a, b, tol)
    require_unitary(aux._ortho, tol)
    mu, v = aux._spectrum.eigenvalues, aux._spectrum.vectors
    kept = int(np.count_nonzero(tol.support(mu)))
    g, nu = aux.embed @ v, aux._complement[:kept]
    del aux
    sing = psd_by_construction(g[:, kept:] @ g[:, kept:].conj().T, tol)
    ac = psd_by_construction((g[:, :kept] * nu) @ g[:, :kept].conj().T, tol)
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
    return LebesgueDecomposition(
        result.ac_part,
        result.sing_part,
        Method.ANDO,
        result.terms_used,
        result.final_increment,
        result.converged,
    )
