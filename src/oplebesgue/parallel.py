"""Parallel sums of PSD matrices and the limit constructions built on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    NumericalError,
    PsdMatrix,
    Tolerances,
    eig_hermitian,
    pinv,
    require_same_dim,
)

__all__ = [
    "ANDO_MAX_DOUBLINGS",
    "AndoLimitResult",
    "ando_ac_part",
    "parallel_sum",
    "spectral_ac_of_contraction",
    "variational_value",
]

# Doubling schedule cap for the increasing limit of (2^k A) : B.
ANDO_MAX_DOUBLINGS = 40


def _psd_project(h: np.ndarray, noise: float, tol: Tolerances, context: str) -> PsdMatrix:
    """Strip round-off negatives from a mathematically PSD matrix.

    Eigenvalues below zero by at most ``noise`` (the backward-error scale of
    the computation that produced ``h``) are clipped; anything more negative
    is a genuine failure.
    """
    if h.shape[0] == 0:
        return PsdMatrix(h, tol)
    eigs, vecs = np.linalg.eigh(h)
    if eigs[0] < -noise:
        raise NumericalError(
            f"{context} lost positivity beyond round-off ({eigs[0]:.3e})",
            residual=float(-eigs[0]),
        )
    return PsdMatrix((vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T, tol)


def _clip_positive(h: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(h)
    return (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T


def _nearest_in_order_interval(h: np.ndarray, upper: np.ndarray, noise: float,
                               tol: Tolerances, context: str) -> np.ndarray:
    """Move a Hermitian matrix into {X : 0 <= X <= upper} (Dykstra projections).

    The exact value being approximated lies in that set, so only round-off
    (at most ``noise``) should need correcting; a larger displacement is a
    genuine failure.
    """
    if h.shape[0] == 0:
        return h
    floor = 1e-13 * (1.0 + float(np.linalg.norm(upper)))
    x = h
    p = np.zeros_like(h)
    q = np.zeros_like(h)
    for _ in range(100):
        y = _clip_positive(x + p)
        p = x + p - y
        x = upper - _clip_positive(upper - (y + q))
        q = y + q - x
        low = float(np.linalg.eigvalsh(x)[0])
        high = float(np.linalg.eigvalsh(upper - x)[0])
        if low >= -floor and high >= -floor:
            break
    moved = float(np.linalg.norm(x - h))
    if moved > noise:
        raise NumericalError(
            f"{context} violated its order bounds beyond round-off ({moved:.3e})",
            residual=moved,
        )
    return x


# Norm ratio beyond which the pseudoinverse of the sum is evaluated by
# deflating the large operand's kernel first (see _scaled_pseudo_apply).
_SCALE_SPLIT_RATIO = 100.0


def _scaled_pseudo_apply(big: PsdMatrix, small: PsdMatrix, tol: Tolerances) -> np.ndarray:
    """(big + small)^+ small, evaluated stably under a large norm mismatch.

    A relative eigenvalue cutoff on big + small misclassifies eigenvalues at
    the small operand's scale once the mismatch exceeds about 1/rank_rtol,
    and the eigenvectors of the mixed-scale sum lose accuracy long before
    that.  Splitting along the range and kernel of the large operand keeps
    every block at its natural scale: the range block is inverted by a
    well-conditioned solve and the kernel block through the Schur complement,
    which lives entirely at the small scale.
    """
    dec = eig_hermitian(big, tol)
    w = dec.eigenvalues
    keep = w > (tol.rank_rtol * max(float(w[0]), 0.0) if w.size else 0.0)
    u1 = dec.vectors[:, keep]
    u0 = dec.vectors[:, ~keep]
    s = small.entries
    h = np.diag(w[keep]) + u1.conj().T @ s @ u1
    f = u1.conj().T @ s @ u0
    g = u0.conj().T @ s @ u0
    hinv_f = np.linalg.solve(h, f)
    raw_schur = g - f.conj().T @ hinv_f
    raw_schur = (raw_schur + raw_schur.conj().T) / 2.0
    noise = 256.0 * big.dim * np.finfo(float).eps * (1.0 + small.norm)
    schur_pinv = pinv(_psd_project(raw_schur, noise, tol, "Schur complement"), tol).entries
    y1 = u1.conj().T @ s
    y0 = u0.conj().T @ s
    z0 = schur_pinv @ (y0 - hinv_f.conj().T @ y1)
    z1 = np.linalg.solve(h, y1 - f @ z0)
    return u1 @ z1 + u0 @ z0


def parallel_sum(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Parallel sum A : B = A (A + B)^+ B of two PSD matrices.

    This is the unique PSD matrix whose quadratic form at x is
    inf over y of <A(x-y), x-y> + <By, y>; the computed product is replaced
    by its Hermitian part to stop asymmetry drift.
    """
    require_same_dim(a, b)
    if a.dim == 0:
        return PsdMatrix.zero(0)
    big, small = (a, b) if a.norm >= b.norm else (b, a)
    s = small.entries
    # Evaluated as S - S (A+B)^+ S with S the smaller operand, which equals
    # A (A+B)^+ B exactly but keeps every intermediate bounded by ||S||; the
    # direct product picks up indefinite noise of order eps * ||A+B||.
    if small.norm > 0.0 and big.norm / small.norm > _SCALE_SPLIT_RATIO:
        prod = s - s @ _scaled_pseudo_apply(big, small, tol)
        amplified = small.norm
    else:
        dec = eig_hermitian(a + b, tol)
        w = dec.eigenvalues
        keep = w > (tol.rank_rtol * max(float(w[0]), 0.0) if w.size else 0.0)
        inv = np.zeros_like(w)
        inv[keep] = 1.0 / w[keep]
        pseudo = (dec.vectors * inv) @ dec.vectors.conj().T
        prod = s - s @ pseudo @ s
        # Products against the pseudoinverse amplify round-off by up to
        # ||S||^2 over the smallest retained eigenvalue.
        smallest_kept = float(w[keep][-1]) if np.any(keep) else 1.0
        amplified = small.norm**2 / smallest_kept
    prod = (prod + prod.conj().T) / 2.0
    noise = 256.0 * a.dim * np.finfo(float).eps * (1.0 + a.norm + b.norm + amplified)
    return _psd_project(prod, noise, tol, "parallel sum")


def variational_value(
    a: PsdMatrix,
    b: PsdMatrix,
    x,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Evaluate inf over y of <A(x-y), x-y> + <By, y> with a generic minimizer.

    Deliberately avoids the closed form so it can serve as an independent
    cross-check of `parallel_sum`: the objective is minimized over the real
    and imaginary coordinates of y with L-BFGS-B and an analytic gradient.

    Raises NumericalError carrying the best value found if the minimizer
    fails to reach a stationary point.
    """
    # Imported here because scipy.optimize dominates the package's import
    # time and nothing else uses it.
    from scipy.optimize import minimize

    require_same_dim(a, b)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != a.dim:
        raise ValueError(f"vector length {x.shape[0]} does not match dimension {a.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    n = a.dim
    if n == 0:
        return 0.0
    am, bm = a.entries, b.entries

    def fun_and_grad(z):
        y = z[:n] + 1j * z[n:]
        r = x - y
        ar = am @ r
        by = bm @ y
        value = float(np.real(np.vdot(r, ar) + np.vdot(y, by)))
        g = 2.0 * (by - ar)
        return value, np.concatenate([g.real, g.imag])

    scale = 1.0 + float(abs(fun_and_grad(np.zeros(2 * n))[0]))
    result = minimize(
        fun_and_grad,
        np.zeros(2 * n),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 50_000, "ftol": 1e-16, "gtol": 1e-13 * scale},
    )
    value = float(result.fun)
    grad_norm = float(np.linalg.norm(result.jac))
    # L-BFGS-B reports failure on benign precision loss; accept any point whose
    # gradient is stationary at the problem's scale.
    if not result.success and grad_norm > 1e-6 * scale:
        raise NumericalError(
            f"variational minimizer did not converge ({result.message}); "
            f"best value found {value!r}",
            residual=grad_norm,
        )
    return value


@dataclass(frozen=True)
class AndoLimitResult:
    """Limit of the doubling schedule (2^k A) : B.

    ac_part: the last term computed (the absolutely continuous part of B).
    terms_used: number of parallel sums evaluated along the schedule.
    final_increment: trace increment between the last two terms.
    converged: False when the doubling cap was hit before the increment fell
        below the stopping tolerance.
    """

    ac_part: PsdMatrix
    terms_used: int
    final_increment: float
    converged: bool


def ando_ac_part(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> AndoLimitResult:
    """Increasing limit of (n A) : B along n = 2^k, k = 0..40.

    The limit is the maximal part of B absolutely continuous with respect to
    A.  Stops once the trace increment falls below
    ``iter_tol * (1 + trace B)``; an early stop without reaching that target
    is reported via the ``converged`` flag, never silently.

    Two float guards can end the schedule before k = 40.  The trace sequence
    is increasing, so a drop beyond the round-off scale of the step certifies
    that the scaled pseudoinverse has started misclassifying eigenvalues; the
    last clean term is returned.  And once increments fall below that
    round-off scale, further doubling resolves nothing.
    """
    require_same_dim(a, b)
    threshold = tol.iter_tol * (1.0 + b.trace)
    current = parallel_sum(a, b, tol)
    terms = 1
    increment = 0.0
    converged = False
    # Increments below the arithmetic resolution of a step carry no signal;
    # the kernel-deflated evaluation keeps that resolution flat in k.
    step_noise = 2048.0 * max(b.dim, 1) * np.finfo(float).eps * (1.0 + a.norm + b.norm)
    for k in range(1, ANDO_MAX_DOUBLINGS + 1):
        nxt = parallel_sum((2.0**k) * a, b, tol)
        raw = nxt.trace - current.trace
        if raw < -step_noise:
            # the sequence is increasing, so a genuine drop certifies that the
            # scaled step degraded; keep the last clean term
            break
        terms += 1
        increment = max(raw, 0.0)
        current = nxt
        if increment <= threshold:
            converged = True
            break
        if increment <= step_noise:
            break
    # The limit sits in the order interval [0, B]; round-off can push the
    # computed term slightly outside, so settle it back.
    budget = 1e4 * max(step_noise, threshold)
    settled = _nearest_in_order_interval(current.entries, b.entries, budget, tol,
                                         "doubling limit")
    return AndoLimitResult(PsdMatrix(settled, tol), terms, increment, converged)


def spectral_ac_of_contraction(bt: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Strip the eigenvalue-one subspace from a positive contraction.

    Applies t -> t on [0, 1) and 1 -> 0 to the spectrum; eigenvalues within
    ``rank_rtol`` of one count as one.  The result is the absolutely
    continuous part of the contraction with respect to its complement to the
    identity.
    """
    dec = eig_hermitian(bt, tol)
    w = dec.eigenvalues
    if w.size:
        low, high = float(w[-1]), float(w[0])
        if low < -tol.psd_slack or high > 1.0 + tol.psd_slack:
            raise ValueError(
                f"not a positive contraction: eigenvalues span [{low:.3e}, {high:.3e}]"
            )
    clipped = np.clip(w, 0.0, 1.0)
    mapped = np.where(clipped >= 1.0 - tol.rank_rtol, 0.0, clipped)
    return PsdMatrix((dec.vectors * mapped) @ dec.vectors.conj().T, tol)
