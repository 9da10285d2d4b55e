"""Parallel sums of PSD matrices and the limit constructions built on them."""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    NumericalError,
    PsdMatrix,
    Tolerances,
    _eigh,
    _frobenius,
    _require_above,
    clip_psd,
    clip_psd_with_floor,
    eig_hermitian,
    gram_roundoff,
    psd_by_construction,
    require_same_dim,
    roundoff,
    spectral_map,
)

__all__ = [
    "ANDO_MAX_DOUBLINGS",
    "AndoLimitResult",
    "ando_ac_part",
    "parallel_sum",
    "spectral_ac_of_contraction",
    "variational_value",
]

# Doublings past the first exponent k0 of the increasing limit of (2^k A) : B,
# where 2^k0 lambda_min,kept(A) first reaches ||B||_F: the schedule evaluates
# at most ANDO_MAX_DOUBLINGS + 1 terms, k = k0..k0 + ANDO_MAX_DOUBLINGS.
ANDO_MAX_DOUBLINGS = 40

# Bound on the absolute sum of a row of `_richardson_weights`, by which a
# diagonal entry of Romberg's table combines the doubling terms: each column
# step grows it by (2^m + 1) / (2^m - 1), and the product over all m is 8.26.
_ROMBERG_GROWTH = 8.3

# Cap on conjugate-gradient steps per dimension in `variational_value`.  In
# exact arithmetic n steps suffice; in floating point a wide eigenvalue
# spread costs orthogonality.  On random pairs at n = 64 and 128 with
# spreads 1e6-1e10, a cap of 16 n left some gradients above the stationarity
# bound, 64 n none.
_CG_STEPS_PER_DIM = 64


def _settle(h: np.ndarray, upper: np.ndarray, noise: float, scale: float, tol: Tolerances,
            context: str) -> tuple[np.ndarray, np.ndarray]:
    """Move a Hermitian matrix into {X : 0 <= X <= upper} in one clip round.

    Returns X and its complement C = upper - X, from Y = clip(h) and C =
    clip(upper - Y): C is PSD by its clip, so X = upper - C <= upper.  The
    exact value being approximated lies in that set, so only round-off (at
    most ``noise``) should need correcting; a larger displacement is a
    genuine failure, as is X below -psd_slack * ``scale``, where ``scale``
    is the norm of the problem ``upper`` comes from (at least ||upper||:
    ``ando_ac_part`` settles on a subspace M of C^n, under the Schur
    complement of Bt onto M, at the scale ||Bt||).  X >= 0 is judged
    first without an eigensolve: X = Y + (Z - C) up to the rounding of the
    sums, where Z = upper - Y is the matrix clipped to C, and Y is PSD up to
    its rebuild round-off, so lambda_min(X) >= floor(Z - C) - that round-off
    - the sums' rounding (``clip_psd_with_floor``).  Only when that bound
    misses the threshold does one ``_eigh`` of X decide.
    """
    n = upper.shape[0]
    if n == 0:
        return upper, upper
    y = clip_psd(h, np.inf, tol, context)
    complement, floor = clip_psd_with_floor(upper - y.entries, tol)
    x = upper - complement.entries
    threshold = -tol.psd_slack * scale
    # the two sums round by at most eps/2 times their operands' norms
    low = (floor - gram_roundoff(n, y.trace)
           - np.finfo(float).eps * (_frobenius(upper) + y.norm + complement.norm))
    if low < threshold:
        low = float(_eigh(x)[0][-1])
        if low < threshold:
            raise NumericalError(f"{context} did not settle above zero ({low:.3e})",
                                 residual=-low)
    moved = _frobenius(x - h)
    if moved > noise:
        raise NumericalError(
            f"{context} violated its order bounds beyond round-off ({moved:.3e})",
            residual=moved,
        )
    return x, complement.entries


def _rotated(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """U* M U for a Hermitian M, kept as its Hermitian part."""
    mt = u.conj().T @ m @ u
    return mt / 2.0 + mt.conj().T / 2.0


def _schur(lam: np.ndarray, st: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """([h^-1 S11 | h^-1 S10], Sigma): the kernel split's one solve against h.

    ``st`` is the small operand S in a basis that splits the large operand D
    into its kept eigenvalues ``lam`` (D = diag(lam) on the leading block)
    and its kernel (D = 0), with blocks S11 (kept x kept), S10 (kept x
    kernel) and S00 (kernel x kernel).  One LU of h = diag(lam) + S11, well
    conditioned, solves [S11 | S10]; the Schur complement Sigma = S00 - S10*
    h^-1 S10, which lives entirely at the small scale, is returned as its
    Hermitian part.
    """
    r = lam.size
    solved = np.linalg.solve(np.diag(lam) + st[:r, :r], st[:r])
    schur = st[r:, r:] - st[:r, r:].conj().T @ solved[:, r:]
    return solved, schur / 2.0 + schur.conj().T / 2.0


def _term(st: np.ndarray, solved: np.ndarray, schur_apply, extra: np.ndarray) -> np.ndarray:
    """C* T C for T = S - S (D + S)^+ S on the columns C = diag(I, E) of [U1 |
    U0], E = ``extra``, as its Hermitian part, from ``_schur``'s output.

    With S1 and S0 the kept and kernel rows of S C and G = h^-1 S10: z0 =
    Sigma^+ (S0 - G* S1) by ``schur_apply``, z1 = h^-1 S1 - G z0 from the one
    solve, and C* T C = C* S C - S1* z1 - S0* z0.  T vanishes on the kernel
    directions Sigma^+ keeps, so E need only hold the ones it drops.
    """
    r = solved.shape[0]
    s = np.hstack([st[:, :r], st[:, r:] @ extra])
    s1, s0 = s[:r], s[r:]
    hinv_f = solved[:, r:]
    z0 = schur_apply(s0 - hinv_f.conj().T @ s1)
    z1 = np.hstack([solved[:, :r], hinv_f @ extra]) - hinv_f @ z0
    t = np.vstack([s1, extra.conj().T @ s0]) - s1.conj().T @ z1 - s0.conj().T @ z0
    return t / 2.0 + t.conj().T / 2.0


def parallel_sum(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Parallel sum A : B = A (A + B)^+ B of two PSD matrices.

    This is the unique PSD matrix whose quadratic form at x is
    inf over y of <A(x-y), x-y> + <By, y>.  It is evaluated as
    S - S (D + S)^+ S, with D the operand of larger norm and S the other,
    which equals A (A+B)^+ B exactly but keeps every intermediate bounded by
    ||S||.  The evaluation runs in D's own eigenbasis U = [U1 | U0] (kept |
    kernel), read off D's factorization: S is rotated once to U* S U, one
    solve against h gives the dim ker D Schur complement Sigma (``_schur``),
    and Sigma = W diag(w) W* is the one eigensolve.  The pseudoinverse's
    rule ``tol.support(w, ||S||)`` splits W into the kept W+ and the dropped
    W0; Sigma^+ is applied as W+ diag(1/w+) W+*, and the product vanishes on
    U0 W+, so it is formed only on Q1 = [U1 | U0 W0] (``_term``): the r x r
    kept block when nothing is dropped.  That block is clipped on its one
    eigensolve, C = V diag(max(c, 0)) V*, and the result is the Gram
    product Q1 C Q1*, PSD by construction (``psd_by_construction``): it is
    factored only if its spectrum is read.

    Positivity bound.  With G = h^-1 S10 and L = [I 0; G* I], the split
    computes S (D + S)^+ S = Y* diag(h^-1, Sigma^+) Y for Y = L^-1 U* S U.
    Rounding of relative size eps in the rotated operands and the sums
    enters T at the scale ||A|| + ||B|| + ||S||; rounding in the solve and
    in Sigma's eigenbasis is amplified by the middle factor, of norm at most
    ``inverse`` = max(1 / lambda_min,kept(D), 1 / w_min,kept), and reaches T
    through the two outer factors Y, taken at the scale ||S|| of S.  So the
    clip allows eigenvalues down to -roundoff(n, ||A|| + ||B|| + ||S|| +
    ||S||^2 inverse): the dense bound ||S||^2 lambda_max((A + B)^+) read off
    the split's own factors.  The growth of Y over ||S|| in the elimination
    is not bounded a priori; it is left to ``roundoff``'s dimension factor.
    Sigma itself must clear -roundoff(n, ||S||).
    """
    require_same_dim(a, b)
    big, small = (a, b) if a.norm >= b.norm else (b, a)
    dec = eig_hermitian(big, tol)
    lam = dec.eigenvalues[tol.support(dec.eigenvalues)]
    st = _rotated(dec.vectors, small.entries)
    solved, schur = _schur(lam, st)
    w, v, _ = _eigh(schur)
    _require_above(w, roundoff(a.dim, small.norm), "Schur complement")
    # w descends, so the kept directions lead; the dropped ones lead the turn
    q = int(np.count_nonzero(tol.support(w, small.norm)))
    kept = v[:, :q]
    t = _term(st, solved, lambda rhs: (kept / w[:q]) @ (kept.conj().T @ rhs), v[:, q:])
    inverse = max(1.0 / lam[-1] if lam.size else 0.0, 1.0 / w[q - 1] if q else 0.0)
    noise = roundoff(a.dim, a.norm + b.norm + small.norm + small.norm * (small.norm * inverse))
    c, vc, _ = _eigh(t / 2.0 + t.conj().T / 2.0)
    _require_above(c, noise, "parallel sum")
    # Q1 V, with U0 W0 taken from the whole turned kernel basis U0 [W0 | W+]
    u, r = dec.vectors, lam.size
    lifted = np.hstack([u[:, :r], (u[:, r:] @ np.roll(v, -q, axis=1))[:, :c.size - r]]) @ vc
    return psd_by_construction((lifted * np.clip(c, 0.0, None)) @ lifted.conj().T, tol)


def variational_value(
    a: PsdMatrix,
    b: PsdMatrix,
    x,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Evaluate inf over y of <A(x-y), x-y> + <By, y> by conjugate gradients.

    The objective is a convex quadratic with gradient 2((A + B) y - A x), so
    its infimum is attained where (A + B) y = A x, a consistent system since
    ran A lies in ran(A + B).  Conjugate gradients (Hestenes & Stiefel 1952)
    solve it over complex vectors from y = 0 in one pass of at most
    ``_CG_STEPS_PER_DIM * n`` steps; the objective is then evaluated at the
    final y.  Starting from zero keeps every iterate in the Krylov space of
    A x, inside ran(A + B); a restart would pick up kernel components from
    round-off.  The method uses only matrix-vector products, no eigensolve or
    pseudoinverse, so it shares no code with `parallel_sum` and serves as an
    independent cross-check of the closed form.

    Raises NumericalError carrying the best value found if the gradient at
    the final y is not stationary at 1e-6 * (1 + |f(0)|).
    """
    require_same_dim(a, b)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != a.dim:
        raise ValueError(f"vector length {x.shape[0]} does not match dimension {a.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    n = a.dim
    if n == 0:
        return 0.0
    # exact power-of-two scaling (capped at 2^1000), undone below, keeps squared norms finite
    ea = min(-math.frexp(max(a.norm, b.norm))[1], 1000)
    ex = min(-math.frexp(_frobenius(x))[1], 1000)
    am, bm, x = a.entries * 2.0**ea, b.entries * 2.0**ea, x * 2.0**ex
    m = am + bm
    target = am @ x
    y = np.zeros(n, dtype=np.complex128)
    r = target.copy()
    p = r.copy()
    rr = float(np.vdot(r, r).real)
    # the residual a one-pass solve can reach in floating point
    floor = n * np.finfo(float).eps * _frobenius(target)
    for _ in range(_CG_STEPS_PER_DIM * n):
        if rr <= floor**2:
            break
        mp = m @ p
        curvature = float(np.vdot(p, mp).real)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        y += alpha * p
        r -= alpha * mp
        rr, previous = float(np.vdot(r, r).real), rr
        p = r + (rr / previous) * p
    rest = x - y
    value = math.ldexp(float(np.real(np.vdot(rest, am @ rest) + np.vdot(y, bm @ y))), -ea - 2 * ex)
    scale = 1.0 + math.ldexp(abs(float(np.vdot(x, target).real)), -ea - 2 * ex)
    grad_norm = math.ldexp(2.0 * _frobenius(m @ y - target), -ea - ex)
    if grad_norm > 1e-6 * scale:
        raise NumericalError(
            f"variational minimizer did not reach a stationary point "
            f"(gradient {grad_norm:.3e}); best value found {value!r}",
            residual=grad_norm,
        )
    return value


@dataclass(frozen=True)
class AndoLimitResult:
    """Limit of the doubling schedule (2^k A) : B.

    ac_part: the absolutely continuous part of B, settled into [0, B]: the
        Romberg-extrapolated limit when the table settled first, otherwise
        the last term of the schedule.
    terms_used: number of doubling terms (2^k A) : B evaluated along the
        schedule, from the first certified one, at most
        ``ANDO_MAX_DOUBLINGS + 1``; one when A has no kept eigenvalue and
        every term is zero.
    final_increment: the last change of the table's diagonal (Frobenius
        norm) when the extrapolated limit is returned, otherwise the trace
        increment between the last two terms.
    converged: False when the schedule ended (its last exponent k0 +
        ``ANDO_MAX_DOUBLINGS``, drop guard or resolution stop) before either
        stopping rule was met.
    sing_part: the singular part B - ac_part, as the settle leaves it: the
        rotation back of its clipped complement C on M = ran A + U0 V0,
        plus the Gram product K K* read off the factorization of B's block
        on ker A (see ``ando_ac_part``), so PSD by construction (all of B
        when A has no kept eigenvalue).
    """

    ac_part: PsdMatrix
    terms_used: int
    final_increment: float
    converged: bool
    sing_part: PsdMatrix


@functools.cache
def _richardson_weights() -> np.ndarray:
    """Row k: the weights by which Romberg's diagonal entry R[k][k] combines
    the doubling terms T_0..T_k, zero past k, for k up to
    ``ANDO_MAX_DOUBLINGS``, with terms counted from the schedule's first.

    Romberg's table, R[k][0] = T_k and R[k][m] = (2^m R[k][m-1] -
    R[k-1][m-1]) / (2^m - 1), is Neville's scheme for the polynomial in x
    through the points (2^-j, T_j), evaluated at x = 0.  So its diagonal is
    the Lagrange extrapolation R[k][k] = sum_j T_j prod_{i <= k, i != j}
    1 / (1 - 2^(i - j)).  Each row sums to one, and is scaled to do so in
    floating point: the terms are close to their limit L, so a row's sum
    error would move the combination by that error times L.
    """
    i = np.arange(ANDO_MAX_DOUBLINGS + 1)
    step = i[:, None] - i[None, :]
    factors = np.divide(1.0, 1.0 - 2.0**step, out=np.ones(step.shape), where=step != 0)
    weights = np.tril(np.cumprod(factors, axis=0))
    weights /= weights.sum(axis=1, keepdims=True)
    weights.flags.writeable = False
    return weights


def _combine(weights: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    """sum_j weights[j] terms[j] over the stored terms."""
    total = weights[0] * terms[0]
    for weight, term in zip(weights[1:len(terms)], terms[1:]):
        total += weight * term
    return total


def ando_ac_part(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> AndoLimitResult:
    """Increasing limit of (n A) : B along n = 2^k from k0, extrapolated.

    The limit is the maximal part of B absolutely continuous with respect to
    A, the short of B to ran A (Anderson & Trapp 1975).  The schedule runs
    in A's own eigenbasis U = [U1 | U0] (kept | rest), with Lam the kept
    eigenvalues: B is rotated once to Bt = U* B U.  A reference with no kept
    eigenvalue makes every term zero, and a B with a negative trace is zero
    up to round-off (a route's ac part of a singular pair can be one); either
    way all of B is singular.

    One schedule.  B's block on ker A is factored once, Bt00 = V diag(s) V*,
    and the pseudoinverse's rule ``tol.support(s, ||B||)`` splits V into the
    kept V+ and the sub-cutoff V0; with G = Bt10 V, every term is S - S (D_k
    + S)^-1 S on ran A + U0 V+, with S = [[Bt11, G+], [G+*, diag(s+)]] and
    D_k = 2^k Lam on the kept block, evaluated by ``parallel_sum``'s
    elimination (``_schur``, then ``_term``) and kept as its Hermitian part.
    The rank decision is taken on Bt00, not on a Schur complement: Sigma_k =
    diag(s+) - G+* h_k^-1 G+, with h_k = 2^k Lam + Bt11, only grows with k,
    so a direction under the cutoff at k = 0 can clear it later.  For the
    same reason the schedule starts at the first k >= k0 at which
    ``cholesky(Sigma_k - 2 e I)`` succeeds, e = roundoff(n, ||B||) the
    round-off bound of a computed Sigma_k: that one test certifies every
    later term, and the certifying solve is the first term's.  From there
    every term takes one LU of h_k and one of Sigma_k, with no eigensolve,
    and since T_k vanishes off ran A, every term is formed and extrapolated
    as its r x r kept block.  If no k <= k0 + ``ANDO_MAX_DOUBLINGS``
    certifies, NumericalError names the doubling limit.

    The window.  The expansion below holds once 2^k Lam exceeds ||B||, so
    the schedule starts at k0 = ceil(log2 ||B||_F - log2 lambda_min), with
    lambda_min = Lam's smallest entry (k0 = 0 when B = 0; k0 may be
    negative), the difference of the logs standing for a ratio that could
    overflow or underflow, and it evaluates at most ``ANDO_MAX_DOUBLINGS +
    1`` terms from there.  D_k = 2^k Lam is formed by ``np.ldexp``, exactly.
    So A -> 4^m A only shifts k0 by 2m, and B -> 4^m B scales every term,
    threshold and guard by 4^m: the result is bitwise invariant under the
    first and bitwise covariant under the second (4^m keeps the square
    roots of the settle exact as well).

    The settle.  The limit X lies in [0, Bt] on ran A.  It is settled by
    one clip round of ``_settle`` on M = ran A + U0 V0, lifted as [[X,
    G0], [G0*, diag(s0)]], into [0, Shat_M] with Shat_M = [[Bt11 - G+ s+^-1
    G+*, G0], [G0*, diag(s0)]], the Schur complement of Bt onto M: for X on
    M, 0 <= X <= Bt exactly when 0 <= X <= Shat_M, since s+ > 0.  So B's
    sub-cutoff mass, which the kept blocks do not carry, lands in the
    absolutely continuous part.  With C = Shat_M - X, Bt - X = C + K K* for
    K = U1 G+ s+^-1/2 + U0 V+ s+^1/2, so the singular part U_M C U_M* + K K*
    is a sum of Gram products.  The settle's slack scale stays ||Bt||.
    Shat_M bounds the settle only: the terms never read it, since (2^k Lam)
    : Shat tends to Shat itself, the oracle's formula, and the route would
    no longer be independent.

    ``(tA) : B`` is a rational function of s = 1/t, analytic at 0, so the
    terms expand as T_k = L + c_1 2^-k + c_2 4^-k + ...  Romberg's table
    (Romberg 1955) cancels those error terms order by order.  Only its
    diagonal is read, and R[k][k] is a fixed combination of T_0..T_k
    (``_richardson_weights``), which depends only on the ratio 1/2 of the
    points, so the table starts at the first certified term.  The terms
    are stored, at most ``terms_used`` arrays, and each change of the
    diagonal is the combination by the difference of two weight rows.
    The schedule stops at the first of two rules, each with stopping
    threshold ``iter_tol`` times trace B:

    - two consecutive changes of the table's diagonal, ||R[k][k] -
      R[k-1][k-1]||_F, are both at most the threshold: the diagonal is
      returned, converged;
    - the plain trace increment of T_k is at most the threshold: T_k is
      returned, converged.

    Two float guards on the plain trace increments can end the schedule
    before its last exponent, and then the last clean term is returned
    unconverged, as on reaching that exponent.  Both compare with the
    round-off scale of a step, 8 roundoff(n, 2 ||B||): every T_k lies in
    [0, Bt11], and from k0 on h_k is at least about ||B|| I, so the solve's
    rounding reaches T_k at the scale ||B||, and an increment is the
    difference of two terms.  The trace sequence is increasing, so a drop
    beyond that scale certifies that the scaled step has degraded.  And
    once increments fall below it, further doubling resolves nothing.  An
    early stop without reaching either target is reported via the
    ``converged`` flag, never silently.
    """
    require_same_dim(a, b)
    dec = eig_hermitian(a, tol)
    keep = tol.support(dec.eigenvalues)
    if not keep.any() or b.trace < 0.0:
        return AndoLimitResult(PsdMatrix.zero(b.dim), 1, 0.0, True, b)
    # the kept eigenvalues lead, so U = [U1 | U0] is the factorization's own
    lam = dec.eigenvalues[keep]
    r = lam.size
    u = dec.vectors
    bt = _rotated(u, b.entries)
    # B's block on ker A is V diag(s) V*, s descending; the pseudoinverse's
    # cutoff keeps its leading p directions, V+
    s, v, _ = _eigh(bt[r:, r:])
    p = int(np.count_nonzero(tol.support(s, b.norm)))
    g = bt[:r, r:] @ v
    st = np.block([[bt[:r, :r], g[:, :p]], [g[:, :p].conj().T, np.diag(s[:p])]])
    e = roundoff(b.dim, b.norm)
    # the series in 2^-k holds once 2^k lambda_min,kept(A) exceeds ||B||; the
    # difference of the logs cannot overflow or underflow as their ratio can
    k0 = math.ceil(math.log2(b.norm) - math.log2(lam[-1])) if b.norm > 0.0 else 0
    stop = k0 + ANDO_MAX_DOUBLINGS + 1
    # Sigma_k only grows with k, so the first one that clears 2 e certifies
    # every later term
    for start in range(k0, stop):
        first = _schur(np.ldexp(lam, start), st)
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(first[1] - 2.0 * e * np.eye(p))
            break
    else:
        raise NumericalError(f"doubling limit: no Schur complement cleared 2 e by 2^{start}")
    no_columns = np.zeros((p, 0))
    current = _term(st, first[0], functools.partial(np.linalg.solve, first[1]), no_columns)
    threshold = tol.iter_tol * b.trace
    increment = 0.0
    converged = False
    terms = [current]
    change = np.inf
    extrapolated = None
    # Increments below the arithmetic resolution of a step carry no signal:
    # every term sits at the scale ||B||, so that resolution is flat in k
    step_noise = 8.0 * roundoff(b.dim, 2.0 * b.norm)
    for k in range(start + 1, stop):
        solved, schur = _schur(np.ldexp(lam, k), st)
        nxt = _term(st, solved, functools.partial(np.linalg.solve, schur), no_columns)
        raw = float(np.trace(nxt).real) - float(np.trace(current).real)
        if raw < -step_noise:
            # the sequence is increasing, so a genuine drop certifies that the
            # scaled step degraded; keep the last clean term
            break
        increment = max(raw, 0.0)
        current = nxt
        terms.append(current)
        if increment <= threshold:
            converged = True
            break
        # Romberg's rows for the terms T_start..T_k
        weights = _richardson_weights()[k - start - 1:]
        previous_change = change
        change = _frobenius(_combine(weights[1] - weights[0], terms))
        if max(previous_change, change) <= threshold:
            converged, increment, extrapolated = True, change, _combine(weights[1], terms)
            break
        if increment <= step_noise:
            break
    if extrapolated is None:
        limit, noise = current, step_noise
    else:
        limit, noise = extrapolated, _ROMBERG_GROWTH * step_noise
    # The limit X sits on ran A inside [0, Bt]; round-off can push it
    # slightly outside, so settle it back (which validates it) on M = ran A
    # + U0 V0, lifted as [[X, G0], [G0*, diag(s0)]], into [0, Shat_M] with
    # Shat_M = [[Bt11 - W W*, G0], [G0*, diag(s0)]] and W = G+ s+^-1/2.
    # Then Bt - X = (Shat_M - X) + K K* for K = U1 W + U0 V+ s+^1/2.
    budget = 1e4 * max(noise, threshold)
    w = g[:, :p] / np.sqrt(s[:p])
    upper = np.block([[bt[:r, :r] - w @ w.conj().T, g[:, p:]],
                      [g[:, p:].conj().T, np.diag(s[p:])]])
    upper = upper / 2.0 + upper.conj().T / 2.0
    x = upper.copy()
    x[:r, :r] = limit
    settled, complement = _settle(x, upper, budget, _frobenius(bt), tol, "doubling limit")
    basis = np.hstack([u[:, :r], u[:, r:] @ v[:, p:]])
    k = u[:, :r] @ w + (u[:, r:] @ v[:, :p]) * np.sqrt(s[:p])
    ac = basis @ settled @ basis.conj().T
    sing = basis @ complement @ basis.conj().T + k @ k.conj().T
    return AndoLimitResult(psd_by_construction(ac, tol), len(terms), increment, converged,
                           psd_by_construction(sing, tol))


def spectral_ac_of_contraction(bt: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Strip the eigenvalue-one subspace from a positive contraction.

    Applies t -> t on [0, 1) and 1 -> 0 to the spectrum; eigenvalues within
    ``rank_rtol`` of one count as one.  The result is the absolutely
    continuous part of the contraction with respect to its complement to the
    identity.
    """
    w = eig_hermitian(bt, tol).eigenvalues
    if w.size:
        low, high = float(w[-1]), float(w[0])
        if low < -tol.psd_slack or high > 1.0 + tol.psd_slack:
            raise ValueError(
                f"not a positive contraction: eigenvalues span [{low:.3e}, {high:.3e}]"
            )
    clipped = np.clip(w, 0.0, 1.0)
    mapped = np.where(clipped >= 1.0 - tol.rank_rtol, 0.0, clipped)
    return spectral_map(bt, mapped, tol)
