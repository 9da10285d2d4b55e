"""Reference values that share no code with the package under test.

Everything here uses plain numpy and the SVD: no eigendecomposition, no
package import.  The Lebesgue decomposition reference is the Anderson-Trapp
shorted operator: the absolutely continuous part of B with respect to A is
the short of B to ran A (Anderson & Trapp 1975, "Shorted operators II";
Ando 1976), evaluated as a Schur complement in an orthonormal basis of ran A.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff for rank decisions; the generated inputs
# keep every nonzero singular value many orders above it.
RANK_RTOL = 1e-10


def range_split(m: np.ndarray, rtol: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (Q, P) of ran M and of its orthogonal complement."""
    u, s, _ = np.linalg.svd(m)
    rank = int(np.count_nonzero(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank], u[:, rank:]


def pinv(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse from the SVD with a relative cutoff."""
    if m.size == 0:
        return m.conj().T
    u, s, vh = np.linalg.svd(m)
    inv = np.zeros_like(s)
    keep = s > rtol * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    inv[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv) @ u.conj().T


def rank(m: np.ndarray, rtol: float = RANK_RTOL) -> int:
    return range_split(m, rtol)[0].shape[1]


def short(b: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Anderson-Trapp short of B to span(Q), with P spanning the complement.

    In the basis [Q, P], B = [[B11, B12], [B21, B22]] and the short is
    B11 - B12 B22^+ B21 placed on span(Q).
    """
    b11 = q.conj().T @ b @ q
    b12 = q.conj().T @ b @ p
    b22 = p.conj().T @ b @ p
    s = b11 - b12 @ pinv(b22) @ b12.conj().T
    out = q @ s @ q.conj().T
    return (out + out.conj().T) / 2.0


def lebesgue_parts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ac, sing) of B relative to A: ac is the short of B to ran A."""
    q, p = range_split(a)
    ac = short(b, q, p)
    return ac, b - ac


def parallel_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A : B = A - A (A + B)^+ A, with the pseudoinverse from the SVD."""
    out = a - a @ pinv(a + b) @ a
    return (out + out.conj().T) / 2.0


def functional_value(densities, blocks) -> complex:
    """w(a) = sum_k tr(rho_k a_k) for a block-density functional."""
    return complex(sum(np.trace(rho @ blk) for rho, blk in zip(densities, blocks)))


def close(x: np.ndarray, ref: np.ndarray, rtol: float) -> bool:
    """Frobenius distance within ``rtol * (1 + ||ref||_F)``."""
    x = np.asarray(x)
    if x.shape != ref.shape:
        return False
    return float(np.linalg.norm(x - ref)) <= rtol * (1.0 + float(np.linalg.norm(ref)))
