"""Shared random generators for the test suite."""

from __future__ import annotations

import numpy as np

from oplebesgue import Functional, PsdMatrix, StarAlgebra


def random_unitary(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_psd(rng, dim, rank=None, ratio=1e3, scale=1.0):
    """Random complex PSD matrix with `rank` nonzero eigenvalues.

    Nonzero eigenvalues are log-uniform in [scale/ratio, scale], so the
    eigenvalue spread never exceeds `ratio`.
    """
    if rank is None:
        rank = dim
    if rank == 0:
        return PsdMatrix.zero(dim)
    q = random_unitary(rng, dim)
    lam = np.zeros(dim)
    lam[:rank] = scale * np.exp(rng.uniform(np.log(1.0 / ratio), 0.0, size=rank))
    m = (q * lam) @ q.conj().T
    return PsdMatrix((m + m.conj().T) / 2.0)


def hostile_functional(rng, dims, spread, block_scales):
    """Rank-deficient densities with eigenvalue spread ``spread`` inside each
    block and block scales ``block_scales`` across them."""
    densities = []
    for n, scale in zip(dims, block_scales):
        rank = int(rng.integers(1, n + 1))
        densities.append(random_psd(rng, n, rank=rank, ratio=spread, scale=scale))
    return Functional(StarAlgebra(dims), tuple(densities))


def random_pair(rng, max_dim=12, ratio=1e3):
    """Random (A, B) pair with uniformly drawn ranks, as used everywhere."""
    dim = int(rng.integers(1, max_dim + 1))
    ra = int(rng.integers(0, dim + 1))
    rb = int(rng.integers(0, dim + 1))
    return random_psd(rng, dim, ra, ratio), random_psd(rng, dim, rb, ratio)


def contraction_spectrum(rng, dim, unit_eigs=0):
    """Eigenvectors Q and eigenvalues in [0, 1] of ``random_contraction``'s draw."""
    q = random_unitary(rng, dim)
    lam = rng.uniform(0.0, 1.0, size=dim)
    lam[:unit_eigs] = 1.0
    return q, lam


def psd_from_spectrum(q, lam):
    """The PSD matrix Q diag(lam) Q*, as its Hermitian part."""
    m = (q * lam) @ q.conj().T
    return PsdMatrix((m + m.conj().T) / 2.0)


def random_contraction(rng, dim, unit_eigs=0):
    """Random positive contraction, optionally with eigenvalues pinned at one."""
    return psd_from_spectrum(*contraction_spectrum(rng, dim, unit_eigs))


def _svd_pinv(m, cutoff):
    """Pseudoinverse from numpy's SVD, dropping singular values <= cutoff."""
    u, s, vh = np.linalg.svd(m)
    keep = s > cutoff
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def schur_parallel_sum(a, b, rtol=1e-10):
    """A : B as the Schur complement A - A (A + B)^+ A of [[A, A], [A, A + B]].

    An oracle that shares no code with the package: numpy's SVD only, the
    pseudoinverse dropping singular values at most ``rtol`` times the
    largest of A + B.
    """
    a, b = np.asarray(a), np.asarray(b)
    m = a + b
    cutoff = rtol * np.linalg.norm(m, 2) if m.size else 0.0
    out = a - a @ _svd_pinv(m, cutoff) @ a
    return (out + out.conj().T) / 2.0


def anderson_trapp_ac(a, b, rtol=1e-10):
    """Absolutely continuous part of B relative to A as the Anderson-Trapp short.

    An oracle that shares no code with the package: numpy's SVD only.  The
    ac part is the short of B to ran A (Anderson & Trapp 1975, "Shorted
    operators II"; Ando 1976).  In an orthonormal basis [Q, P] of ran A and
    its complement it is Q (B11 - B12 B22^+ B21) Q*.  Rank decisions drop
    singular values at most ``rtol`` times the largest, of B for the
    pseudoinverse of B22.  Ran A is judged as ``Tolerances.support`` judges
    an eigenvalue: a left singular vector u counts when A is positive on it,
    Re(u* A u) > 0, and its singular value exceeds ``rtol`` times the largest
    such value, so that negative mass accepted within the PSD slack is no
    range.
    """
    a, b = np.asarray(a), np.asarray(b)
    u, s, _ = np.linalg.svd(a)
    positive = np.real(np.sum(u.conj() * (a @ u), axis=0)) > 0.0
    keep = positive & (s > rtol * np.max(s[positive], initial=0.0))
    q, p = u[:, keep], u[:, ~keep]
    b12 = q.conj().T @ b @ p
    b22 = p.conj().T @ b @ p
    cutoff = rtol * np.linalg.norm(b, 2) if b.size else 0.0
    short = q.conj().T @ b @ q - b12 @ _svd_pinv(b22, cutoff) @ b12.conj().T
    out = q @ short @ q.conj().T
    return (out + out.conj().T) / 2.0


def reference_components(linked):
    """Connected components of a symmetric boolean adjacency, each as an
    ascending list, in order of their smallest index: a plain breadth-first
    search over Python lists, sharing no code with the package."""
    n = len(linked)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, component = [start], []
        while queue:
            i = queue.pop(0)
            component.append(i)
            for j in range(n):
                if linked[i][j] and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        components.append(sorted(component))
    return components


def reference_blocks(h):
    """``core._blocks`` by ``reference_components``: i and j linked when
    h[i, j] or h[j, i] is nonzero."""
    nonzero = (np.asarray(h) != 0).tolist()
    n = len(nonzero)
    return reference_components([[nonzero[i][j] or nonzero[j][i] for j in range(n)]
                                 for i in range(n)])


def reference_svd_blocks(m):
    """``core._svd_blocks`` by ``reference_components`` on the bipartite
    graph of rows 0..r-1 and columns r..r+c-1, row i and column j linked
    when m[i, j] is nonzero."""
    nonzero = (np.asarray(m) != 0).tolist()
    r, c = np.shape(m)
    linked = [[False] * (r + c) for _ in range(r + c)]
    for i in range(r):
        for j in range(c):
            linked[i][r + j] = linked[r + j][i] = nonzero[i][j]
    return [([k for k in comp if k < r], [k - r for k in comp if k >= r])
            for comp in reference_components(linked)]
