"""Complex Hermitian PSD kernel: eigendecomposition, pseudoinverse, projections, Loewner order."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "EigenDecomposition",
    "NumericalError",
    "PsdMatrix",
    "Tolerances",
    "eig_hermitian",
    "loewner_leq",
    "pinv",
    "range_projection",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract.

    Carries the offending residual when one is available, so callers can
    report how far the computation was from its guarantee.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


def as_count(value, least: int, what: str) -> int:
    """``value`` as a Python int of at least ``least``: an int or a numpy
    integer, never a bool, nor a float that a cast would silently truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """A Python or numpy integer or float, never a bool (numpy's included)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every operation in the package.

    rank_rtol: relative eigenvalue cutoff for rank decisions (an eigenvalue
        counts as zero when it is at most ``rank_rtol`` times the largest).
    psd_slack: additive slack, scaled by matrix norm, for positivity and
        Loewner-order comparisons.
    iter_tol: stopping tolerance for iterative limits (trace increments).
    max_iter: cap on fixed-point iteration steps.
    recon_tol: tolerance for reconstruction and consistency residuals.
    """

    rank_rtol: float = 1e-10
    psd_slack: float = 1e-10
    iter_tol: float = 1e-10
    max_iter: int = 10**6
    recon_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rtol", "psd_slack", "iter_tol", "recon_tol"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r} of type "
                                 f"{type(value).__name__}")
            # a numpy scalar is compared as a Python float, and a Python int
            # beyond the float range is no more finite than inf
            number = float(value) if isinstance(value, np.generic) else value
            if not 0 < number <= sys.float_info.max:
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
            object.__setattr__(self, name, float(number))
        object.__setattr__(self, "max_iter", as_count(self.max_iter, 1, "max_iter"))

    def support(self, eigenvalues: np.ndarray, reference: float = 0.0) -> np.ndarray:
        """True where an eigenvalue counts as nonzero: above ``rank_rtol`` times
        the largest or ``reference``, whichever is larger (none if both <= 0)."""
        if eigenvalues.size == 0:
            return np.zeros(0, dtype=bool)
        return eigenvalues > self.rank_rtol * max(float(np.max(eigenvalues)), reference, 0.0)


DEFAULT_TOL = Tolerances()


class PsdMatrix:
    """Immutable complex Hermitian positive semidefinite matrix.

    Input is averaged with its conjugate transpose once the stored asymmetry
    is verified to be within ``recon_tol``; eigenvalues may dip below zero by
    at most ``psd_slack * (1 + max |eigenvalue|)``.  Real input is embedded
    with zero imaginary parts.  The constructor judges that slack on the
    eigenvalues of one ``eigh`` and keeps that eigendecomposition, so the
    matrix is factored at most once; its norm is kept once first read.  An
    eigenvalue below -roundoff(n, ||M||), accepted only by the slack, is
    settled there: the matrix is rebuilt from that factorization with its
    spectrum clipped at zero, so a validated matrix is PSD up to round-off.
    Input with no such eigenvalue keeps its entries bitwise.
    """

    __slots__ = ("_entries", "_factored", "_norm")

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOL):
        h = _hermitian_part(entries, tol)
        factored = _factor(h)
        w = factored.dec.eigenvalues
        _require_psd(w, tol)
        # ||w|| is ||M||_F, read off the spectrum
        if w.size and w[-1] < -roundoff(w.size, _frobenius(w)):
            settled = _from_spectrum(np.clip(w, 0.0, None), factored.dec.vectors,
                                     factored.ortho, tol)
            h, factored = settled._entries, settled._factored
        h.flags.writeable = False
        self._entries = h
        self._factored = factored
        self._norm = None

    @classmethod
    def _checked(cls, h: np.ndarray, factored: _Factorization | None) -> PsdMatrix:
        """Wrap a validated Hermitian array together with its factorization
        (None leaves it to the first ``eig_hermitian``)."""
        obj = cls.__new__(cls)
        h.flags.writeable = False
        obj._entries = h
        obj._factored = factored
        obj._norm = None
        return obj

    def _factorization(self) -> _Factorization:
        if self._factored is None:
            self._factored = _factor(self._entries)
        return self._factored

    @classmethod
    def zero(cls, dim: int) -> PsdMatrix:
        return cls(np.zeros((dim, dim)))

    @classmethod
    def identity(cls, dim: int) -> PsdMatrix:
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The stored Hermitian array (read-only view)."""
        return self._entries

    @property
    def trace(self) -> float:
        return float(np.trace(self._entries).real)

    @property
    def norm(self) -> float:
        """Frobenius norm, computed on first use and kept."""
        if self._norm is None:
            self._norm = _frobenius(self._entries)
        return self._norm

    def __add__(self, other: PsdMatrix) -> PsdMatrix:
        if not isinstance(other, PsdMatrix):
            return NotImplemented
        require_same_dim(self, other)
        return PsdMatrix(self._entries + other._entries)

    # numpy defers its operators to ours, so np.float64(2) * m reaches
    # __rmul__ and is validated like 2.0 * m; ndarray + m raises TypeError
    __array_ufunc__ = None

    def __mul__(self, scalar) -> PsdMatrix:
        if not _is_real(scalar):
            return NotImplemented
        if scalar < 0:
            raise ValueError("scaling a PSD matrix requires a nonnegative factor")
        return PsdMatrix(self._entries * scalar)

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None):
        """The entries: a fresh writeable array when ``copy`` is True, else
        the read-only view.  Any ``dtype`` but complex128 needs a cast, so it
        gets a fresh array, and raises ValueError when ``copy`` is False."""
        if dtype is None or np.dtype(dtype) == np.complex128:
            return self._entries.copy() if copy else self._entries
        if copy is False:
            raise ValueError(f"a {np.dtype(dtype)} array of complex128 entries needs a copy")
        return self._entries.astype(dtype)

    def __repr__(self):
        return f"PsdMatrix(dim={self.dim}, trace={self.trace:.6g})"


def require_same_dim(a: PsdMatrix, b: PsdMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization M = V diag(w) V* with w sorted descending."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for arr in (self.eigenvalues, self.vectors):
            arr.flags.writeable = False


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a float64 or complex128 array.

    In range it is ``float(numpy.linalg.norm(m))`` bitwise, from numpy's own
    arithmetic without the dispatch of ``norm``: the dot products x.x of the
    real and imaginary parts of ``m.ravel(order="K")``, added as Python
    floats, and one correctly rounded square root.  ``vdot`` runs the same
    dot loop as ``ndarray.dot`` on real input but raises no floating-point
    warning, and Python floats overflow to inf silently, so no ``errstate``
    is needed.  Squaring overflows above about 1.3e154 and loses precision
    below about 1e-150 (reading 0 below about 1e-162); only then are the
    real and imaginary parts rescaled by the power of two that brings
    max |entry| into [1/2, 1).  A non-finite entry makes the norm non-finite."""
    x = m.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        norm = math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
    else:
        norm = math.sqrt(float(np.vdot(x, x)))
    if 1e-150 <= norm < math.inf or not m.size:
        return norm
    with np.errstate(over="ignore"):
        parts = (m.real, m.imag) if np.iscomplexobj(m) else (m,)
        top = max(float(np.max(np.abs(p))) for p in parts)
        if top == 0.0:
            return 0.0
        e = math.frexp(top)[1]
        return float(np.ldexp(math.hypot(*(np.linalg.norm(np.ldexp(p, -e)) for p in parts)), e))


def _hermitian_part(entries, tol: Tolerances) -> np.ndarray:
    """Square, finite, Hermitian within ``recon_tol``: the averaged array
    m/2 + m*/2, which cannot overflow."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    norm = _frobenius(m)
    # a finite norm has finite entries; one that is not may still come from
    # finite entries whose norm overflows, so only then are they scanned
    if not norm < math.inf and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    half = m / 2.0
    # one contiguous adjoint, written in one pass, serves both the check and
    # the average
    adjoint = np.conjugate(half.T, out=np.empty_like(half))
    scale = 1.0 + norm
    asym = 2.0 * _frobenius(half - adjoint)
    if asym > tol.recon_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{tol.recon_tol * scale:.3e}"
        )
    half += adjoint
    return half


def _require_psd(eigenvalues: np.ndarray, tol: Tolerances) -> None:
    """Positivity within the slack, judged on the matrix's eigenvalues in
    descending order: the smallest is the last, the largest in modulus the
    first or the last."""
    if eigenvalues.size == 0:
        return
    smallest = float(eigenvalues[-1])
    largest = max(float(eigenvalues[0]), -smallest)
    if smallest < -tol.psd_slack * (1.0 + largest):
        raise ValueError(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{smallest:.3e} below slack {-tol.psd_slack * (1.0 + largest):.3e}"
        )


def roundoff(dim: int, scale: float) -> float:
    """Round-off bound of a dense size-``dim`` computation on inputs of norm ``scale``."""
    return 256.0 * max(dim, 1) * np.finfo(float).eps * scale


def gram_roundoff(dim: int, mass: float) -> float:
    """Bound on the Frobenius distance of V diag(d) V*, formed in floating
    point as ``(V * d) @ V*`` over ``dim`` columns and averaged with its
    adjoint, from the exact product, where ``mass`` is sum_j |d_j| ||v_j||^2
    (the trace when d >= 0).  Each entry errs by at most gamma_(dim+4) times
    the same entry of |V| |diag(d)| |V|^T (complex inner products, Higham
    2002, sec. 3.1 and 3.6), whose Frobenius norm is at most ``mass``; the
    bound is twice that, so that a computed trace or an unscaled sum |d_j|
    may stand for the mass of a nearly unitary V."""
    return (max(dim, 1) + 4) * np.finfo(float).eps * mass


def psd_difference(x: PsdMatrix, y: PsdMatrix, noise: float, context: str,
                   tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """X - Y for a derived Y <= X, validated on its own ``eigh`` against
    ``noise``, the round-off of the computations that derived Y at the scale
    of their inputs (not 1 + its own); below ``-noise``, ``context`` failed.
    The difference keeps the factorization it was judged on."""
    h = _hermitian_part(x.entries - y.entries, tol)
    factored = _factor(h)
    _require_above(factored.dec.eigenvalues, noise, context)
    return PsdMatrix._checked(h, factored)


def _components(linked: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a symmetric boolean
    adjacency, each ascending, in order of their smallest index: a
    breadth-first search that reads each row once, O(n^2) with one
    Python-level search per component.  The fallback of ``_blocks`` and
    ``_svd_blocks`` for a pattern whose components are not all cliques."""
    n = linked.shape[0]
    unseen = np.ones(n, dtype=bool)
    blocks = []
    for start in range(n):
        if not unseen[start]:
            continue
        member = np.zeros(n, dtype=bool)
        member[start] = True
        frontier = member
        while frontier.any():
            reached = linked[frontier].any(axis=0) & ~member
            member |= reached
            frontier = reached
        unseen &= ~member
        blocks.append(np.flatnonzero(member))
    return blocks


def _classes(labels: np.ndarray) -> list[np.ndarray]:
    """Index sets of equal labels, each ascending, in ascending order of label."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    return [order[a:b] for a, b in zip([0, *cuts], [*cuts, order.size])]


def _blocks(h: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of h's exact nonzero pattern
    (i and j linked when h[i, j] or h[j, i] is nonzero), each ascending, in
    order of their smallest index.

    A matrix whose row 0 has no zero off the diagonal is one component,
    found without reading the rest.  Otherwise an exact clique test runs in
    O(n^2) time and memory: label each index by the first index it is linked
    to (itself included); the components are all cliques exactly when i and
    j are linked iff their labels agree, and then they are the classes of
    equal label, the label being a class's smallest index.  Any other
    pattern falls back to ``_components``."""
    n = h.shape[0]
    if n < 2 or h[0, 1:].all():
        return [np.arange(n)]
    linked = h != 0
    linked |= linked.T
    linked.flat[::n + 1] = True
    first = linked.argmax(axis=1)
    if np.array_equal(linked, first[:, None] == first):
        return _classes(first)
    return _components(linked)


def _svd_blocks(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, columns) of each connected component of m's exact nonzero
    pattern, read as a bipartite graph (row i and column j linked when
    m[i, j] is nonzero), each ascending, in order of their smallest row,
    then column.  A zero row or column is a component of its own with no
    partner.  A matrix whose row 0 and column 0 have no zero is one
    component.

    Otherwise an exact biclique test runs in O(rc) time and memory: label a
    column by the first row it meets, a row by the label of its first
    column, and a zero row or column by an index of its own (row i by i,
    column j by r + j).  Every component is complete bipartite exactly when
    row i meets column j iff their labels agree, and then the components
    are the classes of equal label over the r + c rows and columns, a
    class's label being its smallest row (or r + j for a zero column).  Any
    other pattern falls back to ``_components`` on the bipartite adjacency."""
    r, c = m.shape
    if m[0].all() and m[:, 0].all():
        return [(np.arange(r), np.arange(c))]
    met = m != 0
    top = met.argmax(axis=0)
    labels = np.concatenate([np.where(met.any(axis=1), top[met.argmax(axis=1)], np.arange(r)),
                             np.where(met.any(axis=0), top, r + np.arange(c))])
    if np.array_equal(met, labels[:r, None] == labels[r:]):
        components = _classes(labels)
    else:
        linked = np.zeros((r + c, r + c), dtype=bool)
        linked[:r, r:] = met
        linked[r:, :r] = met.T
        components = _components(linked)
    return [(idx[idx < r], idx[idx >= r] - r) for idx in components]


def _svd(m: np.ndarray, full_matrices: bool):
    """numpy's (U, s, Vh), with one solver call per block of ``_svd_blocks``.

    Each block's singular vectors fill only its own rows of U and columns of
    Vh.  The paired vectors come first, in the stable descending order of
    their singular values; the blocks' null vectors follow, and s is padded
    with zeros to min(m.shape).  A matrix of one block takes exactly the
    plain call, and an empty one none (its factors are identities).
    Splitting keeps a direct sum's factors exactly block-local, so products
    of them have exact zeros between the summands.
    """
    r, c = m.shape
    dtype = np.result_type(m.dtype, float)
    if r == 0 or c == 0:
        return (np.eye(r, r if full_matrices else 0, dtype=dtype), np.zeros(0),
                np.eye(c if full_matrices else 0, c, dtype=dtype))
    blocks = _svd_blocks(m)
    try:
        if len(blocks) == 1:
            return np.linalg.svd(m, full_matrices=full_matrices)
        # a zero row or column has a unit null vector and no singular value
        parts = [np.linalg.svd(m[np.ix_(rows, cols)], full_matrices=True)
                 if rows.size and cols.size
                 else (np.eye(rows.size), np.zeros(0), np.eye(cols.size))
                 for rows, cols in blocks]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    s = np.concatenate([s for _, s, _ in parts])
    order = np.argsort(-s, kind="stable")
    # each block's paired vectors go straight to the ranks of their values
    # in ``order``, its null vectors after all paired ones, block by block
    rank = np.empty_like(order)
    rank[order] = np.arange(s.size)
    u_all, vh_all = np.zeros((r, r), dtype=dtype), np.zeros((c, c), dtype=dtype)
    at, u_at, vh_at = 0, s.size, s.size
    for (rows, cols), (u, paired, vh) in zip(blocks, parts):
        to = rank[at:at + paired.size]
        u_to = np.concatenate([to, np.arange(u_at, u_at + rows.size - paired.size)])
        vh_to = np.concatenate([to, np.arange(vh_at, vh_at + cols.size - paired.size)])
        u_all[rows[:, None], u_to] = u
        vh_all[vh_to[:, None], cols] = vh
        at += paired.size
        u_at += rows.size - paired.size
        vh_at += cols.size - paired.size
    k = min(r, c)
    s = np.concatenate([s[order], np.zeros(k - s.size)])
    if not full_matrices:
        return np.ascontiguousarray(u_all[:, :k]), s, vh_all[:k]
    return u_all, s, vh_all


class _Factorization(NamedTuple):
    """A matrix's own eigendecomposition with its Frobenius-norm residuals:
    ``recon`` = ||M - V diag(w) V*||, ``ortho`` = ||V* V - I||."""

    dec: EigenDecomposition
    recon: float
    ortho: float


def _eigh_block(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One solver call: eigenvalues descending in stable order, eigenvectors
    V in that order and ||V* V - I||."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    ascending = w.tolist()
    if all(map(operator.lt, ascending, ascending[1:])):
        # with no ties the stable order is the reversal, copied in the
        # column-major layout that the gather v[:, order] makes
        w, v = w[::-1].copy(), np.array(v[:, ::-1], order="F")
    else:
        order = np.argsort(-w, kind="stable")
        w, v = w[order], v[:, order]
    return w, v, _frobenius(v.conj().T @ v - np.eye(w.size))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues (descending, stable order), eigenvectors V and ||V* V - I||,
    with one solver call per block of ``_blocks``.  Each block's eigenvectors
    fill only its own rows of V, so V* V - I is zero between blocks and its
    norm is the root sum of squares of the blocks' own residuals.  A matrix
    of one block takes exactly the plain call, a 0 x 0 one none."""
    if h.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.result_type(h.dtype, float)), 0.0
    blocks = _blocks(h)
    if len(blocks) == 1:
        w, v, ortho = _eigh_block(h)
        return w, np.ascontiguousarray(v), ortho
    parts = [_eigh_block(h[np.ix_(idx, idx)]) for idx in blocks]
    w = np.concatenate([w for w, _, _ in parts])
    order = np.argsort(-w, kind="stable")
    # each block's eigenvectors go straight to the ranks of their values
    rank = np.empty_like(order)
    rank[order] = np.arange(w.size)
    v = np.zeros((w.size, w.size), dtype=parts[0][1].dtype)
    start = 0
    for idx, (_, block, _) in zip(blocks, parts):
        v[idx[:, None], rank[start:start + idx.size]] = block
        start += idx.size
    return w[order], v, math.hypot(*(ortho for _, _, ortho in parts))


def _factor(h: np.ndarray) -> _Factorization:
    w, v, ortho = _eigh(h)
    recon = _frobenius(h - (v * w) @ v.conj().T)
    return _Factorization(EigenDecomposition(w, v), recon, ortho)


def psd_by_construction(entries, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """A matrix that is PSD by how it was built, such as a direct sum of copies
    of validated PSD blocks or a Gram product X X*: the constructor's square,
    finiteness and Hermitian checks run, but no eigensolve, and the matrix is
    factored only if ``eig_hermitian`` is called on it."""
    return PsdMatrix._checked(_hermitian_part(entries, tol), None)


def _from_spectrum(values, vectors, ortho: float, tol: Tolerances) -> PsdMatrix:
    """V diag(values) V*, kept with that factorization: positivity is judged on
    ``values``, the product gets only the cheap Hermitian and finiteness
    checks, and the unitarity residual ``ortho`` of V is inherited."""
    listed = values.tolist()
    if all(map(operator.ge, listed, listed[1:])):
        # already in stable descending order
        w, v = np.array(values, order="C"), np.array(vectors, order="C")
    else:
        order = np.argsort(-values, kind="stable")
        w = np.ascontiguousarray(values[order])
        v = np.ascontiguousarray(vectors[:, order])
    product = (v * w) @ v.conj().T
    h = _hermitian_part(product, tol)
    _require_psd(w, tol)
    recon = _frobenius(h - product)
    return PsdMatrix._checked(h, _Factorization(EigenDecomposition(w, v), recon, ortho))


def spectral_map(m: PsdMatrix, values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """M's eigenvectors with new eigenvalues ``values`` (in the order of
    ``eig_hermitian(m).eigenvalues``), kept as the result's factorization."""
    dec = eig_hermitian(m, tol)
    return _from_spectrum(values, dec.vectors, m._factorization().ortho, tol)


def clip_psd(h: np.ndarray, noise: float, tol: Tolerances, context: str) -> PsdMatrix:
    """Factor a mathematically PSD array once and clip eigenvalues below zero
    by at most ``noise``, the backward-error scale of the computation that
    produced ``h``; anything more negative is a genuine failure of ``context``."""
    _, w, _, _, clipped = _clip(h, tol)
    _require_above(w, noise, context)
    return clipped


def _require_above(w: np.ndarray, noise: float, context: str) -> None:
    """The last of the descending eigenvalues ``w`` is at least ``-noise``;
    below it, ``context`` failed."""
    if w.size and w[-1] < -noise:
        raise NumericalError(
            f"{context} lost positivity beyond round-off ({w[-1]:.3e})",
            residual=float(-w[-1]),
        )


def _clip(h: np.ndarray, tol: Tolerances):
    """(m, w, V, ortho, C) for m = h/2 + h*/2 = V diag(w) V* from one ``eigh``
    and C its clip V diag(max(w, 0)) V*, kept with that factorization."""
    m = h / 2.0 + h.conj().T / 2.0
    w, v, ortho = _eigh(m)
    return m, w, v, ortho, _from_spectrum(np.clip(w, 0.0, None), v, ortho, tol)


def clip_psd_with_floor(h: np.ndarray, tol: Tolerances) -> tuple[PsdMatrix, float]:
    """(C, floor): C is ``clip_psd(h, inf, ...)``, bitwise, and ``floor`` a
    certified lower bound on the smallest eigenvalue of what the clip cut
    away, m - C with m = h/2 + h*/2, from the same one ``eigh``.

    With m = V diag(w) V* + E and P = V diag(min(w, 0)) V*, Weyl's inequality
    gives lambda_min(m - C) >= lambda_min(P) - ||m - C - P||_F, and
    lambda_min(P) >= min(w, 0) ||V||_2^2 with ||V||_2^2 <= 1 + ||V* V - I||_F.
    The residual is read against the computed C, so C's own rebuild
    round-off is inside it; P's rebuild round-off (``gram_roundoff``) and the
    rounding of the residual's two subtractions are subtracted as well.
    """
    m, w, v, ortho, clipped = _clip(h, tol)
    if not w.size:
        return clipped, 0.0
    neg = w < 0.0
    cut = (v[:, neg] * w[neg]) @ v[:, neg].conj().T
    residual = _frobenius(m - clipped.entries - cut)
    rounding = np.finfo(float).eps * (_frobenius(m) + clipped.norm + _frobenius(cut))
    floor = (min(float(w[-1]), 0.0) * (1.0 + ortho) - residual
             - gram_roundoff(w.size, float(-np.sum(w[neg]))) - rounding)
    return clipped, floor


def support_roots(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """R = U sqrt(lam) over the support of M = U diag(lam) U* (M = R R*), from M's kept factors."""
    dec = eig_hermitian(m, tol)
    keep = tol.support(dec.eigenvalues)
    return dec.vectors[:, keep] * np.sqrt(dec.eigenvalues[keep])


def eig_hermitian(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The descending sort is stable, so degenerate eigenvalues keep the
    eigenvector order chosen by the underlying solver (identity input yields
    the identity basis).  A matrix keeps the factorization it was validated
    on; one that is PSD by construction is factored on its first call only.
    Every call checks the stored reconstruction and unitarity residuals
    against ``tol`` and raises NumericalError carrying the residual if one
    fails.
    """
    factored = m._factorization()
    scale = 1.0 + m.norm
    if factored.recon > tol.recon_tol * scale:
        raise NumericalError(
            f"eigendecomposition reconstruction residual {factored.recon:.3e} exceeds "
            f"{tol.recon_tol * scale:.3e}",
            residual=factored.recon,
        )
    require_unitary(factored.ortho, tol)
    return factored.dec


def require_unitary(ortho: float, tol: Tolerances = DEFAULT_TOL) -> None:
    """An eigenbasis's unitarity residual ``ortho`` = ||V* V - I||_F is at
    most ``recon_tol``; above it, NumericalError carries the residual."""
    if ortho > tol.recon_tol:
        raise NumericalError(
            f"eigenvector unitarity residual {ortho:.3e} exceeds {tol.recon_tol:.3e}",
            residual=ortho,
        )


def pinv(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Moore-Penrose pseudoinverse of a PSD matrix.

    Eigenvalues at most ``rank_rtol`` times the largest are zero.
    """
    w = eig_hermitian(m, tol).eigenvalues
    keep = tol.support(w)
    return spectral_map(m, np.divide(1.0, w, out=np.zeros_like(w), where=keep), tol)


def range_projection(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Orthogonal projection onto the range of a PSD matrix (numerical rank)."""
    keep = tol.support(eig_hermitian(m, tol).eigenvalues)
    return spectral_map(m, keep.astype(float), tol)


def loewner_leq(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A is below B in the Loewner order, with norm-scaled slack.

    True iff the smallest eigenvalue of B - A, from one ``eigh``, is at
    least ``-psd_slack * (1 + ||B||_F)``.
    """
    require_same_dim(a, b)
    if a.dim == 0:
        return True
    w = _eigh(b.entries - a.entries)[0]
    return float(w[-1]) >= -tol.psd_slack * (1.0 + b.norm)
