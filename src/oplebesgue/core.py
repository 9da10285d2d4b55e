"""Complex Hermitian PSD kernel: eigendecomposition, pseudoinverse, projections, Loewner order."""

from __future__ import annotations

import math
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
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")

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
    with zero imaginary parts.  The matrix keeps its own eigendecomposition
    once one is computed, so it is factored at most once, and its norm once
    it is first read.
    """

    __slots__ = ("_entries", "_factored", "_norm")

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOL):
        h = _hermitian_part(entries, tol)
        if h.shape[0] > 0:
            _require_psd(_eigvalsh(h), tol)
        h.flags.writeable = False
        self._entries = h
        self._factored = None
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
        """A + B, validated on one ``eigh`` that the sum keeps (``factor_psd``)."""
        if not isinstance(other, PsdMatrix):
            return NotImplemented
        require_same_dim(self, other)
        return factor_psd(self._entries + other._entries)

    def __mul__(self, scalar) -> PsdMatrix:
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar < 0:
            raise ValueError("scaling a PSD matrix requires a nonnegative factor")
        entries = self._entries * scalar
        # A power-of-two factor of at least one is exact in binary floating
        # point, so the product's eigendecomposition is this matrix's with the
        # eigenvalues scaled; a finite ||s M||_F bounds every entry and
        # eigenvalue of the product.
        if scalar >= 1 and math.frexp(scalar)[0] == 0.5 and math.isfinite(scalar * self.norm):
            factored = self._factorization().scaled(scalar)
            _require_psd(factored.dec.eigenvalues, DEFAULT_TOL)
            return PsdMatrix._checked(entries, factored)
        return PsdMatrix(entries)

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._entries.astype(dtype)
        return self._entries

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
    """Frobenius norm.  ``numpy.linalg.norm`` squares the entries and overflows
    above about 1.3e154; only then is the array rescaled by a power of two."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if math.isfinite(norm):
        return norm
    scale = 2.0 ** -math.frexp(float(np.max(np.abs(m))))[1]
    return float(np.linalg.norm(m * scale)) / scale


def _hermitian_part(entries, tol: Tolerances) -> np.ndarray:
    """Square, finite, Hermitian within ``recon_tol``: the averaged array
    m/2 + m*/2, which cannot overflow."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    half = m / 2.0
    scale = 1.0 + _frobenius(m)
    asym = 2.0 * _frobenius(half - half.conj().T)
    if asym > tol.recon_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{tol.recon_tol * scale:.3e}"
        )
    return half + half.conj().T


def _require_psd(eigenvalues: np.ndarray, tol: Tolerances) -> None:
    """Positivity within the slack, judged on the matrix's eigenvalues."""
    if eigenvalues.size == 0:
        return
    smallest = float(np.min(eigenvalues))
    largest = float(np.max(np.abs(eigenvalues)))
    if smallest < -tol.psd_slack * (1.0 + largest):
        raise ValueError(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{smallest:.3e} below slack {-tol.psd_slack * (1.0 + largest):.3e}"
        )


def roundoff(dim: int, scale: float) -> float:
    """Round-off bound of a dense size-``dim`` computation on inputs of norm ``scale``."""
    return 256.0 * max(dim, 1) * np.finfo(float).eps * scale


def psd_difference(x: PsdMatrix, y: PsdMatrix, noise: float, context: str,
                   tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """X - Y for a derived Y <= X, validated by one ``eigvalsh`` against ``noise``,
    the round-off of the computations that derived Y at the scale of their
    inputs (not 1 + its own); below ``-noise``, ``context`` failed."""
    h = _hermitian_part(x.entries - y.entries, tol)
    smallest = float(_eigvalsh(h)[0]) if h.shape[0] else 0.0
    if smallest < -noise:
        raise NumericalError(f"{context} lost positivity beyond round-off ({smallest:.3e})",
                             residual=-smallest)
    return PsdMatrix._checked(h, None)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


class _Factorization(NamedTuple):
    """A matrix's own eigendecomposition with its Frobenius-norm residuals:
    ``recon`` = ||M - V diag(w) V*||, ``ortho`` = ||V* V - I||."""

    dec: EigenDecomposition
    recon: float
    ortho: float

    def scaled(self, factor: float) -> _Factorization:
        """The factorization of ``factor * M`` for an exact scaling."""
        dec = EigenDecomposition(self.dec.eigenvalues * factor, self.dec.vectors)
        return _Factorization(dec, self.recon * factor, self.ortho)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues (descending, stable order), eigenvectors V and ||V* V - I||."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    v = np.ascontiguousarray(v[:, order])
    return np.ascontiguousarray(w[order]), v, _frobenius(v.conj().T @ v - np.eye(v.shape[0]))


def _factor(h: np.ndarray) -> _Factorization:
    w, v, ortho = _eigh(h)
    recon = _frobenius(h - (v * w) @ v.conj().T)
    return _Factorization(EigenDecomposition(w, v), recon, ortho)


def factor_psd(entries, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """A PSD matrix built to be factored: the constructor's checks run on the
    eigenvalues of one ``eigh`` that it keeps, not on a separate ``eigvalsh``."""
    h = _hermitian_part(entries, tol)
    factored = _factor(h)
    _require_psd(factored.dec.eigenvalues, tol)
    return PsdMatrix._checked(h, factored)


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
    w, v, ortho = _eigh(h / 2.0 + h.conj().T / 2.0)
    if w.size and w[-1] < -noise:
        raise NumericalError(
            f"{context} lost positivity beyond round-off ({w[-1]:.3e})",
            residual=float(-w[-1]),
        )
    return _from_spectrum(np.clip(w, 0.0, None), v, ortho, tol)


def support_roots(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(R, S) = (U sqrt(lam), U / sqrt(lam)) over the support of
    M = U diag(lam) U*: M = R R* and R* S = I."""
    dec = eig_hermitian(m, tol)
    keep = tol.support(dec.eigenvalues)
    root = np.sqrt(dec.eigenvalues[keep])
    u = dec.vectors[:, keep]
    return u * root, u / root


def eig_hermitian(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The descending sort is stable, so degenerate eigenvalues keep the
    eigenvector order chosen by the underlying solver (identity input yields
    the identity basis).  The matrix is factored on its first call only;
    every call checks the stored reconstruction and unitarity residuals
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
    if factored.ortho > tol.recon_tol:
        raise NumericalError(
            f"eigenvector unitarity residual {factored.ortho:.3e} exceeds {tol.recon_tol:.3e}",
            residual=factored.ortho,
        )
    return factored.dec


def pinv(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL, *, reference: float = 0.0) -> PsdMatrix:
    """Moore-Penrose pseudoinverse of a PSD matrix.

    Eigenvalues at most ``rank_rtol`` times the largest (or ``reference``) are zero.
    """
    w = eig_hermitian(m, tol).eigenvalues
    keep = tol.support(w, reference)
    return spectral_map(m, np.divide(1.0, w, out=np.zeros_like(w), where=keep), tol)


def range_projection(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Orthogonal projection onto the range of a PSD matrix (numerical rank)."""
    keep = tol.support(eig_hermitian(m, tol).eigenvalues)
    return spectral_map(m, keep.astype(float), tol)


def loewner_leq(a: PsdMatrix, b: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A is below B in the Loewner order, with norm-scaled slack.

    True iff the smallest eigenvalue of B - A is at least
    ``-psd_slack * (1 + ||B||_F)``.
    """
    require_same_dim(a, b)
    if a.dim == 0:
        return True
    w = _eigvalsh(b.entries - a.entries)
    return float(w[0]) >= -tol.psd_slack * (1.0 + b.norm)
