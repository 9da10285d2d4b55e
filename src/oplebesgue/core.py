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


DEFAULT_TOL = Tolerances()


class PsdMatrix:
    """Immutable complex Hermitian positive semidefinite matrix.

    Input is averaged with its conjugate transpose once the stored asymmetry
    is verified to be within ``recon_tol``; eigenvalues may dip below zero by
    at most ``psd_slack * (1 + max |eigenvalue|)``.  Real input is embedded
    with zero imaginary parts.  The matrix keeps its own eigendecomposition
    once one is computed, so it is factored at most once.
    """

    __slots__ = ("_entries", "_factored")

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOL):
        h = _hermitian_part(entries, tol)
        if h.shape[0] > 0:
            _require_psd(_eigvalsh(h), tol)
        h.flags.writeable = False
        self._entries = h
        self._factored = None

    @classmethod
    def _checked(cls, h: np.ndarray, factored: _Factorization) -> PsdMatrix:
        """Wrap a validated Hermitian array together with its factorization."""
        obj = cls.__new__(cls)
        h.flags.writeable = False
        obj._entries = h
        obj._factored = factored
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
        """Frobenius norm."""
        return float(np.linalg.norm(self._entries))

    def __add__(self, other: PsdMatrix) -> PsdMatrix:
        """A + B, validated from one ``eigh`` that the sum keeps.

        Runs the checks of the constructor (Hermitian, finite, positive
        within the slack) on the eigenvalues of that factorization instead
        of on a separate ``eigvalsh``, so a sum built to be factored is
        factored once.
        """
        if not isinstance(other, PsdMatrix):
            return NotImplemented
        require_same_dim(self, other)
        h = _hermitian_part(self._entries + other._entries, DEFAULT_TOL)
        factored = _factor(h)
        _require_psd(factored.dec.eigenvalues, DEFAULT_TOL)
        return PsdMatrix._checked(h, factored)

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


def _hermitian_part(entries, tol: Tolerances) -> np.ndarray:
    """Square, finite, Hermitian within ``recon_tol``: the averaged array."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = 1.0 + float(np.linalg.norm(m))
    asym = float(np.linalg.norm(m - m.conj().T))
    if asym > tol.recon_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{tol.recon_tol * scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


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


def _factor(h: np.ndarray) -> _Factorization:
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])
    recon = float(np.linalg.norm(h - (v * w) @ v.conj().T))
    ortho = float(np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0])))
    return _Factorization(EigenDecomposition(w, v), recon, ortho)


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


def _support_mask(eigenvalues: np.ndarray, tol: Tolerances) -> np.ndarray:
    """True where an eigenvalue counts as nonzero under the relative rank cutoff."""
    if eigenvalues.size == 0:
        return np.zeros(0, dtype=bool)
    cutoff = tol.rank_rtol * max(float(eigenvalues[0]), 0.0)
    return eigenvalues > cutoff


def pinv(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Moore-Penrose pseudoinverse of a PSD matrix.

    Eigenvalues at most ``rank_rtol`` times the largest are treated as zero.
    """
    dec = eig_hermitian(m, tol)
    keep = _support_mask(dec.eigenvalues, tol)
    inv = np.zeros_like(dec.eigenvalues)
    inv[keep] = 1.0 / dec.eigenvalues[keep]
    return PsdMatrix((dec.vectors * inv) @ dec.vectors.conj().T, tol)


def range_projection(m: PsdMatrix, tol: Tolerances = DEFAULT_TOL) -> PsdMatrix:
    """Orthogonal projection onto the range of a PSD matrix (numerical rank)."""
    dec = eig_hermitian(m, tol)
    keep = _support_mask(dec.eigenvalues, tol)
    v = dec.vectors[:, keep]
    return PsdMatrix(v @ v.conj().T, tol)


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
