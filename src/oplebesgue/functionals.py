"""Representable functionals on finite direct sums of matrix algebras.

A functional is stored through its block densities, w(a) = sum_k tr(rho_k a_k).
The GNS construction, parallel sum, and Lebesgue decomposition all reduce to
the form machinery over the matrix-unit basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    PsdMatrix,
    Tolerances,
    _frobenius,
    clip_psd,
    eig_hermitian,
    psd_by_construction,
)
from .forms import SesquilinearForm, form_decompose, form_parallel_sum
from .lebesgue import Method

__all__ = [
    "AlgebraElement",
    "Functional",
    "FunctionalDecomposition",
    "GnsTriplet",
    "StarAlgebra",
    "evaluate",
    "functional_decompose",
    "functional_from_form",
    "functional_parallel_sum",
    "gns",
    "induced_form",
]


@dataclass(frozen=True)
class StarAlgebra:
    """Unital *-algebra given as a direct sum of full complex matrix blocks.

    The involution is the blockwise conjugate transpose and the unit is the
    identity in every block.
    """

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        object.__setattr__(self, "block_dims", dims)
        if not dims:
            raise ValueError("algebra needs at least one block")
        if any(n < 1 for n in dims):
            raise ValueError("block dimensions must be positive")

    @property
    def total_dim(self) -> int:
        return sum(n * n for n in self.block_dims)

    def element(self, blocks) -> AlgebraElement:
        return AlgebraElement(self, tuple(np.asarray(blk, dtype=np.complex128) for blk in blocks))

    def zero(self) -> AlgebraElement:
        return self.element([np.zeros((n, n)) for n in self.block_dims])

    def unit(self) -> AlgebraElement:
        return self.element([np.eye(n) for n in self.block_dims])

    def matrix_unit(self, block: int, i: int, j: int) -> AlgebraElement:
        blocks = [np.zeros((n, n)) for n in self.block_dims]
        blocks[block][i, j] = 1.0
        return self.element(blocks)

    def matrix_units(self) -> list[AlgebraElement]:
        """The canonical basis, ordered blockwise and row-major inside blocks."""
        return [
            self.matrix_unit(k, i, j)
            for k, n in enumerate(self.block_dims)
            for i in range(n)
            for j in range(n)
        ]

    def basis_labels(self) -> tuple[str, ...]:
        return tuple(
            f"b{k}:e{i},{j}"
            for k, n in enumerate(self.block_dims)
            for i in range(n)
            for j in range(n)
        )

    def coefficients(self, a: AlgebraElement) -> np.ndarray:
        """Coordinates of an element in the matrix-unit basis."""
        return np.concatenate([blk.reshape(-1) for blk in a.blocks])

    def from_coefficients(self, coeffs) -> AlgebraElement:
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if coeffs.size != self.total_dim:
            raise ValueError(f"expected {self.total_dim} coefficients, got {coeffs.size}")
        blocks = []
        offset = 0
        for n in self.block_dims:
            blocks.append(coeffs[offset : offset + n * n].reshape(n, n))
            offset += n * n
        return self.element(blocks)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    algebra: StarAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.algebra.block_dims):
            raise ValueError("block count does not match the algebra")
        frozen = []
        for blk, n in zip(self.blocks, self.algebra.block_dims):
            arr = np.array(blk, dtype=np.complex128)
            if arr.shape != (n, n):
                raise ValueError(f"block of shape {arr.shape} does not match dimension {n}")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    def star(self) -> AlgebraElement:
        return self.algebra.element([blk.conj().T for blk in self.blocks])

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _require_same_algebra(self.algebra, other.algebra)
        return self.algebra.element([p @ q for p, q in zip(self.blocks, other.blocks)])

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _require_same_algebra(self.algebra, other.algebra)
        return self.algebra.element([p + q for p, q in zip(self.blocks, other.blocks)])

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _require_same_algebra(self.algebra, other.algebra)
        return self.algebra.element([p - q for p, q in zip(self.blocks, other.blocks)])

    def __rmul__(self, scalar) -> AlgebraElement:
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return self.algebra.element([scalar * blk for blk in self.blocks])


def _require_same_algebra(a: StarAlgebra, b: StarAlgebra) -> None:
    if a != b:
        raise ValueError(f"algebra mismatch: {a.block_dims} vs {b.block_dims}")


@dataclass(frozen=True, eq=False)
class Functional:
    """Positive functional w(a) = sum_k trace(rho_k a_k) with PSD densities."""

    algebra: StarAlgebra
    densities: tuple[PsdMatrix, ...]

    def __post_init__(self):
        if len(self.densities) != len(self.algebra.block_dims):
            raise ValueError("density count does not match the algebra")
        for rho, n in zip(self.densities, self.algebra.block_dims):
            if rho.dim != n:
                raise ValueError(f"density of dimension {rho.dim} does not match block {n}")

    def __call__(self, a: AlgebraElement) -> complex:
        return evaluate(self, a)


def evaluate(w: Functional, a: AlgebraElement) -> complex:
    """w(a) as the sum of blockwise traces against the densities."""
    _require_same_algebra(w.algebra, a.algebra)
    return complex(
        sum(np.trace(rho.entries @ blk) for rho, blk in zip(w.densities, a.blocks))
    )


def functional_from_densities(algebra: StarAlgebra, densities, tol: Tolerances = DEFAULT_TOL) -> Functional:
    """Build a functional from raw per-block density arrays."""
    return Functional(algebra, tuple(PsdMatrix(d, tol) for d in densities))


def induced_form(w: Functional, tol: Tolerances = DEFAULT_TOL) -> SesquilinearForm:
    """The form t(a, b) = w(b* a) over the matrix-unit basis.

    On a full matrix block with density rho the Gram restricts to
    kron(I, rho^T), since w(E_ij* E_kl) = delta_ik rho[l, j].  The Gram is a
    direct sum of exact copies of the validated rho^T, so its spectrum is
    theirs: it is PSD by construction and gets no eigensolve of its own.
    """
    gram = _direct_sum([np.kron(np.eye(n), rho.entries.T)
                        for rho, n in zip(w.densities, w.algebra.block_dims)])
    return SesquilinearForm(w.algebra.basis_labels(), psd_by_construction(gram, tol))


def _direct_sum(blocks) -> np.ndarray:
    """The block-diagonal matrix with the given (possibly rectangular) blocks."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=np.complex128)
    row = col = 0
    for b in blocks:
        out[row : row + b.shape[0], col : col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return out


@dataclass(frozen=True, eq=False)
class GnsTriplet:
    """Cyclic representation (H_w, pi_w, zeta_w) with w(a) = <pi_w(a) zeta, zeta>.

    The space is the algebra modulo the kernel of the induced form; elements
    are represented by left multiplication expressed in an orthonormal basis
    of equivalence classes of matrix units.
    """

    algebra: StarAlgebra
    space_dim: int
    cyclic_vector: np.ndarray
    _to_coords: np.ndarray
    _from_coords: np.ndarray

    def __post_init__(self):
        for arr in (self.cyclic_vector, self._to_coords, self._from_coords):
            arr.flags.writeable = False

    def represent(self, a: AlgebraElement) -> np.ndarray:
        """The matrix of pi_w(a) on the GNS space."""
        _require_same_algebra(self.algebra, a.algebra)
        return self._to_coords @ _left_regular(a) @ self._from_coords


def _left_regular(a: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication by a on the coefficient space."""
    return _direct_sum([np.kron(blk, np.eye(n))
                        for blk, n in zip(a.blocks, a.algebra.block_dims)])


def gns(w: Functional, tol: Tolerances = DEFAULT_TOL) -> GnsTriplet:
    """GNS construction for a block-density functional.

    The induced Gram is the direct sum of kron(I_n, rho^T) over the blocks,
    so with rho = U diag(lam) U* its root factors are the direct sums of
    kron(I_n, conj(U) sqrt(lam)) and kron(I_n, conj(U) / sqrt(lam)), and the
    space is the direct sum of C^n (x) ran rho.  Each density is factored on
    its own; the kernel is detected with the relative rank cutoff against the
    largest eigenvalue over all blocks, the Gram's largest.  The cyclic
    vector is the class of the unit.
    """
    algebra = w.algebra
    decs = [eig_hermitian(rho, tol) for rho in w.densities]
    keep = tol.support(np.concatenate([dec.eigenvalues for dec in decs]))
    roots, coords = [], []
    for n, dec, kept in zip(algebra.block_dims, decs,
                            np.split(keep, np.cumsum(algebra.block_dims)[:-1])):
        root = np.sqrt(dec.eigenvalues[kept])
        u = dec.vectors[:, kept].conj()
        roots.append(np.kron(np.eye(n), u * root))
        coords.append(np.kron(np.eye(n), u / root))
    to_coords = _direct_sum(roots).conj().T
    zeta = to_coords @ algebra.coefficients(algebra.unit())
    return GnsTriplet(algebra, to_coords.shape[0], zeta, to_coords, _direct_sum(coords))


def _density_from_values(values: np.ndarray, n: int, tol: Tolerances) -> PsdMatrix:
    """Rebuild one block density from functional values on its matrix units.

    trace(rho E_ij) = rho[j, i]; the result is symmetrized and eigenvalues
    within psd_slack * (1 + ||rho||_F) below zero are clipped to zero.
    """
    rho = values.reshape(n, n).T
    noise = tol.psd_slack * (1.0 + _frobenius(rho))
    return clip_psd(rho, noise, tol, "functional density")


def functional_from_form(
    algebra: StarAlgebra, form: SesquilinearForm, tol: Tolerances = DEFAULT_TOL
) -> Functional:
    """Recover the functional with a given induced form via w(a) = t(a, unit)."""
    if form.basis_labels != algebra.basis_labels():
        raise ValueError("form is not indexed by the algebra's matrix-unit basis")
    unit_coeffs = algebra.coefficients(algebra.unit())
    values = unit_coeffs.conj() @ form.gram.entries
    densities = []
    offset = 0
    for n in algebra.block_dims:
        densities.append(_density_from_values(values[offset : offset + n * n], n, tol))
        offset += n * n
    return Functional(algebra, tuple(densities))


def functional_parallel_sum(
    w: Functional, v: Functional, tol: Tolerances = DEFAULT_TOL
) -> Functional:
    """Parallel sum of functionals through their induced forms."""
    _require_same_algebra(w.algebra, v.algebra)
    summed = form_parallel_sum(induced_form(w, tol), induced_form(v, tol), tol)
    return functional_from_form(w.algebra, summed, tol)


@dataclass(frozen=True, eq=False)
class FunctionalDecomposition:
    """Splitting w = ac + sing into v-absolutely continuous and v-singular
    representable parts; unpacks as the pair (ac, sing)."""

    ac: Functional
    sing: Functional
    method: Method
    iterations: int
    residual: float
    converged: bool = True

    def __iter__(self):
        return iter((self.ac, self.sing))


def functional_decompose(
    w: Functional,
    v: Functional,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> FunctionalDecomposition:
    """Lebesgue decomposition of w with respect to v.

    Decomposes the induced forms and recovers both parts as block-density
    functionals; the singular part satisfies sing : v = 0.
    """
    _require_same_algebra(w.algebra, v.algebra)
    dec = form_decompose(induced_form(w, tol), induced_form(v, tol), method, tol)
    return FunctionalDecomposition(
        functional_from_form(w.algebra, dec.ac, tol),
        functional_from_form(w.algebra, dec.sing, tol),
        dec.method,
        dec.iterations,
        dec.residual,
        dec.converged,
    )
