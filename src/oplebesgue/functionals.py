"""Representable functionals on finite direct sums of matrix algebras.

A functional is stored through its block densities, w(a) = sum_k tr(rho_k a_k).
The parallel sum and Lebesgue decomposition reduce to the form machinery over
the matrix-unit basis; the GNS construction factors the densities directly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenDecomposition,
    PsdMatrix,
    Tolerances,
    _Factorization,
    clip_psd,
    eig_hermitian,
)
from .forms import SesquilinearForm, form_decompose, form_parallel_sum
from .lebesgue import LebesgueDecomposition, Method

__all__ = [
    "AlgebraElement",
    "Functional",
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
    kron(I, rho^T), since w(E_ij* E_kl) = delta_ik rho[l, j].  As a direct
    sum of exact copies of the validated rho^T = conj V diag(lam) V^T it gets
    no eigensolve and keeps their factorizations, copied block by block.
    """
    dims, factored = w.algebra.block_dims, [rho._factorization() for rho in w.densities]
    gram = _direct_sum([np.kron(np.eye(n), rho.entries.T) for rho, n in zip(w.densities, dims)])
    values = np.concatenate([np.tile(f.dec.eigenvalues, n) for f, n in zip(factored, dims)])
    order = np.argsort(-values, kind="stable")
    vectors = _direct_sum([np.kron(np.eye(n), f.dec.vectors.conj()) for f, n in zip(factored, dims)])
    recon = math.hypot(*(math.sqrt(n) * f.recon for f, n in zip(factored, dims)))
    ortho = math.hypot(*(math.sqrt(n) * f.ortho for f, n in zip(factored, dims)))
    dec = EigenDecomposition(values[order], vectors[:, order])
    gram = PsdMatrix._checked(gram, _Factorization(dec, recon, ortho))
    return SesquilinearForm(w.algebra.basis_labels(), gram)


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

    With rho_k = U_k diag(lam_k) U_k* over its r_k kept eigenvalues, the
    space is the direct sum of C^{n_k} (x) C^{r_k}: the class of a is the
    row-major vec(a_k U_k sqrt(lam_k)) in each block, so left multiplication
    by a is pi_w(a) = sum_k a_k (x) I_{r_k}.
    """

    algebra: StarAlgebra
    ranks: tuple[int, ...]
    cyclic_vector: np.ndarray

    def __post_init__(self):
        self.cyclic_vector.flags.writeable = False

    @property
    def space_dim(self) -> int:
        return sum(n * r for n, r in zip(self.algebra.block_dims, self.ranks))

    def represent(self, a: AlgebraElement) -> np.ndarray:
        """The matrix of pi_w(a) on the GNS space."""
        _require_same_algebra(self.algebra, a.algebra)
        return _direct_sum([np.kron(blk, np.eye(r)) for blk, r in zip(a.blocks, self.ranks)])


def gns(w: Functional, tol: Tolerances = DEFAULT_TOL) -> GnsTriplet:
    """GNS construction for a block-density functional.

    The induced Gram is the direct sum of kron(I_n, rho^T) over the blocks,
    so its kernel is the direct sum of C^n (x) ker rho, and each density is
    factored on its own.  The kernel is detected with the relative rank
    cutoff against the largest eigenvalue over all blocks, the Gram's
    largest.  The cyclic vector is the class of the unit, the row-major
    vec(U sqrt(lam)) of each block.
    """
    decs = [eig_hermitian(rho, tol) for rho in w.densities]
    keep = tol.support(np.concatenate([dec.eigenvalues for dec in decs]))
    kept = np.split(keep, np.cumsum(w.algebra.block_dims)[:-1])
    zeta = np.concatenate([(dec.vectors[:, k] * np.sqrt(dec.eigenvalues[k])).reshape(-1)
                           for dec, k in zip(decs, kept)])
    return GnsTriplet(w.algebra, tuple(int(np.count_nonzero(k)) for k in kept), zeta)


def functional_from_form(
    algebra: StarAlgebra, form: SesquilinearForm, tol: Tolerances = DEFAULT_TOL,
    *, scale: float | None = None,
) -> Functional:
    """Recover the functional with a given induced form via w(a) = t(a, unit).

    On each block, trace(rho E_ij) = rho[j, i]; density eigenvalues within
    ``psd_slack * scale`` below zero are clipped, with ``scale`` the norm of
    the inputs that produced the form (by default the form's own)."""
    if form.basis_labels != algebra.basis_labels():
        raise ValueError("form is not indexed by the algebra's matrix-unit basis")
    noise = tol.psd_slack * (form.gram.norm if scale is None else scale)
    values = algebra.coefficients(algebra.unit()).conj() @ form.gram.entries
    sizes = [n * n for n in algebra.block_dims]
    return Functional(algebra, tuple(
        clip_psd(v.reshape(n, n).T, noise, tol, "functional density")
        for n, v in zip(algebra.block_dims, np.split(values, np.cumsum(sizes)[:-1]))))


def _on_induced_forms(w: Functional, v: Functional, tol: Tolerances, op):
    """``op`` on both induced forms, and the pair's scale ||Gram w|| + ||Gram v||
    at which the densities of its result are recovered (the forms are freed)."""
    _require_same_algebra(w.algebra, v.algebra)
    tw, tv = induced_form(w, tol), induced_form(v, tol)
    return op(tw, tv), tw.gram.norm + tv.gram.norm


def functional_parallel_sum(
    w: Functional, v: Functional, tol: Tolerances = DEFAULT_TOL
) -> Functional:
    """Parallel sum of functionals through their induced forms, recovered at
    the pair's scale (for mutually singular w and v it is their round-off)."""
    summed, scale = _on_induced_forms(w, v, tol, lambda tw, tv: form_parallel_sum(tw, tv, tol))
    return functional_from_form(w.algebra, summed, tol, scale=scale)


def functional_decompose(
    w: Functional,
    v: Functional,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> LebesgueDecomposition[Functional]:
    """Lebesgue decomposition of w into v-absolutely continuous and
    v-singular representable parts.

    Decomposes the induced forms and recovers both parts as block-density
    functionals at the pair's scale; the singular part satisfies sing : v = 0.
    """
    dec, scale = _on_induced_forms(w, v, tol, lambda tw, tv: form_decompose(tw, tv, method, tol))
    return dataclasses.replace(dec, ac=functional_from_form(w.algebra, dec.ac, tol, scale=scale),
                               sing=functional_from_form(w.algebra, dec.sing, tol, scale=scale))
