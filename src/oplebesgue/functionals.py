"""Representable functionals on finite direct sums of matrix algebras.

A functional is stored through its block densities, w(a) = sum_k tr(rho_k a_k).
The parallel sum and Lebesgue decomposition reduce to the form machinery over
the matrix-unit basis, whose induced forms declare their Grams as n_k copies
of each rho_k^T, so the matrix routes run on one copy of each density; the
GNS construction factors the densities directly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenDecomposition,
    PsdMatrix,
    Tolerances,
    _Factorization,
    as_count,
    clip_psd,
    eig_hermitian,
)
from .forms import SesquilinearForm, _direct_sum, form_decompose, form_parallel_sum
from .lebesgue import LebesgueDecomposition, Method

__all__ = [
    "AlgebraElement",
    "Functional",
    "GnsTriplet",
    "StarAlgebra",
    "evaluate",
    "functional_decompose",
    "functional_from_densities",
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
        dims = tuple(as_count(n, 1, "a block dimension") for n in self.block_dims)
        if not dims:
            raise ValueError("algebra needs at least one block")
        object.__setattr__(self, "block_dims", dims)

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
        return self._basis_labels

    @cached_property
    def _basis_labels(self) -> tuple[str, ...]:
        """The labels of ``matrix_units``, built once per algebra."""
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

    @cached_property
    def _induced_form(self) -> SesquilinearForm:
        """``induced_form(self)``, built on first use and kept: the densities
        are immutable, so a functional has one induced form."""
        factored = [rho._factorization() for rho in self.densities]
        gram = _direct_sum([rho.entries.T for rho in self.densities])
        values = np.concatenate([f.dec.eigenvalues for f in factored])
        order = np.argsort(-values, kind="stable")
        vectors = _direct_sum([f.dec.vectors.conj() for f in factored])
        recon = math.hypot(*(f.recon for f in factored))
        ortho = math.hypot(*(f.ortho for f in factored))
        dec = EigenDecomposition(values[order], vectors[:, order])
        gram = PsdMatrix._checked(gram, _Factorization(dec, recon, ortho))
        return SesquilinearForm(self.algebra.basis_labels(), gram,
                                tuple((n, n) for n in self.algebra.block_dims))


def evaluate(w: Functional, a: AlgebraElement) -> complex:
    """w(a) as the sum of blockwise traces against the densities."""
    _require_same_algebra(w.algebra, a.algebra)
    return complex(
        sum(np.trace(rho.entries @ blk) for rho, blk in zip(w.densities, a.blocks))
    )


def functional_from_densities(algebra: StarAlgebra, densities, tol: Tolerances = DEFAULT_TOL) -> Functional:
    """Build a functional from raw per-block density arrays."""
    return Functional(algebra, tuple(PsdMatrix(d, tol) for d in densities))


def induced_form(w: Functional) -> SesquilinearForm:
    """The form t(a, b) = w(b* a) over the matrix-unit basis.

    On a full matrix block with density rho the Gram restricts to
    kron(I_n, rho^T), since w(E_ij* E_kl) = delta_ik rho[l, j]: n copies of
    rho^T.  The form declares that layout, (n_k, n_k) per block, on the
    one-copy Gram rho_1^T + ... + rho_K^T (sum n_k, not sum n_k^2,
    coordinates), the one matrix a functional is reduced to.  As a direct
    sum of the validated rho^T = conj V diag(lam) V^T it gets no eigensolve
    and keeps their factorizations, copied block by block.  The form is
    built once per functional and kept, so the parallel sum and the
    decomposition of one functional share it.
    """
    return w._induced_form


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
    algebra: StarAlgebra, form: SesquilinearForm, tol: Tolerances = DEFAULT_TOL
) -> Functional:
    """Recover the functional with a given induced form via w(a) = t(a, unit).

    On each block, trace(rho E_ij) = rho[j, i].  A form that declares the
    induced layout, n_k copies of an n_k x n_k block G_k, is read directly
    as rho_k = G_k^T, clipped at zero: each G_k is a principal block of a
    route result, checked by the route.  Any other form is evaluated on the
    unit through its full Gram, and density eigenvalues within
    ``psd_slack * ||Gram||`` below zero are clipped."""
    if form.basis_labels != algebra.basis_labels():
        raise ValueError("form is not indexed by the algebra's matrix-unit basis")
    dims = algebra.block_dims
    if form.layout == tuple((n, n) for n in dims):
        densities, noise = [g.T for g in form.blocks()], math.inf
    else:
        values = algebra.coefficients(algebra.unit()).conj() @ form.gram.entries
        densities = [v.reshape(n, n).T
                     for n, v in zip(dims, np.split(values, np.cumsum([n * n for n in dims])[:-1]))]
        noise = tol.psd_slack * form.norm
    return Functional(algebra, tuple(clip_psd(d, noise, tol, "functional density")
                                     for d in densities))


def functional_parallel_sum(
    w: Functional, v: Functional, tol: Tolerances = DEFAULT_TOL
) -> Functional:
    """Parallel sum of functionals through their induced forms: one
    ``parallel_sum`` on one copy of each density block."""
    _require_same_algebra(w.algebra, v.algebra)
    summed = form_parallel_sum(induced_form(w), induced_form(v), tol)
    return functional_from_form(w.algebra, summed, tol)


def functional_decompose(
    w: Functional,
    v: Functional,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> LebesgueDecomposition[Functional]:
    """Lebesgue decomposition of w into v-absolutely continuous and
    v-singular representable parts.

    Decomposes the induced forms, one matrix decomposition on one copy of
    each density block, and recovers both parts as block-density
    functionals; the singular part satisfies sing : v = 0.
    """
    _require_same_algebra(w.algebra, v.algebra)
    dec = form_decompose(induced_form(w), induced_form(v), method, tol)
    return dataclasses.replace(dec, ac=functional_from_form(w.algebra, dec.ac, tol),
                               sing=functional_from_form(w.algebra, dec.sing, tol))
