"""Nonnegative sesquilinear forms on a finite basis, reduced to the matrix machinery."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, PsdMatrix, Tolerances, as_count
from .lebesgue import LebesgueDecomposition, Method, decompose
from .parallel import parallel_sum

__all__ = [
    "SesquilinearForm",
    "form_decompose",
    "form_parallel_sum",
    "induced_operator",
]


@dataclass(frozen=True, eq=False)
class SesquilinearForm:
    """Nonnegative sesquilinear form as a Gram matrix over a named basis.

    Convention: gram[i, j] = t(e_j, e_i), so t(x, y) = y* @ gram @ x for
    coordinate vectors x, y.

    The Gram may be declared as copies of blocks.  ``layout`` gives the
    (size d_k, multiplicity m_k) of each block; the form then holds the
    one-copy Gram ``copy_gram`` = G_1 + ... + G_K (a direct sum, with exact
    zeros between the blocks, over sum d_k coordinates), and its Gram is the
    direct sum of the kron(I_{m_k}, G_k) over sum m_k d_k basis vectors.
    ``SesquilinearForm(labels, gram)`` is one block of multiplicity 1,
    whose ``gram`` is the given matrix itself.  A declared ``gram`` is
    built on first read only, and factored only if its spectrum is read.
    """

    basis_labels: tuple[str, ...]
    copy_gram: PsdMatrix
    layout: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        labels, g = tuple(self.basis_labels), self.copy_gram
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        layout = ((g.dim, 1),) if self.layout is None else tuple(
            (as_count(d, 0, "a layout size"), as_count(m, 1, "a layout multiplicity"))
            for d, m in self.layout)
        if sum(d for d, _ in layout) != g.dim:
            raise ValueError(f"layout {layout} does not match Gram dimension {g.dim}")
        if len(labels) != sum(d * m for d, m in layout):
            raise ValueError(
                f"{len(labels)} basis labels do not match Gram dimension "
                f"{sum(d * m for d, m in layout)}"
            )
        start = 0
        for d, _ in layout[:-1]:
            if np.any(g.entries[start:start + d, start + d:]):
                raise ValueError("Gram is not block diagonal in its declared layout")
            start += d
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "layout", layout)

    @property
    def _one_copy(self) -> bool:
        return all(m == 1 for _, m in self.layout)

    @cached_property
    def gram(self) -> PsdMatrix:
        """The full Gram, the direct sum of the kron(I_{m_k}, G_k)."""
        return self.copy_gram if self._one_copy else _expanded(self.copy_gram, self.layout)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @property
    def norm(self) -> float:
        """Frobenius norm of the full Gram."""
        return self.gram.norm

    def blocks(self) -> list[np.ndarray]:
        """The one-copy blocks G_k (read-only views into ``copy_gram``)."""
        ends = np.cumsum([d for d, _ in self.layout])
        h = self.copy_gram.entries
        return [h[end - d:end, end - d:end] for (d, _), end in zip(self.layout, ends)]

    def value(self, x, y) -> complex:
        """t(x, y) for coordinate vectors (second argument conjugated)."""
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        return complex(np.vdot(y, self.gram.entries @ x))

    def quadratic(self, x) -> float:
        """t[x] = t(x, x)."""
        return self.value(x, x).real


def _expanded(g: PsdMatrix, layout) -> PsdMatrix:
    """The direct sum of the kron(I_m, G_k) of a block-diagonal ``g``, PSD by
    construction: it gets no check, and is factored only if its spectrum is
    read."""
    starts = np.cumsum([0] + [d for d, _ in layout])
    return PsdMatrix._checked(_direct_sum([np.kron(np.eye(m), g.entries[s:s + d, s:s + d])
                                           for (d, m), s in zip(layout, starts)]), None)


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


def _require_same_basis(t: SesquilinearForm, w: SesquilinearForm) -> None:
    if t.basis_labels != w.basis_labels:
        raise ValueError("forms are defined over different bases")


def induced_operator(t: SesquilinearForm) -> PsdMatrix:
    """The positive operator T with <Tx, y> = t(x, y) on the anti-dual pair.

    In coordinates this is the Gram matrix itself; kept as a named operation
    so the reduction from forms to matrices stays explicit and testable.
    """
    return t.gram


def _operands(t: SesquilinearForm, w: SesquilinearForm):
    """The Grams an operation on t and w runs on, and its result's layout:
    the one-copy Grams when the two layouts agree, else the full Grams.  A
    direct sum's parallel sum and parts are the direct sums of its blocks',
    so one copy of each block determines them."""
    _require_same_basis(t, w)
    if t.layout == w.layout:
        return t.copy_gram, w.copy_gram, t.layout
    return t.gram, w.gram, None


def form_parallel_sum(
    t: SesquilinearForm, w: SesquilinearForm, tol: Tolerances = DEFAULT_TOL
) -> SesquilinearForm:
    """Parallel sum of forms: the form whose value at x is inf over y of
    w[x - y] + t[y].  One ``parallel_sum`` on the Grams of ``_operands``."""
    a, b, layout = _operands(t, w)
    return SesquilinearForm(t.basis_labels, parallel_sum(a, b, tol), layout)


def form_decompose(
    t: SesquilinearForm,
    w: SesquilinearForm,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> LebesgueDecomposition[SesquilinearForm]:
    """Lebesgue decomposition of the form t into w-closable and w-singular parts.

    Delegates to one matrix decomposition of the Grams of ``_operands``
    without any re-projection, so the parts are exactly the matrix-level
    parts (on one copy of each block when t and w declare the same layout)
    and the metadata is the matrix route's.
    """
    ref, target, layout = _operands(w, t)
    dec = decompose(ref, target, method, tol)
    return dataclasses.replace(dec, ac=SesquilinearForm(t.basis_labels, dec.ac, layout),
                               sing=SesquilinearForm(t.basis_labels, dec.sing, layout))
