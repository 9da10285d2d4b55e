"""Nonnegative sesquilinear forms on a finite basis, reduced to the matrix machinery."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, PsdMatrix, Tolerances
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
    """

    basis_labels: tuple[str, ...]
    gram: PsdMatrix

    def __post_init__(self):
        labels = tuple(self.basis_labels)
        object.__setattr__(self, "basis_labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        if len(labels) != self.gram.dim:
            raise ValueError(
                f"{len(labels)} basis labels do not match Gram dimension {self.gram.dim}"
            )

    @property
    def dim(self) -> int:
        return self.gram.dim

    def value(self, x, y) -> complex:
        """t(x, y) for coordinate vectors (second argument conjugated)."""
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        return complex(np.vdot(y, self.gram.entries @ x))

    def quadratic(self, x) -> float:
        """t[x] = t(x, x)."""
        return self.value(x, x).real


def _require_same_basis(t: SesquilinearForm, w: SesquilinearForm) -> None:
    if t.basis_labels != w.basis_labels:
        raise ValueError("forms are defined over different bases")


def induced_operator(t: SesquilinearForm) -> PsdMatrix:
    """The positive operator T with <Tx, y> = t(x, y) on the anti-dual pair.

    In coordinates this is the Gram matrix itself; kept as a named operation
    so the reduction from forms to matrices stays explicit and testable.
    """
    return t.gram


def form_parallel_sum(
    t: SesquilinearForm, w: SesquilinearForm, tol: Tolerances = DEFAULT_TOL
) -> SesquilinearForm:
    """Parallel sum of forms: the form whose value at x is inf over y of
    w[x - y] + t[y]."""
    _require_same_basis(t, w)
    return SesquilinearForm(t.basis_labels, parallel_sum(t.gram, w.gram, tol))


def form_decompose(
    t: SesquilinearForm,
    w: SesquilinearForm,
    method: Method | str = Method.DIRECT,
    tol: Tolerances = DEFAULT_TOL,
) -> LebesgueDecomposition[SesquilinearForm]:
    """Lebesgue decomposition of the form t into w-closable and w-singular parts.

    Delegates to the matrix decomposition of the Gram matrices without any
    re-projection, so the parts are exactly the matrix-level parts and the
    metadata is the matrix route's.
    """
    _require_same_basis(t, w)
    dec = decompose(w.gram, t.gram, method, tol)
    return dataclasses.replace(dec, ac=SesquilinearForm(t.basis_labels, dec.ac),
                               sing=SesquilinearForm(t.basis_labels, dec.sing))
