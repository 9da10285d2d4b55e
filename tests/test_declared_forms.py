"""Forms that declare their Gram as copies of blocks.

The induced form of a block functional is n_k copies of each rho_k^T, so
the form operations run the matrix routes once, on the one-copy Grams.
These tests compare that path with the same routes on the full Grams,
check the declared layout's bookkeeping, and pin the work it saves.
"""

import numpy as np
import pytest

from oplebesgue import (
    NumericalError,
    PsdMatrix,
    SesquilinearForm,
    StarAlgebra,
    Tolerances,
    decompose,
    eig_hermitian,
    form_decompose,
    form_parallel_sum,
    functional_decompose,
    functional_from_densities,
    functional_parallel_sum,
    induced_form,
    parallel_sum,
)
from oplebesgue import forms

from helpers import hostile_functional, random_psd

MIXED = StarAlgebra((2, 3, 1))
METHODS = ("direct", "iterate", "ando")
# caps iterate's one-step-per-eigenvalue-ratio draws, which end flagged
_TOL = Tolerances(max_iter=3000)


def _mixed_pair(seed):
    rng = np.random.default_rng(seed)
    w = functional_from_densities(MIXED, [random_psd(rng, n).entries for n in MIXED.block_dims])
    v = functional_from_densities(MIXED, [random_psd(rng, n, rank=n - 1).entries
                                          for n in MIXED.block_dims])
    return w, v


def _hostile_pairs():
    for spread in (1e3, 1e6, 1e12):
        for across in (1.0, 1e6, 1e12):
            rng = np.random.default_rng([41, int(np.log10(spread)), int(np.log10(across))])
            for dims in [(3,), (2, 3), (4, 1, 3), (2, 3, 1)]:
                for _ in range(2):
                    scales = [across ** -rng.uniform(0.0, 1.0, size=len(dims)) for _ in "wv"]
                    yield (hostile_functional(rng, dims, spread, scales[0]),
                           hostile_functional(rng, dims, spread, scales[1]))


PAIRS = [_mixed_pair(seed) for seed in (71, 72)] + list(_hostile_pairs())


def _kron_expansion(w):
    """The full induced Gram of w on MIXED, built blockwise by kron."""
    full = np.zeros((14, 14), dtype=complex)
    start = 0
    for n, rho in zip(MIXED.block_dims, w.densities):
        full[start:start + n * n, start:start + n * n] = np.kron(np.eye(n), rho.entries.T)
        start += n * n
    return full


def _gap(part, dense):
    return np.linalg.norm(induced_form(part).gram.entries - dense.entries)


def _bound(tw, tv):
    # the contract's residual tolerance at the pair's scale ||Gram w|| +
    # ||Gram v|| bounds how far two evaluations of the same part may differ
    return _TOL.recon_tol * (tw.gram.norm + tv.gram.norm)


def test_parallel_sum_on_one_copy_matches_the_full_gram():
    for index, (w, v) in enumerate(PAIRS):
        tw, tv = induced_form(w), induced_form(v)
        try:
            dense = parallel_sum(tw.gram, tv.gram, _TOL)
        except NumericalError:
            continue
        assert _gap(functional_parallel_sum(w, v, _TOL), dense) <= _bound(tw, tv), index


@pytest.mark.parametrize("method", METHODS)
def test_decomposition_on_one_copy_matches_the_full_gram_or_is_flagged(method):
    for index, (w, v) in enumerate(PAIRS):
        tw, tv = induced_form(w), induced_form(v)
        try:
            dense = decompose(tv.gram, tw.gram, method, _TOL)
        except NumericalError:
            continue
        dec = functional_decompose(w, v, method, _TOL)
        if dec.converged and dense.converged:
            assert _gap(dec.ac, dense.ac) <= _bound(tw, tv), index
            assert _gap(dec.sing, dense.sing) <= _bound(tw, tv), index


def test_the_induced_form_declares_one_copy_of_each_density():
    w, _ = _mixed_pair(73)
    t = induced_form(w)
    assert t.layout == ((2, 2), (3, 3), (1, 1))
    assert t.dim == len(t.basis_labels) == 4 + 9 + 1
    assert t.copy_gram.dim == 2 + 3 + 1
    for g, rho in zip(t.blocks(), w.densities):
        assert np.array_equal(g, rho.entries.T)
    assert np.array_equal(t.gram.entries, _kron_expansion(w))
    assert t.norm == pytest.approx(t.gram.norm, rel=1e-14)


def test_a_plain_form_is_its_own_one_copy_gram():
    g = random_psd(np.random.default_rng(74), 3)
    t = SesquilinearForm(("x", "y", "z"), g)
    assert t.layout == ((3, 1),)
    assert t.gram is g and t.copy_gram is g
    assert t.norm == g.norm


def test_the_expanded_gram_is_built_unfactored_and_solved_per_copy(eigensolves):
    # the full Gram is the kron expansion of the one-copy blocks, built with
    # no solver; reading its spectrum factors it, and the nonzero-pattern
    # split solves each of the n copies of each dense n x n density once
    w, _ = _mixed_pair(75)
    eigensolves.clear()
    gram = induced_form(w).gram
    assert np.array_equal(gram.entries, _kron_expansion(w))
    assert eigensolves == []
    eig_hermitian(gram)
    assert sorted((name, h.shape[0]) for name, h in eigensolves) == sorted(
        ("eigh", n) for n in MIXED.block_dims for _ in range(n))


def test_a_declared_layout_must_match_the_labels_and_be_block_diagonal():
    g = PsdMatrix(np.diag([1.0, 2.0, 3.0]))
    labels = tuple("abcdefg")
    assert SesquilinearForm(labels, g, ((1, 3), (2, 2))).gram.dim == 7
    with pytest.raises(ValueError, match="basis labels"):
        SesquilinearForm(labels[:6], g, ((1, 3), (2, 2)))
    with pytest.raises(ValueError, match="layout"):
        SesquilinearForm(labels, g, ((2, 3), (2, 2)))
    with pytest.raises(ValueError, match="layout"):
        SesquilinearForm(labels[:3], g, ((1, 0), (2, 1), (0, 1)))
    # sizes and multiplicities are integers, never truncated floats or bools
    for layout in (((2.9, 2.0), (1, 3)), ((1, 3), (2, 2.0)), ((True, 3), (2, 2))):
        with pytest.raises(ValueError, match="layout"):
            SesquilinearForm(labels, g, layout)
    declared = SesquilinearForm(labels, g, ((np.int64(1), np.int32(3)), (2, np.uint8(2))))
    assert declared.layout == ((1, 3), (2, 2))
    coupled = PsdMatrix([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="block diagonal"):
        SesquilinearForm(labels, coupled, ((1, 3), (2, 2)))


@pytest.mark.parametrize("method", METHODS)
def test_a_declared_and_a_plain_form_run_on_the_full_grams(method):
    # the layouts differ, so the operation expands the declared one and its
    # result is a plain form, exactly the matrix route's on the full Grams
    w, v = _mixed_pair(76)
    tw, tv = induced_form(w), induced_form(v)
    plain = SesquilinearForm(tv.basis_labels, PsdMatrix(tv.gram.entries))
    summed = form_parallel_sum(tw, plain)
    assert summed.layout == ((14, 1),)
    assert np.array_equal(summed.gram.entries, parallel_sum(tw.gram, plain.gram).entries)
    dec = form_decompose(tw, plain, method)
    dense = decompose(plain.gram, tw.gram, method)
    assert dec.ac.layout == dec.sing.layout == ((14, 1),)
    assert np.array_equal(dec.ac.gram.entries, dense.ac.entries)
    assert np.array_equal(dec.sing.gram.entries, dense.sing.entries)
    assert (dec.iterations, dec.converged) == (dense.iterations, dense.converged)
    declared = form_decompose(tw, tv, method)
    assert declared.ac.layout == tw.layout
    gap = np.linalg.norm(declared.ac.gram.entries - dec.ac.gram.entries)
    assert gap <= _bound(tw, tv)


def test_a_block_functional_op_solves_nothing_above_a_block(eigensolves, monkeypatch):
    # one (8, 8, 8) op of each kind: the induced forms declare their 192-dim
    # Grams as eight copies of three 8-dim blocks, the routes run on the 24-dim
    # one-copy Grams, whose eigensolves split into the 8-dim blocks, and the
    # densities are read off that copy, so no full Gram is ever expanded
    expanded = []

    def recorded(g, layout):
        expanded.append(layout)
        return original(g, layout)

    original = forms._expanded
    monkeypatch.setattr(forms, "_expanded", recorded)
    algebra = StarAlgebra((8, 8, 8))
    rng = np.random.default_rng(77)
    w, v = (functional_from_densities(algebra, [random_psd(rng, 8, rank=5).entries
                                                for _ in range(3)]) for _ in "wv")
    eigensolves.clear()
    functional_parallel_sum(w, v)
    for method in METHODS:
        functional_decompose(w, v, method)
    solved = [h.shape[-1] for name, h in eigensolves if name in ("eigh", "eigvalsh", "svd")]
    assert solved and max(solved) <= 8
    assert expanded == []
