"""Sesquilinear forms over a finite basis and their reduction to matrices."""

import numpy as np
import pytest

from oplebesgue import (
    LebesgueDecomposition,
    PsdMatrix,
    SesquilinearForm,
    decompose,
    form_decompose,
    form_parallel_sum,
    induced_operator,
    variational_value,
)

from helpers import random_psd

XY = ("x", "y")


def form(gram, labels=XY):
    return SesquilinearForm(labels, PsdMatrix(gram))


def test_labels_must_be_unique():
    with pytest.raises(ValueError, match="unique"):
        form(np.eye(2), labels=("x", "x"))


def test_labels_must_match_dimension():
    with pytest.raises(ValueError, match="labels"):
        form(np.eye(3))


def test_gram_convention_round_trip():
    # gram[i, j] = t(e_j, e_i)
    gram = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    t = form(gram)
    basis = np.eye(2)
    for i in range(2):
        for j in range(2):
            assert t.value(basis[j], basis[i]) == pytest.approx(gram[i, j])


def test_form_is_sesquilinear():
    t = form([[2.0, 1.0], [1.0, 3.0]])
    x = np.array([1.0, 2.0j])
    y = np.array([0.5, -1.0])
    assert t.value(2j * x, y) == pytest.approx(2j * t.value(x, y))
    assert t.value(x, 2j * y) == pytest.approx(-2j * t.value(x, y))
    assert t.value(x, y) == pytest.approx(np.conj(t.value(y, x)))


@pytest.mark.parametrize(
    "gram",
    [np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0])],
)
def test_induced_operator_is_the_gram(gram):
    t = form(gram)
    assert np.array_equal(induced_operator(t).entries, t.gram.entries)


def test_parallel_sum_identity_halves():
    t = form(np.eye(2))
    got = form_parallel_sum(t, t)
    assert np.allclose(got.gram.entries, np.eye(2) / 2, atol=1e-14)


def test_parallel_sum_zero_form_annihilates():
    got = form_parallel_sum(form(np.zeros((2, 2))), form([[2.0, 1.0], [1.0, 2.0]]))
    assert got.gram.norm == 0.0


def test_parallel_sum_requires_same_basis():
    with pytest.raises(ValueError, match="bases"):
        form_parallel_sum(form(np.eye(2)), form(np.eye(2), labels=("a", "b")))


def test_parallel_sum_matches_variational_oracle():
    rng = np.random.default_rng(51)
    labels = ("e1", "e2", "e3")
    t = SesquilinearForm(labels, random_psd(rng, 3))
    w = SesquilinearForm(labels, random_psd(rng, 3, rank=2))
    summed = form_parallel_sum(t, w)
    for _ in range(10):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        oracle = variational_value(w.gram, t.gram, x)
        assert abs(summed.quadratic(x) - oracle) <= 1e-6 * (1.0 + abs(oracle))


def test_quadratic_form_order():
    rng = np.random.default_rng(52)
    labels = ("e1", "e2", "e3", "e4")
    for _ in range(5):
        t = SesquilinearForm(labels, random_psd(rng, 4))
        w = SesquilinearForm(labels, random_psd(rng, 4, rank=3))
        summed = form_parallel_sum(t, w)
        for _ in range(20):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert summed.quadratic(x) <= t.quadratic(x) + 1e-9 * (1.0 + t.quadratic(x))
            assert summed.quadratic(x) <= w.quadratic(x) + 1e-9 * (1.0 + w.quadratic(x))


def test_decompose_with_invertible_weight():
    t = form([[2.0, 1.0], [1.0, 2.0]])
    dec = form_decompose(t, form(np.eye(2)))
    assert np.allclose(dec.ac.gram.entries, t.gram.entries, atol=1e-12)
    assert dec.sing.gram.norm <= 1e-12


def test_decompose_with_zero_weight():
    t = form([[2.0, 1.0], [1.0, 2.0]])
    dec = form_decompose(t, form(np.zeros((2, 2))), "iterate")
    assert dec.ac.gram.norm == 0.0
    assert np.array_equal(dec.sing.gram.entries, t.gram.entries)


def test_decompose_skew_rank_one_is_fully_singular():
    # same matrix instance as the operator case: trivial range intersection
    t = form([[1.0, 1.0], [1.0, 1.0]])
    dec = form_decompose(t, form(np.diag([1.0, 0.0])))
    assert dec.ac.gram.norm <= 1e-12
    assert np.allclose(dec.sing.gram.entries, t.gram.entries, atol=1e-12)


def test_reduction_is_bitwise_delegation():
    rng = np.random.default_rng(53)
    labels = ("e1", "e2", "e3")
    t = SesquilinearForm(labels, random_psd(rng, 3))
    w = SesquilinearForm(labels, random_psd(rng, 3, rank=1))
    from oplebesgue import decompose

    dec_form = form_decompose(t, w, "direct")
    dec_matrix = decompose(w.gram, t.gram, "direct")
    assert np.array_equal(dec_form.ac.gram.entries, dec_matrix.ac.entries)
    assert np.array_equal(dec_form.sing.gram.entries, dec_matrix.sing.entries)


@pytest.mark.parametrize("method", ["direct", "iterate", "ando"])
def test_form_decomposition_is_the_matrix_result(method):
    rng = np.random.default_rng(55)
    labels = ("e1", "e2", "e3")
    t = SesquilinearForm(labels, random_psd(rng, 3))
    w = SesquilinearForm(labels, random_psd(rng, 3, rank=2))
    dec = form_decompose(t, w, method)
    matrix = decompose(w.gram, t.gram, method)
    assert isinstance(dec, LebesgueDecomposition)
    assert (dec.method, dec.iterations, dec.residual, dec.converged) == (
        matrix.method, matrix.iterations, matrix.residual, matrix.converged)
    ac, sing = dec
    assert ac is dec.ac and sing is dec.sing
    assert ac.basis_labels == sing.basis_labels == labels
    assert np.array_equal(ac.gram.entries, matrix.ac.entries)
    assert np.array_equal(sing.gram.entries, matrix.sing.entries)


def test_closable_part_of_diagonal_forms_splits_by_support():
    t = form(np.diag([3.0, 5.0, 2.0]), labels=("a", "b", "c"))
    w = form(np.diag([1.0, 0.0, 2.0]), labels=("a", "b", "c"))
    dec = form_decompose(t, w)
    assert np.allclose(dec.ac.gram.entries, np.diag([3.0, 0.0, 2.0]), atol=1e-12)
    assert np.allclose(dec.sing.gram.entries, np.diag([0.0, 5.0, 0.0]), atol=1e-12)


def test_iterate_limit_matches_direct_on_forms():
    rng = np.random.default_rng(54)
    labels = tuple(f"e{i}" for i in range(4))
    for _ in range(5):
        t = SesquilinearForm(labels, random_psd(rng, 4, rank=3))
        w = SesquilinearForm(labels, random_psd(rng, 4, rank=2))
        direct = form_decompose(t, w, "direct")
        iterate = form_decompose(t, w, "iterate")
        if iterate.converged:
            gap = np.linalg.norm(direct.sing.gram.entries - iterate.sing.gram.entries)
            assert gap <= 1e-6 * (1.0 + t.gram.norm)
