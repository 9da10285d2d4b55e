"""Hermitian PSD kernel: construction, eigendecomposition, pinv, projections, order."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oplebesgue
from oplebesgue import core
from oplebesgue import (
    DEFAULT_TOL,
    DimensionMismatchError,
    NumericalError,
    PsdMatrix,
    Tolerances,
    eig_hermitian,
    loewner_leq,
    pinv,
    range_projection,
)

from oplebesgue.core import (
    _blocks,
    _eigh,
    _frobenius,
    _hermitian_part,
    _svd,
    _svd_blocks,
    clip_psd,
    clip_psd_with_floor,
    psd_difference,
)

from helpers import random_psd, random_unitary, reference_blocks, reference_svd_blocks

SQ2 = 1.0 / np.sqrt(2.0)


def test_eig_identity(eigensolves):
    # the identity is five decoupled 1-dim blocks, which keep their order;
    # the constructor validates on their eigh calls and eig_hermitian reads
    # that factorization
    identity = PsdMatrix.identity(5)
    assert [(name, h.shape) for name, h in eigensolves] == [("eigh", (1, 1))] * 5
    eigensolves.clear()
    dec = eig_hermitian(identity)
    assert np.array_equal(dec.eigenvalues, np.ones(5))
    assert np.array_equal(dec.vectors, np.eye(5))
    assert eigensolves == []


@pytest.mark.parametrize("dim", [1, 5, 12, 64])
def test_fresh_matrix_reads_the_eigh_it_was_validated_on(eigensolves, dim):
    # the constructor keeps the one eigh it validated on: eig_hermitian runs
    # no solver and returns numpy's eigh, bitwise, in stable descending order
    m = random_psd(np.random.default_rng([8, dim]), dim)
    eigensolves.clear()
    dec = eig_hermitian(m)
    assert eigensolves == []
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(-w, kind="stable")
    assert np.array_equal(dec.eigenvalues, w[order])
    assert np.array_equal(dec.vectors, v[:, order])


@pytest.mark.parametrize("dim", [2, 5, 12, 64])
def test_constructor_decision_at_the_slack_edge(dim):
    # the smallest eigenvalue sits a relative delta inside or outside the
    # slack -psd_slack * (1 + lambda_max).  eigh's and eigvalsh's eigenvalues
    # differ by about 2e-15 * (1 + lambda_max), so the decision on the kept
    # eigh agrees with an eigvalsh of the same array for delta >= 1e-3
    rng = np.random.default_rng([9, dim])
    slack = DEFAULT_TOL.psd_slack
    for top in (1.0, 1e3):
        for delta in (1e-3, 1e-2, 1e-1):
            for sign, accept in ((-1.0, True), (1.0, False)):
                lowest = -slack * (1.0 + top) * (1.0 + sign * delta)
                w = np.concatenate([[top], rng.uniform(0.0, top, dim - 2), [lowest]])
                q = random_unitary(rng, dim)
                m = (q * w) @ q.conj().T
                m = (m + m.conj().T) / 2.0
                values = np.linalg.eigvalsh(_hermitian_part(m, DEFAULT_TOL))
                assert bool(values[0] >= -slack * (1.0 + np.max(np.abs(values)))) is accept
                if accept:
                    PsdMatrix(m)
                else:
                    with pytest.raises(ValueError, match="not positive semidefinite"):
                        PsdMatrix(m)


def test_eig_diagonal():
    dec = eig_hermitian(PsdMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(dec.vectors), np.eye(2))


def test_eig_offdiagonal_hand_solution():
    # characteristic polynomial of [[2,1],[1,2]] gives 3, 1 with (1,1), (1,-1)
    dec = eig_hermitian(PsdMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    for col, expected in ((0, [SQ2, SQ2]), (1, [SQ2, -SQ2])):
        overlap = abs(np.vdot(expected, dec.vectors[:, col]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (np.diag([2.0, 0.0]), np.diag([0.5, 0.0])),
        (np.eye(2), np.eye(2)),
        ([[1.0, 1.0], [1.0, 1.0]], [[0.25, 0.25], [0.25, 0.25]]),
    ],
)
def test_pinv_examples(matrix, expected):
    assert np.allclose(pinv(PsdMatrix(matrix)).entries, expected, atol=1e-12)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (np.diag([2.0, 0.0]), np.diag([1.0, 0.0])),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        ([[1.0, 1.0], [1.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]),
    ],
)
def test_range_projection_examples(matrix, expected):
    assert np.allclose(range_projection(PsdMatrix(matrix)).entries, expected, atol=1e-12)


def test_loewner_examples():
    assert loewner_leq(PsdMatrix.zero(2), PsdMatrix(np.diag([1.0, 2.0])))
    assert loewner_leq(PsdMatrix(np.diag([1.0, 2.0])), PsdMatrix(np.diag([2.0, 2.0])))
    # difference has eigenvalues +/- sqrt(2), so the order fails
    assert not loewner_leq(PsdMatrix(np.diag([2.0, 0.0])), PsdMatrix([[1.0, 1.0], [1.0, 1.0]]))


def test_loewner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        loewner_leq(PsdMatrix.identity(2), PsdMatrix.identity(3))


def test_eig_reconstruction_on_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(1, 11))
        m = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        dec = eig_hermitian(m)
        scale = 1.0 + m.norm
        assert np.linalg.norm(m.entries - (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T) <= DEFAULT_TOL.recon_tol * scale
        assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(dim)) <= DEFAULT_TOL.recon_tol
        assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dim = int(rng.integers(1, 11))
        m = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        p = pinv(m).entries
        h = m.entries
        scale = DEFAULT_TOL.recon_tol * (1.0 + m.norm + np.linalg.norm(p))
        assert np.linalg.norm(h @ p @ h - h) <= scale
        assert np.linalg.norm(p @ h @ p - p) <= scale
        assert np.linalg.norm((h @ p).conj().T - h @ p) <= scale
        assert np.linalg.norm((p @ h).conj().T - p @ h) <= scale


def test_range_projection_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        dim = int(rng.integers(1, 11))
        rank = int(rng.integers(0, dim + 1))
        m = random_psd(rng, dim, rank=rank)
        p = range_projection(m).entries
        scale = DEFAULT_TOL.recon_tol * (1.0 + m.norm)
        assert np.linalg.norm(p @ p - p) <= DEFAULT_TOL.recon_tol
        assert np.linalg.norm(p - p.conj().T) <= DEFAULT_TOL.recon_tol
        assert np.linalg.norm(p @ m.entries - m.entries) <= scale
        assert round(np.trace(p).real) == rank


def test_loewner_reflexive_and_chain():
    rng = np.random.default_rng(14)
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        a = random_psd(rng, dim)
        p = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        q = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        assert loewner_leq(a, a)
        assert loewner_leq(a, a + p)
        assert loewner_leq(a + p, a + p + q)
        assert loewner_leq(a, a + p + q)


def test_construction_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        PsdMatrix(np.ones((2, 3)))


def test_construction_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        PsdMatrix([[1.0, 1.0], [0.0, 1.0]])


def test_construction_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semidefinite"):
        PsdMatrix(np.diag([1.0, -1.0]))


def test_construction_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        PsdMatrix(np.diag([1.0, np.inf]))


def test_construction_symmetrizes_tiny_asymmetry():
    m = PsdMatrix([[1.0, 1e-12], [0.0, 1.0]])
    assert np.array_equal(m.entries, m.entries.conj().T)


def test_construction_rejects_asymmetry_beyond_the_squared_entry_range():
    # entries above about 1.3e154 overflow a squaring norm, which once made
    # the asymmetry bound infinite
    with pytest.raises(ValueError, match="not Hermitian"):
        PsdMatrix([[1e200, 1e200], [0.0, 1e200]])


def test_construction_keeps_entries_near_the_float_limit_finite():
    m = PsdMatrix([[1e308]])
    assert np.all(np.isfinite(m.entries))
    assert m.norm == 1e308
    assert eig_hermitian(m).eigenvalues.tolist() == [1e308]


def test_norm_matches_numpy_below_the_overflow_range():
    for scale in (1.0, 1e150):
        m = random_psd(np.random.default_rng(8), 7, rank=4, scale=scale)
        assert m.norm == float(np.linalg.norm(m.entries))


def test_entries_are_immutable():
    m = PsdMatrix.identity(2)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_array_protocol_copies_when_asked():
    m = PsdMatrix.identity(2)
    for copied in (np.array(m), np.array(m, copy=True)):
        assert not np.shares_memory(copied, m.entries)
        copied[0, 0] = 5.0
    assert m.entries[0, 0] == 1.0
    for viewed in (np.asarray(m), np.array(m, copy=False)):
        assert viewed is m.entries


def test_array_protocol_honours_copy_false_with_a_dtype():
    # complex128 is the stored dtype, so it needs no copy; any other dtype
    # needs a cast, which copy=False forbids (it used to drop the imaginary
    # parts of a copy)
    m = PsdMatrix([[2.0, 1j], [-1j, 2.0]])
    assert np.array(m, dtype=np.complex128, copy=False) is m.entries
    assert np.asarray(m, dtype=np.complex128) is m.entries
    copied = np.array(m, dtype=np.complex128)
    assert not np.shares_memory(copied, m.entries) and np.array_equal(copied, m.entries)
    with pytest.raises(ValueError, match="needs a copy"):
        np.array(m, dtype=float, copy=False)


def test_zero_dimensional_matrix_supported():
    m = PsdMatrix(np.zeros((0, 0)))
    assert m.dim == 0 and m.trace == 0.0
    assert pinv(m).dim == 0
    assert loewner_leq(m, m)


def test_negative_scaling_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        (-1.0) * PsdMatrix.identity(2)


@given(
    rank_rtol=st.floats(1e-15, 1e-2),
    psd_slack=st.floats(1e-15, 1e-2),
    iter_tol=st.floats(1e-15, 1e-2),
    max_iter=st.integers(1, 10**9),
)
@settings(deadline=None, max_examples=50)
def test_tolerances_accept_positive_values(rank_rtol, psd_slack, iter_tol, max_iter):
    tol = Tolerances(rank_rtol=rank_rtol, psd_slack=psd_slack, iter_tol=iter_tol, max_iter=max_iter)
    assert tol.max_iter == max_iter
    # a numpy integer is a count too, kept as a Python int
    counted = Tolerances(max_iter=np.int64(max_iter)).max_iter
    assert type(counted) is int and counted == max_iter


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rank_rtol": 0.0},
        {"psd_slack": -1e-9},
        {"iter_tol": 0.0},
        {"recon_tol": -1.0},
        {"max_iter": 0},
        {"rank_rtol": np.inf},
        {"psd_slack": np.inf},
        {"iter_tol": np.inf},
        {"recon_tol": np.inf},
        {"max_iter": True},
        {"max_iter": 5.0},
        {"rank_rtol": True},
    ],
)
def test_tolerances_reject_non_positive(kwargs):
    with pytest.raises(ValueError):
        Tolerances(**kwargs)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_gram_matrices_always_construct(dim, seed):
    # any X X* is PSD, whatever the draw
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = PsdMatrix(x @ x.conj().T)
    assert m.dim == dim


def test_support_drops_an_eigenvalue_exactly_at_the_cutoff():
    tol = Tolerances(rank_rtol=0.25)  # cutoff 0.25 * 4 = 1, exact in binary
    assert tol.support(np.array([4.0, 1.0, 0.5])).tolist() == [True, False, False]
    m = PsdMatrix(np.diag([4.0, 1.0, 0.5]))
    assert np.array_equal(range_projection(m, tol).entries, np.diag([1.0, 0.0, 0.0]))
    assert np.array_equal(pinv(m, tol).entries, np.diag([0.25, 0.0, 0.0]))


def test_support_of_an_empty_spectrum_is_empty():
    keep = DEFAULT_TOL.support(np.zeros(0))
    assert keep.shape == (0,) and keep.dtype == bool
    assert range_projection(PsdMatrix.zero(0)).dim == 0


@pytest.mark.parametrize("eigenvalues", [[0.0, 0.0], [0.0, -1e-300], [-1e-12, -2e-12]])
def test_support_is_empty_when_the_largest_eigenvalue_is_not_positive(eigenvalues):
    assert not DEFAULT_TOL.support(np.array(eigenvalues)).any()
    zero = PsdMatrix.zero(2)
    assert np.array_equal(pinv(zero).entries, np.zeros((2, 2)))
    assert np.array_equal(range_projection(zero).entries, np.zeros((2, 2)))


def _hermitian_with_spectrum(eigenvalues):
    u = random_unitary(np.random.default_rng(6), len(eigenvalues))
    h = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("context", ["parallel sum", "Schur complement", "doubling limit"])
def test_clip_rejects_negatives_beyond_the_noise(context):
    h = _hermitian_with_spectrum([2.0, 1.0, -1e-6])
    with pytest.raises(NumericalError, match=f"{context} lost positivity") as info:
        clip_psd(h, 1e-9, DEFAULT_TOL, context)
    assert info.value.residual == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_derived_difference_is_judged_against_its_noise(scale):
    # X - Y = diag(1, -1e-9) * scale: inside a noise of 1e-8 * scale, a
    # numerical failure of the named computation beyond 1e-10 * scale
    x = PsdMatrix(scale * np.diag([2.0, 1.0]))
    y = PsdMatrix(scale * np.diag([1.0, 1.0 + 1e-9]))
    assert psd_difference(x, y, 1e-8 * scale, "test step").dim == 2
    with pytest.raises(NumericalError, match="test step lost positivity") as info:
        psd_difference(x, y, 1e-10 * scale, "test step")
    assert info.value.residual == pytest.approx(1e-9 * scale, rel=1e-6)


def test_clip_keeps_the_clipped_spectrum_inside_the_noise(eigensolves):
    h = _hermitian_with_spectrum([2.0, 1.0, -1e-12])
    eigensolves.clear()
    m = clip_psd(h, 1e-9, DEFAULT_TOL, "parallel sum")
    assert len(eigensolves) == 1
    dec = eig_hermitian(m)
    assert len(eigensolves) == 1
    assert dec.eigenvalues[2] == 0.0
    assert np.allclose(dec.eigenvalues, [2.0, 1.0, 0.0], rtol=0.0, atol=1e-14)
    fresh = np.sort(np.linalg.eigvalsh(m.entries))[::-1]
    assert np.allclose(dec.eigenvalues, fresh, rtol=0.0, atol=1e-12 * m.norm)
    assert np.allclose(m.entries, h, rtol=0.0, atol=1e-11)


def _permuted_direct_sum(rng):
    """Dense blocks of sizes 3, 2 and 1 at scales 1, 1e-12 and 0.3, with their
    indices shuffled by one symmetric permutation: (matrix, index sets)."""
    blocks = [random_psd(rng, 3).entries, random_psd(rng, 2, scale=1e-12).entries,
              np.array([[0.3]])]
    dense = np.zeros((6, 6), dtype=complex)
    dense[:3, :3], dense[3:5, 3:5], dense[5:, 5:] = blocks
    perm = rng.permutation(6)
    inverse = np.argsort(perm)
    sets = sorted((np.sort(inverse[list(r)]) for r in (range(3), range(3, 5), range(5, 6))),
                  key=lambda idx: idx[0])
    return dense[np.ix_(perm, perm)], sets


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decoupled_blocks_are_solved_one_call_each(eigensolves, seed):
    h, sets = _permuted_direct_sum(np.random.default_rng([9, seed]))
    assert [idx.tolist() for idx in _blocks(h)] == [idx.tolist() for idx in sets]
    eigensolves.clear()
    w, v, ortho = _eigh(h)
    assert sorted(x.shape[0] for _, x in eigensolves) == [1, 2, 3]
    assert all(name == "eigh" for name, _ in eigensolves)
    assert np.allclose(w, np.linalg.eigvalsh(h)[::-1], rtol=0.0, atol=1e-14)
    # every eigenvector lives on the rows of one block, and the block at
    # 1e-12 keeps its own eigenvalues to relative accuracy
    for column in v.T:
        assert any(set(np.flatnonzero(column)) <= set(idx) for idx in sets)
    small = next(idx for idx in sets if idx.size == 2)
    assert np.allclose(np.sort(w[w < 1e-9]), np.linalg.eigvalsh(h[np.ix_(small, small)]),
                       rtol=1e-12, atol=0.0)
    assert ortho <= 1e-14
    assert np.allclose((v * w) @ v.conj().T, h, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("zero_entry", [False, True], ids=["dense", "one-zero"])
def test_one_block_is_one_plain_solver_call(eigensolves, zero_entry):
    # a matrix of one block gives exactly numpy's eigh with the stable
    # descending sort, also when row 0 has a zero and the search runs
    rng = np.random.default_rng(10)
    x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = x + x.conj().T
    if zero_entry:
        h[0, 1] = h[1, 0] = 0.0
    eigensolves.clear()
    w, v, _ = _eigh(h)
    assert [(name, m.shape) for name, m in eigensolves] == [("eigh", (7, 7))]
    w_ref, v_ref = np.linalg.eigh(h)
    order = np.argsort(-w_ref, kind="stable")
    assert np.array_equal(w, w_ref[order])
    assert np.array_equal(v, v_ref[:, order])


def test_one_block_hands_the_matrix_itself_to_the_solver(monkeypatch):
    # a dense matrix goes to numpy as it is, with no copy or re-embedding,
    # and comes back as numpy's eigh with the stable descending sort and the
    # unitarity residual of those vectors
    rng = np.random.default_rng(12)
    x = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = x + x.conj().T
    w_ref, v_ref = np.linalg.eigh(h)
    seen = []
    original = np.linalg.eigh

    def spy(m, *args, **kwargs):
        seen.append(m is h)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    w, v, ortho = _eigh(h)
    assert seen == [True]
    order = np.argsort(-w_ref, kind="stable")
    assert np.array_equal(w, w_ref[order])
    assert np.array_equal(v, v_ref[:, order])
    assert ortho == _frobenius(v.conj().T @ v - np.eye(64))


def test_hermitian_part_is_the_average_with_the_adjoint():
    # one contiguous adjoint for the check and the average gives bitwise
    # m/2 + (m/2)*, on a complex matrix with round-off asymmetry
    rng = np.random.default_rng(13)
    x = rng.normal(size=(192, 192)) + 1j * rng.normal(size=(192, 192))
    m = x @ x.conj().T + 1e-13 * rng.normal(size=(192, 192))
    assert not np.array_equal(m, m.conj().T)
    half = m / 2.0
    got = _hermitian_part(m, DEFAULT_TOL)
    assert np.array_equal(got, half + half.conj().T)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cut", [0.0, 1e-14, 1e-9, 0.3])
def test_clip_floor_bounds_what_the_clip_cut(seed, cut):
    # the clip is bitwise clip_psd's, and the floor lies below the smallest
    # eigenvalue of m - C, within 1e-12 ||m|| of it
    rng = np.random.default_rng([14, seed])
    n = 6 + 3 * seed
    w = np.concatenate([rng.uniform(0.0, 2.0, n - 3), -cut * rng.uniform(0.0, 1.0, 3)])
    u = random_unitary(rng, n)
    h = (u * w) @ u.conj().T
    clipped, floor = clip_psd_with_floor(h, DEFAULT_TOL)
    assert np.array_equal(clipped.entries, clip_psd(h, np.inf, DEFAULT_TOL, "test").entries)
    m = h / 2.0 + h.conj().T / 2.0
    lowest = float(np.linalg.eigvalsh(m - clipped.entries)[0])
    eps = np.finfo(float).eps
    assert lowest - 1e-12 * _frobenius(m) <= floor <= lowest + n * eps * _frobenius(m)
    assert floor <= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_clip_floor_holds_for_an_inexact_factorization(monkeypatch, seed):
    # eigenvectors off by 1e-7 leave m - C far from P = V diag(min(w, 0)) V*;
    # the reconstruction residual and the unitarity residual carry that
    rng = np.random.default_rng([15, seed])
    n = 7
    u = random_unitary(rng, n)
    h = (u * np.array([2.0, 1.0, 0.5, 0.1, 0.0, -1e-9, -1e-6])) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    exact = core._eigh

    def inexact(m):
        w, v, _ = exact(m)
        v = v + 1e-7 * (rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
        return w, v, _frobenius(v.conj().T @ v - np.eye(n))

    monkeypatch.setattr(core, "_eigh", inexact)
    clipped, floor = clip_psd_with_floor(h, DEFAULT_TOL)
    lowest = float(np.linalg.eigvalsh(h - clipped.entries)[0])
    assert floor <= lowest
    assert lowest - floor <= 1e-5 * _frobenius(h)


def _permuted_rectangular_blocks(rng, wide):
    """Blocks of shapes 2x3 and 3x1 at scales 1 and 1e-12 plus a zero row and
    a zero column, rows and columns shuffled (transposed when ``wide``):
    (matrix, {(rows, columns) of each block})."""
    def draw(shape, scale):
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    m = np.zeros((6, 5), dtype=complex)
    m[:2, :3], m[2:5, 3:4] = draw((2, 3), 1.0), draw((3, 1), 1e-12)
    rp, cp = rng.permutation(6), rng.permutation(5)
    inv_r, inv_c = np.argsort(rp), np.argsort(cp)
    sets = {(tuple(sorted(inv_r[list(r)])), tuple(sorted(inv_c[list(c)])))
            for r, c in ((range(2), range(3)), (range(2, 5), range(3, 4)),
                         (range(5, 6), range(0)), (range(0), range(4, 5)))}
    m = m[np.ix_(rp, cp)]
    if wide:
        return m.T.copy(), {(c, r) for r, c in sets}
    return m, sets


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("full", [True, False], ids=["full", "thin"])
def test_svd_of_decoupled_blocks_is_one_call_per_block(eigensolves, wide, full):
    m, sets = _permuted_rectangular_blocks(np.random.default_rng([12, wide]), wide)
    assert {(tuple(r), tuple(c)) for r, c in _svd_blocks(m)} == sets
    eigensolves.clear()
    u, s, vh = _svd(m, full)
    assert sorted(x.shape for _, x in eigensolves) == sorted([(2, 3), (3, 1)] if not wide
                                                             else [(3, 2), (1, 3)])
    k = min(m.shape)
    ref_u, ref_s, ref_vh = np.linalg.svd(m, full_matrices=full)
    assert (u.shape, s.shape, vh.shape) == (ref_u.shape, ref_s.shape, ref_vh.shape)
    assert np.allclose(s, ref_s, rtol=0.0, atol=1e-14)
    assert np.all(np.diff(s) <= 0.0)
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0.0, atol=1e-14)
    assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]), rtol=0.0, atol=1e-14)
    assert np.allclose((u[:, :k] * s) @ vh[:k], m, rtol=0.0, atol=1e-14)
    # the block at 1e-12 keeps its singular value to relative accuracy, and
    # every singular vector lives on the rows (columns) of one block
    small = next(block for block in sets if len(block[0]) + len(block[1]) == 4)
    assert np.isclose(s[2], np.linalg.svd(m[np.ix_(*small)], compute_uv=False)[0],
                      rtol=1e-12, atol=0.0)
    for vectors, side in ((u.T, 0), (vh, 1)):
        for vec in vectors:
            assert any(set(np.flatnonzero(vec)) <= set(block[side]) for block in sets)


@pytest.mark.parametrize("zero_entry", [False, True], ids=["dense", "one-zero"])
@pytest.mark.parametrize("full", [True, False], ids=["full", "thin"])
def test_one_svd_block_is_one_plain_solver_call(eigensolves, zero_entry, full):
    # a matrix of one block gives exactly numpy's SVD, also when row 0 has a
    # zero and the search runs
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    if zero_entry:
        m[0, 1] = 0.0
    eigensolves.clear()
    got = _svd(m, full)
    assert [(name, x.shape) for name, x in eigensolves] == [("svd", (5, 7))]
    for part, ref in zip(got, np.linalg.svd(m, full_matrices=full)):
        assert np.array_equal(part, ref)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
@pytest.mark.parametrize("full", [True, False], ids=["full", "thin"])
def test_empty_inputs_make_no_solver_call(eigensolves, shape, full):
    # the factors of an empty input are identities of the right shapes
    m = np.zeros(shape, dtype=np.complex128)
    got = _svd(m, full)
    if shape[0] == shape[1]:
        w, v, ortho = _eigh(m)
        assert (w.shape, v.shape, v.dtype, ortho) == ((0,), (0, 0), np.complex128, 0.0)
    assert eigensolves == []
    for part, ref in zip(got, np.linalg.svd(m, full_matrices=full)):
        assert part.shape == ref.shape and part.dtype == ref.dtype
        assert np.array_equal(part, ref)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frobenius_is_numpys_norm_bitwise(kind):
    rng = np.random.default_rng([50, kind == "complex"])
    for exponent in range(-150, 151, 10):
        x = rng.normal(size=(9, 7)) * 10.0**exponent
        if kind == "complex":
            x = x + 1j * rng.normal(size=(9, 7)) * 10.0**exponent
        for view in (x, np.asfortranarray(x), x.T, x[::2, 1::3], x[:, ::-1], x.reshape(-1)[::5]):
            ref = float(np.linalg.norm(view))
            assert 1e-150 <= ref < np.inf
            assert _frobenius(view).hex() == ref.hex()


@pytest.mark.parametrize("seed, scale, norms", [
    (51, 1e200, (6.29352001607562e+200, 4.242865505816114e+200)),
    (52, 1e-200, (6.192177701888398e-200, 3.597702177784228e-200)),
])
def test_frobenius_rescales_outside_the_squaring_range(seed, scale, norms):
    # the values the rescaling gave before the norm stopped going through
    # numpy.linalg.norm, where squaring overflows or underflows
    rng = np.random.default_rng(seed)
    m = (rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))) * scale
    assert (_frobenius(m), _frobenius(m.real.copy()), _frobenius(m.T)) == (norms[0], norms[1],
                                                                          norms[0])


@pytest.mark.parametrize("shape", [(3, 3), (0, 0), (0, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_of_zero_and_empty_input_is_zero(shape, dtype):
    assert _frobenius(np.zeros(shape, dtype=dtype)) == 0.0


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308])
def test_hermitian_part_scans_entries_only_when_the_norm_is_not_finite(entry):
    # finite entries whose norm overflows pass; a non-finite one is caught
    m = np.full((8, 8), 1e308)
    m[3, 5] = m[5, 3] = entry
    if np.isfinite(entry):
        assert np.array_equal(_hermitian_part(m, DEFAULT_TOL), m)
    else:
        with pytest.raises(ValueError, match="must be finite"):
            _hermitian_part(m, DEFAULT_TOL)


def _no_search(linked):
    raise AssertionError("the clique test should have settled this pattern")


def _square_pattern(rng, kind):
    """A complex matrix whose nonzero pattern is interleaved cliques, with
    zero rows and columns for ``zero-lines``, joined by one-sided extra links
    for ``connected``.  For ``hollow`` it is Hermitian and indefinite, a
    permuted direct sum of [[0, z], [conj(z), 0]] blocks (and a zero 1 x 1
    one when n is odd), as B - A or a settled X can be: each index is linked
    to its partner but not to itself."""
    n = int(rng.integers(2, 24))
    if kind == "hollow":
        partner = rng.permutation(n) // 2
        linked = (partner[:, None] == partner) & ~np.eye(n, dtype=bool)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return np.where(linked, x + x.conj().T, 0.0)
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    linked = labels[:, None] == labels
    if kind == "zero-lines":
        dead = rng.random(n) < 0.3
        linked[dead] = False
        linked[:, dead] = False
    elif kind == "connected":
        linked |= rng.random((n, n)) < 1.5 / n
    return np.where(linked, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)


def _bipartite_pattern(rng, kind):
    """A rectangular complex matrix whose nonzero pattern is interleaved
    complete bipartite blocks (classes with no row or no column leave zero
    lines), with more zero lines for ``zero-lines`` and with links removed
    and added for ``connected``."""
    r, c = (int(d) for d in rng.integers(1, 20, size=2))
    classes = int(rng.integers(1, 6))
    met = rng.integers(0, classes, size=r)[:, None] == rng.integers(0, classes, size=c)
    if kind == "zero-lines":
        met[rng.random(r) < 0.2] = False
        met[:, rng.random(c) < 0.2] = False
    elif kind == "connected":
        met = (met & (rng.random((r, c)) < 0.8)) | (rng.random((r, c)) < 1.0 / max(r, c))
    return np.where(met, rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c)), 0.0)


@pytest.mark.parametrize("kind", ["cliques", "zero-lines", "connected", "hollow"])
def test_blocks_match_a_reference_search(monkeypatch, eigensolves, kind):
    searches = []
    if kind == "connected":
        search = core._components
        monkeypatch.setattr(core, "_components", lambda linked: searches.append(1) or search(linked))
    else:
        monkeypatch.setattr(core, "_components", _no_search)
    for seed in range(400):
        h = _square_pattern(np.random.default_rng([41, seed]), kind)
        blocks = _blocks(h)
        assert [idx.tolist() for idx in blocks] == reference_blocks(h)
        if kind == "hollow":
            # a zero diagonal entry does not split an index from its partner:
            # the clique test links every index to itself
            values = np.linalg.eigvalsh(h)[::-1]
            eigensolves.clear()
            w = _eigh(h)[0]
            assert [m.shape[0] for _, m in eigensolves] == [idx.size for idx in blocks]
            assert np.allclose(w, values, rtol=0.0, atol=1e-14 * (1.0 + _frobenius(h)))
    assert kind != "connected" or len(searches) > 100


@pytest.mark.parametrize("kind", ["bicliques", "zero-lines", "connected"])
def test_svd_blocks_match_a_reference_search(monkeypatch, kind):
    searches = []
    if kind == "connected":
        search = core._components
        monkeypatch.setattr(core, "_components", lambda linked: searches.append(1) or search(linked))
    else:
        monkeypatch.setattr(core, "_components", _no_search)
    for seed in range(400):
        m = _bipartite_pattern(np.random.default_rng([42, seed]), kind)
        got = [(rows.tolist(), cols.tolist()) for rows, cols in _svd_blocks(m)]
        assert got == reference_svd_blocks(m)
    assert kind != "connected" or len(searches) > 100


def test_only_core_calls_the_eigensolvers():
    # One solver boundary: core turns a LAPACK failure into NumericalError and
    # looks numpy up at call time, so the eigensolves fixture sees every call.
    # Its only Hermitian solver is eigh: no module, core included, calls
    # eigvalsh.
    call = re.compile(r"(?<!\w)(eigh|eigvalsh|svd)\s*\(|linalg import")
    package = Path(oplebesgue.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    assert sorted(name for name, text in sources.items() if call.search(text)) == ["core.py"]
    assert not [name for name, text in sources.items() if re.search(r"eigvalsh\s*\(", text)]


def test_every_package_export_is_exported_by_its_module():
    # each name the package exports is re-exported from one submodule, whose
    # own __all__ lists it
    tree = ast.parse(Path(oplebesgue.__file__).read_text())
    home = {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    for name in oplebesgue.__all__:
        module = importlib.import_module(f"oplebesgue.{home[name]}")
        assert name in module.__all__, (name, module.__name__)
