"""Parallel sum: closed form, variational oracle, doubling limit, spectral shortcut."""

import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

from oplebesgue import (
    DEFAULT_TOL,
    DimensionMismatchError,
    NumericalError,
    PsdMatrix,
    Tolerances,
    ando_ac_part,
    loewner_leq,
    parallel_sum,
    spectral_ac_of_contraction,
    variational_value,
)
from oplebesgue import core, eig_hermitian, parallel
from oplebesgue.core import roundoff
from oplebesgue.lebesgue import arlinskii_iterate, direct_decompose

from helpers import (
    anderson_trapp_ac,
    random_contraction,
    random_pair,
    random_psd,
    random_unitary,
    schur_parallel_sum,
)


def test_equal_identities_halve():
    got = parallel_sum(PsdMatrix.identity(2), PsdMatrix.identity(2))
    assert np.allclose(got.entries, np.eye(2) / 2, atol=1e-14)


def test_orthogonal_supports_annihilate():
    got = parallel_sum(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0])))
    assert got.norm <= 1e-14


def test_rank_one_with_trivial_intersection():
    # ran A and ran B meet only in 0, so A : B = 0 (checked by hand via A(A+B)^{-1}B)
    got = parallel_sum(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix([[1.0, 1.0], [1.0, 1.0]]))
    assert got.norm <= 1e-12


@pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e6, 1e12])
def test_small_operand_inside_the_large_ones_range(ratio):
    # ran B = ran A, so the Schur complement on the kernel of the larger
    # operand is round-off; off-axis eigenvectors keep it from being exact zero
    q = np.array([1.0, 2.0, 2.0]) / 3.0
    got = parallel_sum(PsdMatrix(np.outer(q, q)), PsdMatrix(ratio * np.outer(q, q)))
    assert np.linalg.norm(got.entries - ratio / (1.0 + ratio) * np.outer(q, q)) <= 1e-13


@pytest.mark.parametrize("exponent", [3, 6, 8, 10, 12])
def test_parallel_sum_matches_the_schur_oracle_on_hostile_spreads(exponent):
    # every draw clears the positivity bound: a bound at the scale of the
    # small operand alone, blind to the conditioning of the split, rejected
    # 1, 2, 1 and 5 of these draws at 1e6, 1e8, 1e10 and 1e12.  The oracle's
    # cutoff on A + B and the package's on the larger operand and the Schur
    # complement can decide eigenvalues near 1e-10 of the largest
    # differently, by up to about 4e-8
    rng = np.random.default_rng([31, exponent])
    for i in range(150):
        a, b = random_pair(rng, 12, ratio=10.0**exponent)
        error = np.linalg.norm(parallel_sum(a, b).entries
                               - schur_parallel_sum(a.entries, b.entries))
        assert error <= 1e-7 * (a.norm + b.norm), (i, error)


def test_parallel_sum_clears_the_bound_on_an_ill_conditioned_split():
    # the Schur complement's smallest kept eigenvalue, 3.9e-7, sets the
    # round-off of the product: its clip cuts -7.6e-13, against 2.5e-13 at
    # the scale of ||S|| alone
    a, b = random_pair(np.random.default_rng([3, 6, 282]), 12, ratio=1e6)
    error = np.linalg.norm(parallel_sum(a, b).entries - schur_parallel_sum(a.entries, b.entries))
    assert error <= 1e-10 * (a.norm + b.norm)


def test_nonsingular_split_stays_on_the_larger_range(monkeypatch, eigensolves):
    # B is invertible, so the Schur complement on ker A is nonsingular: the
    # result is A's kept eigenvectors times the clipped 6 x 6 block, kept
    # with A's kernel vectors, turned by Sigma's eigenvectors, at eigenvalue
    # zero, and needs no eigensolve of its own afterwards
    rng = np.random.default_rng(26)
    a, b = random_psd(rng, 9, rank=6, scale=10.0), random_psd(rng, 9, rank=9)
    eigensolves.clear()
    solves = _counted_solves(monkeypatch)
    got = parallel_sum(a, b)
    assert [h.shape[0] for _, h in eigensolves] == [3, 6]
    # one LU of h (rank A = 6); Sigma is applied in its eigenbasis
    assert solves == {6: 1}
    eigensolves.clear()
    dec, kernel = eig_hermitian(got), eig_hermitian(a).vectors[:, 6:]
    assert eigensolves == []
    # the zero-eigenvalue vectors span ker A
    assert np.linalg.norm(kernel @ (kernel.conj().T @ dec.vectors[:, 6:]) - dec.vectors[:, 6:]) <= 1e-14
    assert np.array_equal(dec.eigenvalues[6:], np.zeros(3))
    assert np.linalg.norm(got.entries @ kernel) <= 1e-14 * got.norm
    rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    assert np.allclose(rebuilt, got.entries, rtol=0.0, atol=1e-14 * got.norm)
    oracle = schur_parallel_sum(a.entries, b.entries)
    assert np.linalg.norm(got.entries - oracle) <= 1e-13 * (a.norm + b.norm)


def test_singular_sum_is_formed_off_the_kept_schur_directions(monkeypatch, eigensolves):
    # ran B meets ran A in 8 dimensions, so Sigma on the 48-dim ker D has
    # rank 8 and its rank decision drops 40 directions: the product is
    # formed on ran D and those 40, not on all 64, and Sigma is applied in
    # its eigenbasis with no solve
    rng = np.random.default_rng(44)
    x = rng.normal(size=(64, 16))
    y = np.hstack([x @ rng.normal(size=(16, 8)), rng.normal(size=(64, 8))])
    a, b = PsdMatrix(x @ x.T), PsdMatrix(y @ y.T)
    eigensolves.clear()
    solves = _counted_solves(monkeypatch)
    got = parallel_sum(a, b)
    assert [h.shape[0] for _, h in eigensolves] == [48, 56]
    assert solves == {16: 1}
    # the kept factorization [Q1 V | U0 W+] rebuilds the result, and its
    # unitarity residual stays under the bound it carries
    factored = got._factorization()
    vectors, values = factored.dec.vectors, factored.dec.eigenvalues
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(64)) <= factored.ortho
    assert np.array_equal(values[56:], np.zeros(8))
    assert np.allclose((vectors * values) @ vectors.conj().T, got.entries, rtol=0.0,
                       atol=1e-14 * got.norm)
    oracle = schur_parallel_sum(a.entries, b.entries)
    assert np.linalg.norm(got.entries - oracle) <= 1e-13 * (a.norm + b.norm)


def _counted_solves(monkeypatch):
    """Sizes of the matrices passed to ``np.linalg.solve``, tallied: the LUs
    that no eigensolve tally sees."""
    sizes = Counter()
    real = np.linalg.solve

    def counted(m, rhs):
        sizes[m.shape[0]] += 1
        return real(m, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return sizes


def test_window_pair_forms_the_kept_block_on_an_uncertified_schur_complement(eigensolves):
    # B's block on ker A is Q0 diag(1, .5, s) Q0*, with s above the rank
    # cutoff but inside the 2 e margin that a certificate on Sigma_0 against
    # the cutoff would need.  parallel_sum keeps every eigenvalue of its one
    # Sigma and forms the 3 x 3 kept block through Sigma's eigenbasis.  ando takes
    # its rank decision once, on B's block on ker A, keeps s, and certifies
    # Sigma_k - 2 e by Cholesky at the first term: every term is the kept
    # block, and the settle on ran A runs one round with no exact eigh.  Sent
    # through the full product through Sigma's pseudoinverse instead, either
    # would carry cond(Sigma) eps of error in its kernel block
    rng = np.random.default_rng(7)
    q1, q0 = random_unitary(rng, 3), random_unitary(rng, 3)
    zero = np.zeros((3, 3))

    def pair(s):
        return (PsdMatrix(np.block([[(q1 * [4.0, 3.0, 2.0]) @ q1.conj().T, zero], [zero, zero]])),
                PsdMatrix(np.block([[(q1 * [1.0, 0.7, 0.4]) @ q1.conj().T, zero],
                                    [zero, (q0 * [1.0, 0.5, s]) @ q0.conj().T]])))

    norm = pair(0.0)[1].norm
    e = roundoff(6, norm)
    rtol = DEFAULT_TOL.rank_rtol
    a, b = pair((rtol * norm + rtol * (norm + e) + 2.0 * e) / 2.0)
    assert rtol * b.norm < float(eig_hermitian(b).eigenvalues[-1]) < rtol * (b.norm + e) + 2.0 * e
    eigensolves.clear()
    got = parallel_sum(a, b)
    assert [(name, h.shape[0]) for name, h in eigensolves] == [("eigh", 3), ("eigh", 3)]
    assert np.linalg.norm(got.entries - schur_parallel_sum(a.entries, b.entries)) <= 1e-12 * b.norm
    eigensolves.clear()
    result = ando_ac_part(a, b)
    assert [(name, h.shape[0]) for name, h in eigensolves] == [
        ("eigh", 3), ("cholesky", 3), ("eigh", 3), ("eigh", 3)]
    assert result.converged
    error = np.linalg.norm(result.ac_part.entries - anderson_trapp_ac(a.entries, b.entries))
    assert error <= 1e-12 * b.norm


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parallel_sum(PsdMatrix.identity(2), PsdMatrix.identity(3))


def test_variational_scalar_symmetric_case():
    got = variational_value(PsdMatrix([[1.0]]), PsdMatrix([[1.0]]), [1.0])
    assert got == pytest.approx(0.5, abs=1e-9)


def test_variational_zero_reference():
    got = variational_value(PsdMatrix.zero(2), PsdMatrix([[2.0, 1.0], [1.0, 3.0]]), [1.0, 2.0])
    assert got == pytest.approx(0.0, abs=1e-9)


def test_variational_diagonal_hand_value():
    # componentwise scalar minimization: 2*3/(2+3) + 0 = 6/5
    got = variational_value(PsdMatrix(np.diag([2.0, 0.0])), PsdMatrix(np.diag([3.0, 5.0])), [1.0, 1.0])
    assert got == pytest.approx(1.2, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e200, 1e290])
def test_variational_value_at_wide_scales(scale):
    # 2s s / (2s + s) + s s / (s + s) = 7/6 s; conjugate gradients square
    # residual norms, which overflow above about 1e154 and underflow below
    # about 1e-154 unless scaled.  The ratio is compared, since approx's
    # absolute tolerance would pass any value at a tiny scale
    got = variational_value(PsdMatrix(scale * np.diag([2.0, 1.0])), PsdMatrix(scale * np.eye(2)),
                            [1.0, 1.0])
    assert got / scale == pytest.approx(7.0 / 6.0, rel=1e-14)


def test_variational_rejects_bad_vector():
    with pytest.raises(ValueError, match="length"):
        variational_value(PsdMatrix.identity(2), PsdMatrix.identity(2), [1.0])


def test_variational_raises_with_its_best_value_when_not_stationary(monkeypatch):
    # with no conjugate-gradient step allowed y stays 0: f(0) = <Ax, x> = 1,
    # and the gradient 2(A+B)0 - 2Ax has norm 2 > 1e-6 * (1 + 1)
    monkeypatch.setattr(parallel, "_CG_STEPS_PER_DIM", 0)
    with pytest.raises(NumericalError, match="best value found 1.0") as info:
        variational_value(PsdMatrix.identity(2), PsdMatrix.identity(2), [1.0, 0.0])
    assert info.value.residual == pytest.approx(2.0)


def test_commutativity():
    rng = np.random.default_rng(21)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=10)
        gap = np.linalg.norm(parallel_sum(a, b).entries - parallel_sum(b, a).entries)
        assert gap <= DEFAULT_TOL.recon_tol * (1.0 + a.norm + b.norm)


def test_order_bounds():
    rng = np.random.default_rng(22)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=10)
        s = parallel_sum(a, b)
        assert loewner_leq(s, a)
        assert loewner_leq(s, b)
        assert loewner_leq(PsdMatrix.zero(a.dim), s)


def test_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        a = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        b = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        p = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        q = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
        assert loewner_leq(parallel_sum(a, b), parallel_sum(a + p, b + q))


def test_variational_consistency():
    rng = np.random.default_rng(24)
    for _ in range(5):
        a, b = random_pair(rng, max_dim=6)
        s = parallel_sum(a, b)
        for _ in range(20):
            x = rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim)
            quad = float(np.real(np.vdot(x, s.entries @ x)))
            oracle = variational_value(a, b, x)
            assert abs(quad - oracle) <= 1e-6 * (1.0 + abs(quad))


@pytest.mark.parametrize("dim, ratio", [(8, 1e6), (8, 1e8), (64, 1e6), (64, 1e8)])
def test_variational_consistency_on_wide_spreads(dim, ratio):
    # A + B is singular on most draws: one conjugate-gradient pass from y = 0
    # stays in ran(A + B), and at n = 64 the wide spread needs many more than
    # n steps before the gradient is stationary
    rng = np.random.default_rng([24, dim, int(np.log10(ratio))])
    for _ in range(5):
        a = random_psd(rng, dim, int(rng.integers(dim // 4, dim + 1)), ratio)
        b = random_psd(rng, dim, int(rng.integers(dim // 4, dim + 1)), ratio)
        s = parallel_sum(a, b)
        for _ in range(4):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            quad = float(np.real(np.vdot(x, s.entries @ x)))
            oracle = variational_value(a, b, x)
            assert abs(quad - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_invertible_closed_form_against_inverse_route():
    # for strictly positive operands, A : B = (A^{-1} + B^{-1})^{-1}
    rng = np.random.default_rng(25)
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        a = random_psd(rng, dim, ratio=100.0) + 0.05 * PsdMatrix.identity(dim)
        b = random_psd(rng, dim, ratio=100.0) + 0.05 * PsdMatrix.identity(dim)
        harmonic = np.linalg.inv(np.linalg.inv(a.entries) + np.linalg.inv(b.entries))
        gap = np.linalg.norm(parallel_sum(a, b).entries - harmonic)
        assert gap <= DEFAULT_TOL.recon_tol * (1.0 + a.norm + b.norm)


def test_doubling_sequence_is_monotone():
    rng = np.random.default_rng(26)
    a, b = random_pair(rng, max_dim=8)
    previous = parallel_sum(a, b)
    for k in range(1, 9):
        current = parallel_sum((2.0**k) * a, b)
        assert loewner_leq(previous, current)
        previous = current


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (np.eye(2), [[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]),
        (np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]], np.zeros((2, 2))),
        (np.diag([2.0, 0.0]), np.diag([3.0, 5.0]), np.diag([3.0, 0.0])),
    ],
)
def test_ando_examples(a, b, expected):
    result = ando_ac_part(PsdMatrix(a), PsdMatrix(b))
    assert np.allclose(result.ac_part.entries, expected, atol=1e-7)


def test_ando_result_contract():
    rng = np.random.default_rng(27)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        result = ando_ac_part(a, b)
        assert result.terms_used >= 1
        assert result.final_increment >= 0.0
        assert loewner_leq(result.ac_part, b)
        if result.converged:
            assert result.final_increment <= DEFAULT_TOL.iter_tol * (1.0 + result.ac_part.trace)


def _draw(seed, index, ratio):
    """Draw ``index`` (counted from 0) of ``random_pair(default_rng(seed), 12, ratio)``."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        a, b = random_pair(rng, 12, ratio=ratio)
    return a, b


def test_a_tiny_reference_certifies_where_its_doubling_reaches_b():
    # A's one kept eigenvalue is 1e-30 and B's block on ker A is 1, so Sigma_k
    # = 2^k 1e-30 / (1 + 2^k 1e-30) clears 2 e only once 2^k 1e-30 is of
    # order one: the schedule starts at k0 = ceil(log2 ||B||_F - log2 1e-30)
    # = 101 and converges to the short of B to e1, which is exactly 0
    result = ando_ac_part(PsdMatrix(np.diag([1e-30, 0.0])), PsdMatrix([[1.0, 1.0], [1.0, 1.0]]))
    assert result.converged
    assert np.linalg.norm(result.ac_part.entries) <= 1e-9


def test_unsettled_doubling_limit_is_a_named_failure():
    # B's block on ker A is 1e-14, kept under rank_rtol = 1e-16, and B has no
    # mass between ran A and ker A, so Sigma_k = 1e-14 for every k, below 2 e
    # = 2 roundoff(2, ||B||): no term can be certified, and the schedule
    # raises rather than guess
    with pytest.raises(NumericalError, match="doubling limit"):
        ando_ac_part(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([1.0, 1e-14])),
                     Tolerances(rank_rtol=1e-16))


@pytest.mark.parametrize("draw", [([31, 6], 125, 1e6, 1e-12), ([31, 10], 29, 1e10, 1e-12),
                                  ([31, 10], 143, 1e10, 1e-12), ([31, 12], 68, 1e12, 2e-9),
                                  ([31, 12], 80, 1e12, 2e-9), ([31, 12], 93, 1e12, 2e-9),
                                  ([31, 14], 4, 1e14, 2e-9), ([31, 14], 107, 1e14, 2e-9)])
def test_drawn_pairs_on_one_schedule_converge_near_direct_and_iterate(monkeypatch, draw):
    # the first two ended after one term on a trace drop that was round-off
    # of a full n x n term; the third did not settle above zero.  On the last
    # five the first clip cuts more than round-off from the lift, and the
    # round ends up to 1.3e-11 * ||B|| below zero, inside the slack.  On kept
    # blocks each converges and settles in one certified round.  The oracle
    # is 2.2e-9 * ||B|| off on the third, so direct and iterate are the
    # comparison, up to a per-draw bound
    *draw, bound = draw
    a, b = _draw(*draw)
    seen = []
    clip, exact_check = parallel.clip_psd_with_floor, parallel._eigh

    def counted(h, tol):
        seen.append("round")
        return clip(h, tol)

    def checked(h):
        # parallel_sum and ando factor with _eigh too; only the settle's own
        # call is its exact check
        if sys._getframe(1).f_code is parallel._settle.__code__:
            seen.append("eigh")
        return exact_check(h)

    monkeypatch.setattr(parallel, "_eigh", checked)
    monkeypatch.setattr(parallel, "clip_psd_with_floor", counted)
    result = ando_ac_part(a, b)
    assert result.converged
    assert seen == ["round"]
    assert np.linalg.eigvalsh(result.ac_part.entries)[0] >= -DEFAULT_TOL.psd_slack * b.norm
    for other in (direct_decompose(a, b), arlinskii_iterate(a, b)):
        assert other.converged
        assert np.linalg.norm(result.ac_part.entries - other.ac.entries) <= bound * b.norm


@pytest.mark.parametrize("draw", [(5, 0, 1e3), ([31, 12], 80, 1e12), ([31, 12], 93, 1e12),
                                  ([31, 10], 0, 1e10)])
def test_settle_without_its_certificate_ends_bitwise_the_same(monkeypatch, draw):
    # the settle is one clip round, certified with no eigensolve; with the
    # certificate refused, the round runs the exact eigh, and the settled
    # limit and its complement come out bitwise the same.  Each settles on
    # ran A and the directions of B on ker A under the rank cutoff
    a, b = _draw(*draw)
    seen = []
    clip, exact_check = parallel.clip_psd_with_floor, parallel._eigh

    def counted(h, tol):
        seen.append("round")
        return clip(h, tol)

    def checked(h):
        # parallel_sum and ando factor with _eigh too; only the settle's own
        # call is its exact check
        if sys._getframe(1).f_code is parallel._settle.__code__:
            seen.append("eigh")
        return exact_check(h)

    def refused(h, tol):
        return counted(h, tol)[0], -np.inf

    monkeypatch.setattr(parallel, "_eigh", checked)
    monkeypatch.setattr(parallel, "clip_psd_with_floor", counted)
    certified = ando_ac_part(a, b)
    assert seen == ["round"]
    seen.clear()
    monkeypatch.setattr(parallel, "clip_psd_with_floor", refused)
    exact = ando_ac_part(a, b)
    assert seen == ["round", "eigh"]
    assert np.array_equal(exact.ac_part.entries, certified.ac_part.entries)
    assert np.array_equal(exact.sing_part.entries, certified.sing_part.entries)
    assert (exact.terms_used, exact.converged) == (certified.terms_used, certified.converged)


def test_settle_raises_when_its_upper_bound_is_not_positive():
    # the settled X = upper - clip(upper - clip(h)) keeps upper's eigenvalue
    # -1e-3, far below -psd_slack * scale, and the exact check refuses it
    with pytest.raises(NumericalError, match="did not settle above zero") as info:
        parallel._settle(np.zeros((2, 2)), np.diag([1.0, -1e-3]), 1.0, 1.0, DEFAULT_TOL, "limit")
    assert info.value.residual == pytest.approx(1e-3)


def test_settle_raises_when_it_moves_the_matrix_beyond_its_noise():
    # h = 2 I lies a distance sqrt(2) outside [0, I] (Frobenius), which the
    # settle must cross to reach X = I: more than the noise 1e-12 allows
    with pytest.raises(NumericalError, match="violated its order bounds") as info:
        parallel._settle(2.0 * np.eye(2), np.eye(2), 1e-12, 1.0, DEFAULT_TOL, "limit")
    assert info.value.residual == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("exponent", [3, 6, 8, 10, 12])
def test_on_range_settle_matches_the_full_settle(monkeypatch, exponent):
    # the r x r limit X is lifted to M = ran A + U0 V0, V0 the directions of
    # B's block on ker A under the rank cutoff, as [[X, G0], [G0*,
    # diag(s0)]], and settled into [0, Shat_M], Shat_M the Schur complement
    # of Bt onto M.  The n-dim settle of the same lift, padded with zeros on
    # U0 V+ and settled into [0, Bt] in the basis [U1 | U0 V0 | U0 V+], must
    # give the same ac and sing parts and raise on the same draws.  The two
    # rounds clip the same lift, and differ past its round-off only by what
    # that first clip cut: on draw 68 at 1e12, 2.0e-12 * ||B|| apart with
    # 2.7e-11 * ||B|| cut
    real = parallel._settle
    rng = np.random.default_rng([31, exponent])
    settled = 0
    for index in range(150):
        a, b = random_pair(rng, 12, 10.0**exponent)
        dec = eig_hermitian(a)
        r = int(np.count_nonzero(DEFAULT_TOL.support(dec.eigenvalues)))
        bt = parallel._rotated(dec.vectors, b.entries)
        s, v, _ = core._eigh(bt[r:, r:])
        p = int(np.count_nonzero(DEFAULT_TOL.support(s, b.norm)))
        w = np.eye(b.dim, dtype=complex)
        w[r:, r:] = np.roll(v, -p, axis=1)
        basis = dec.vectors @ w
        full, cut = [], []

        def spy(h, upper, *args):
            cut.append(np.linalg.norm(h - core.clip_psd(h, np.inf, DEFAULT_TOL, "lift").entries))
            try:
                full.append(real(np.pad(h, (0, p)), parallel._rotated(w, bt), *args))
            except NumericalError as exc:
                full.append(exc)
            return real(h, upper, *args)

        monkeypatch.setattr(parallel, "_settle", spy)
        try:
            result = ando_ac_part(a, b)
        except NumericalError as exc:
            result = exc
        if not full:
            continue
        settled += 1
        assert isinstance(result, NumericalError) == isinstance(full[0], NumericalError), index
        if isinstance(result, NumericalError):
            continue
        for got, want in zip((result.ac_part, result.sing_part), full[0]):
            error = np.linalg.norm(got.entries - basis @ want @ basis.conj().T)
            assert error <= 1e-13 * b.norm + cut[0], index
    assert settled >= 45


def test_certified_schedule_factors_nothing_larger_than_rank_a(eigensolves):
    # a 64-dim pair shaped like the benchmark's (rank A 40, B with a margin on
    # ker A): after the eigh of B's 24-dim block on ker A and the Cholesky
    # that certifies the first term, no solve is larger than rank A, the
    # n-dim complement included
    rng = np.random.default_rng(64)
    a = random_psd(rng, 64, rank=40, ratio=2.0)
    b = random_psd(rng, 64, rank=40, ratio=30.0)
    eigensolves.clear()
    result = ando_ac_part(a, b)
    assert result.converged
    assert [(name, h.shape[0]) for name, h in eigensolves[:2]] == [("eigh", 24), ("cholesky", 24)]
    assert max(h.shape[0] for _, h in eigensolves[2:]) <= 40
    error = np.linalg.norm(result.ac_part.entries - anderson_trapp_ac(a.entries, b.entries))
    assert error <= 1e-9 * b.norm


@pytest.mark.parametrize("seed", range(3))
def test_singular_sum_runs_the_full_schedule(monkeypatch, eigensolves, seed):
    # ran B lies in a 9-dim space that holds the 6-dim ran A, so A + B is
    # singular and B's block on the 6-dim ker A has rank 3.  Its one eigh
    # splits off the 3 directions under the cutoff, and the whole schedule
    # runs on the other 3: each term takes one LU of h_k (rank A = 6) and one
    # of Sigma_k (size 3), with no eigensolve, and the settle runs on ran A
    # and the 3 dropped directions (size 9)
    rng = np.random.default_rng([41, seed])
    u = random_unitary(rng, 12)
    a = PsdMatrix((u[:, :6] * rng.uniform(0.5, 2.0, 6)) @ u[:, :6].conj().T)
    z = u[:, :9] @ (rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5)))
    b = PsdMatrix(z @ z.conj().T)
    eigensolves.clear()
    solves = _counted_solves(monkeypatch)
    result = ando_ac_part(a, b)
    assert result.converged
    assert [(name, h.shape[0]) for name, h in eigensolves] == [
        ("eigh", 6), ("cholesky", 3), ("eigh", 9), ("eigh", 9)]
    assert solves == {6: result.terms_used, 3: result.terms_used}
    error = np.linalg.norm(result.ac_part.entries - anderson_trapp_ac(a.entries, b.entries))
    assert error <= 1e-12 * b.norm


def _romberg_diagonal(values):
    """R[k][k], k = 0, 1, ..., of Romberg's table on a scalar sequence."""
    row, diagonal = [], []
    for value in values:
        carry = value
        for m, older in enumerate(row):
            row[m] = carry
            carry = (2.0 ** (m + 1) * carry - older) / (2.0 ** (m + 1) - 1.0)
        row.append(carry)
        diagonal.append(carry)
    return diagonal


def test_richardson_weights_are_rombergs_diagonal():
    # weight (k, j) is what R[k][k] makes of a unit T_j; each row is an
    # extrapolation, so it sums to one, and its abs-sum bounds the growth of
    # the terms' round-off that the settle allows for
    weights = parallel._richardson_weights()
    size = parallel.ANDO_MAX_DOUBLINGS + 1
    assert weights.shape == (size, size)
    for j in range(size):
        unit = [1.0 if i == j else 0.0 for i in range(size)]
        assert np.allclose(weights[:, j], _romberg_diagonal(unit), rtol=1e-13, atol=1e-13), j
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=4.0 * np.finfo(float).eps)
    growth = np.abs(weights).sum(axis=1).max()
    assert 8.25 < growth <= parallel._ROMBERG_GROWTH
    assert parallel._richardson_weights() is weights


@pytest.mark.parametrize("seed", range(4))
def test_one_lu_term_matches_the_pseudoinverse_term(seed):
    # on a certified pair (B nonsingular on ker A with a margin) the kept
    # block from one LU of Sigma_k is the kept block through Sigma_k's
    # eigenbasis, and the product formed on all of ker A through that
    # eigenbasis vanishes there, up to round-off, along the whole schedule
    rng = np.random.default_rng([43, seed])
    a, b = random_psd(rng, 12, rank=8, ratio=1e6), random_psd(rng, 12, rank=10, ratio=1e6)
    dec = eig_hermitian(a)
    lam = dec.eigenvalues[DEFAULT_TOL.support(dec.eigenvalues)]
    bt = parallel._rotated(dec.vectors, b.entries)
    e = roundoff(b.dim, b.norm)
    for k in (0, 1, 10, 40):
        solved, schur = parallel._schur(2.0**k * lam, bt)
        w, v, _ = core._eigh(schur)
        if k == 0:
            assert np.all(w - 2.0 * e > DEFAULT_TOL.rank_rtol * (b.norm + e))

        def eigenbasis(rhs):
            return (v / w) @ (v.conj().T @ rhs)

        one_lu = parallel._term(bt, solved, partial(np.linalg.solve, schur), np.zeros((4, 0)))
        kept = parallel._term(bt, solved, eigenbasis, np.zeros((4, 0)))
        full = parallel._term(bt, solved, eigenbasis, np.eye(4))
        assert one_lu.shape == kept.shape == (8, 8) and full.shape == (12, 12)
        assert np.linalg.norm(one_lu - kept) <= e, k
        assert np.linalg.norm(one_lu - full[:8, :8]) <= e, k
        assert np.linalg.norm(full[8:]) <= e, k


def test_rank_ambiguous_pair_settles_near_iterate():
    # the tenth draw of default_rng(14), at spread 1e14, is rank-ambiguous,
    # so iterate is the comparison, not the oracle
    a, b = _draw(14, 9, 1e14)
    result = ando_ac_part(a, b)
    assert result.converged
    gap = np.linalg.norm(result.ac_part.entries - arlinskii_iterate(a, b).ac.entries)
    assert gap <= 1e-9 * b.norm


@pytest.mark.parametrize("seed, index, ratio", [([31, 10], 96, 1e10), ([31, 12], 88, 1e12)])
def test_zero_reference_drawn_has_a_zero_limit(seed, index, ratio):
    a, b = _draw(seed, index, ratio)
    assert a.norm == 0.0
    result = ando_ac_part(a, b)
    assert result.converged
    assert np.array_equal(result.ac_part.entries, np.zeros_like(b.entries))


def test_zero_reference_with_a_wide_spread_has_a_zero_limit():
    b = PsdMatrix(np.diag([0.69, 1.1e-6, 3e-9, 1.9e-10]))
    result = ando_ac_part(PsdMatrix.zero(4), b)
    assert result.converged
    assert np.array_equal(result.ac_part.entries, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (np.eye(2), [[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]),
        (np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]], np.zeros((2, 2))),
        (np.diag([2.0, 0.0]), np.diag([3.0, 5.0]), np.diag([3.0, 0.0])),
        # B = vv* with v = (1, 1): its short to the first axis is zero
        (np.diag([1.0, 0.0]), np.ones((2, 2)), np.zeros((2, 2))),
        # B = diag(1, 1) + vv*: B11 - B12 B22^-1 B21 = 2 - 1/2
        (np.diag([1.0, 0.0]), [[2.0, 1.0], [1.0, 2.0]], np.diag([1.5, 0.0])),
    ],
)
def test_anderson_trapp_oracle_examples(a, b, expected):
    got = anderson_trapp_ac(np.array(a, dtype=float), np.array(b, dtype=float))
    assert np.allclose(got, expected, atol=1e-14)


@pytest.mark.parametrize("exponent", [3, 6])
def test_ando_matches_the_oracle_on_hostile_spreads(exponent):
    # eigenvalue spreads up to 1e6 inside each of A and B; the plain schedule
    # stopped unconverged on 2 and 22 of these draws, off by up to 5.4e-7
    rng = np.random.default_rng([31, exponent])
    for i in range(100):
        a, b = random_pair(rng, 12, ratio=10.0**exponent)
        result = ando_ac_part(a, b)
        if b.norm == 0.0:
            continue
        assert result.converged, i
        error = np.linalg.norm(result.ac_part.entries - anderson_trapp_ac(a.entries, b.entries))
        assert error <= 1e-10 * b.norm, (i, error)


@pytest.mark.parametrize("scale", [1e-3, 1e-6])
def test_ando_converges_on_a_small_reference(scale):
    # the plain trace increments of (2^k A) : B shrink like 2^-k times
    # tr B / scale, so from k = 0 they would need over 40 doublings to reach
    # iter_tol * tr B; the window starts where 2^k lambda_min reaches ||B||
    rng = np.random.default_rng(40)
    a, b = random_psd(rng, 32, rank=20), random_psd(rng, 32, rank=20)
    a = scale * a
    result = ando_ac_part(a, b)
    assert result.converged
    error = np.linalg.norm(result.ac_part.entries - anderson_trapp_ac(a.entries, b.entries))
    assert error <= 1e-12 * b.norm


def _spread_draws(exponent, count):
    rng = np.random.default_rng([31, exponent])
    return [random_pair(rng, 12, ratio=10.0**exponent) for _ in range(count)]


@pytest.mark.parametrize("exponent", [3, 8, 12])
def test_ando_is_bitwise_invariant_under_powers_of_four(exponent):
    # ac depends on A only through ran A, and on B linearly.  A -> 4^m A
    # shifts the schedule's start by 2m and leaves every term bitwise the
    # same; B -> 4^m B scales every term and every stopping bound exactly
    for a, b in _spread_draws(exponent, 60):
        base = ando_ac_part(a, b)
        for m in (-20, -3, 5, 20):
            scaled_a = ando_ac_part(PsdMatrix(4.0**m * a.entries), b)
            scaled_b = ando_ac_part(a, PsdMatrix(4.0**m * b.entries))
            for got, expected in ((scaled_a, base.ac_part.entries),
                                  (scaled_b, 4.0**m * base.ac_part.entries)):
                assert np.array_equal(got.ac_part.entries, expected), m
                assert (got.terms_used, got.converged) == (base.terms_used, base.converged)


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
def test_ando_does_not_depend_on_the_scale_of_a(c):
    # ac(cA, B) = ac(A, B) for every c > 0: a converged result is within
    # 1e-9 ||B|| of the oracle, or it is flagged
    for exponent in (3, 6, 8):
        for i, (a, b) in enumerate(_spread_draws(exponent, 60)):
            result = ando_ac_part(PsdMatrix(c * a.entries), b)
            if result.converged:
                error = np.linalg.norm(result.ac_part.entries
                                       - anderson_trapp_ac(a.entries, b.entries))
                assert error <= 1e-9 * b.norm, (exponent, i, error)


def test_ando_at_opposite_ends_of_the_float_range():
    # ||B|| / lambda_min,kept(A) is about 1e330, past the largest float; its
    # log2 is not, and the schedule starts at k0 = 1099.  ac is the short of
    # B to e1, 2e30 - 1e30 / 2
    a = PsdMatrix(1e-300 * np.diag([1.0, 0.0]))
    b = PsdMatrix(1e30 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    result = ando_ac_part(a, b)
    assert result.converged
    assert np.linalg.norm(result.ac_part.entries - np.diag([1.5e30, 0.0])) <= 1e-12 * b.norm


def test_ando_range_stays_inside_reference_range():
    rng = np.random.default_rng(28)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        a = random_psd(rng, dim, rank=int(rng.integers(1, dim)))
        b = random_psd(rng, dim)
        result = ando_ac_part(a, b)
        from oplebesgue import range_projection

        p = range_projection(a).entries
        leak = np.linalg.norm(result.ac_part.entries - p @ result.ac_part.entries @ p)
        assert leak <= DEFAULT_TOL.recon_tol * (1.0 + b.norm)


@pytest.mark.parametrize(
    "contraction,expected",
    [
        (np.eye(2), np.zeros((2, 2))),
        (np.diag([0.5, 0.25]), np.diag([0.5, 0.25])),
        # the spectral map sends t = 1 to 0 and keeps t < 1
        (np.diag([1.0, 0.5]), np.diag([0.0, 0.5])),
    ],
)
def test_spectral_examples(contraction, expected):
    got = spectral_ac_of_contraction(PsdMatrix(contraction))
    assert np.allclose(got.entries, expected, atol=1e-12)


def test_spectral_rejects_non_contraction():
    with pytest.raises(ValueError, match="contraction"):
        spectral_ac_of_contraction(PsdMatrix(np.diag([1.5, 0.5])))


def test_spectral_agrees_with_doubling_limit():
    rng = np.random.default_rng(29)
    for i in range(10):
        dim = int(rng.integers(1, 9))
        bt = random_contraction(rng, dim, unit_eigs=int(i % 3 == 0))
        complement = PsdMatrix(np.eye(dim) - bt.entries)
        shortcut = spectral_ac_of_contraction(bt)
        limit = ando_ac_part(complement, bt)
        assert np.linalg.norm(shortcut.entries - limit.ac_part.entries) <= 1e-6 * (1.0 + bt.norm)
