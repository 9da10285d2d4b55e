"""Arlinskii's iteration on the range of B, against the short of A to that range.

Each test names, in its comment, a mutation of ``lebesgue`` that it fails on.
"""

import numpy as np
import pytest

from oplebesgue import (
    DEFAULT_TOL,
    PsdMatrix,
    Tolerances,
    arlinskii_iterate,
    arlinskii_step,
    parallel_sum,
)
from oplebesgue.lebesgue import _range_compression

from helpers import anderson_trapp_ac, random_pair, random_psd, random_unitary


def _lift(u, m):
    return u @ m @ u.conj().T


def _psd(vectors, eigenvalues):
    """V diag(eigenvalues) V* for the given columns V."""
    return PsdMatrix(_lift(vectors, np.diag(eigenvalues)))


def _error(dec, a, b):
    return np.linalg.norm(dec.ac.entries - anderson_trapp_ac(a.entries, b.entries)) / b.norm


@pytest.mark.parametrize("dim, rank_a, rank_b", [(6, 3, 4), (6, 5, 2), (8, 8, 5), (7, 2, 7)])
def test_parallel_sum_of_an_operand_on_ran_b_is_the_compressed_one_against_the_short(
        dim, rank_a, rank_b):
    # X : A = U (X_M : Y) U* for X = U X_M U* supported on M = ran B.
    # Fails when Y is the compression U* A U instead of the short.
    rng = np.random.default_rng([41, dim, rank_a, rank_b])
    a = random_psd(rng, dim, rank_a)
    b = random_psd(rng, dim, rank_b)
    u, lam, factor = _range_compression(a, b, DEFAULT_TOL)
    assert u.shape == (dim, rank_b) and lam.shape == (rank_b,)
    short = PsdMatrix(factor @ factor.conj().T)
    assert np.allclose(_lift(u, np.diag(lam)), b.entries, rtol=0.0, atol=1e-12 * b.norm)
    for _ in range(3):
        x_m = random_psd(rng, rank_b)
        full = parallel_sum(PsdMatrix(_lift(u, x_m.entries)), a).entries
        compressed = _lift(u, parallel_sum(x_m, short).entries)
        assert np.linalg.norm(full - compressed) <= 1e-12 * (x_m.norm + a.norm)


def _full_space_iterate(a, b, tol):
    """B <- B - B : A on the whole space by the public step, with the
    iterate's stopping rule."""
    x = b
    for steps in range(1, tol.max_iter + 1):
        nxt = arlinskii_step(x, a, tol)
        increment = x.trace - nxt.trace
        x = nxt
        if increment <= tol.iter_tol * b.trace:
            return x, steps
    raise AssertionError("the full-space loop did not converge")


def test_iterate_matches_a_full_space_loop_of_the_public_step():
    # Fails when the iteration starts from diag(lam) with lam in the reverse
    # order of U's columns.
    rng = np.random.default_rng(42)
    tol = Tolerances(max_iter=2000)
    compared = 0
    for _ in range(40):
        a, b = random_pair(rng, 8)
        if b.norm == 0.0 or a.norm == 0.0:
            continue
        dec = arlinskii_iterate(a, b, tol)
        sing, steps = _full_space_iterate(a, b, tol)
        assert dec.converged
        assert abs(dec.iterations - steps) <= 1
        assert np.linalg.norm(dec.sing.entries - sing.entries) <= 1e-9 * b.norm
        compared += 1
    assert compared >= 15


def _edge_case(kind, rng):
    q = random_unitary(rng, 6)
    if kind == "full-rank B":
        return _psd(q[:, :3], [1.0, 0.3, 0.1]), random_psd(rng, 6)
    if kind == "rank-1 B in ran A":
        return random_psd(rng, 6), _psd(q[:, :1], [0.7])
    if kind == "rank-1 B off ran A":
        # v mixes ran A with its complement, so v is not in ran A
        v = (q[:, :1] + q[:, 5:]) / np.sqrt(2.0)
        return _psd(q[:, :3], [1.0, 0.5, 0.2]), _psd(v, [0.7])
    if kind == "A orthogonal to ran B":
        return _psd(q[:, :2], [1.0, 0.4]), _psd(q[:, 2:5], [0.9, 0.5, 0.3])
    if kind == "ran A meets ran B only in 0":
        # ranks 2 and 3 in general position in C^6
        return random_psd(rng, 6, 2), random_psd(rng, 6, 3)
    if kind == "ran B inside ran A":
        b = _psd(q[:, 1:3] @ random_unitary(rng, 2), [0.9, 0.4])
        return _psd(q[:, :5], [1.0, 0.8, 0.5, 0.3, 0.2]), b
    if kind == "ran A at 1e-6 from ran B":
        # sin^2 of the angle is 1e-12, under the cutoff, as for the oracle's
        # B22 = sin^2 against ||B||: A's root maps into ran B, and ac = B,
        # where the oracle returns ac on ran A, 1.4e-6 away
        t = 1e-6
        return _psd(np.cos(t) * q[:, :1] + np.sin(t) * q[:, 1:2], [1.0]), _psd(q[:, :1], [1.0])
    if kind == "ran A inside ran B":
        a = _psd(q[:, :2] @ random_unitary(rng, 2), [0.8, 0.3])
        return a, _psd(q[:, :4], [1.0, 0.6, 0.4, 0.2])
    # rank-deficient short: the 2 x 3 rows of A's root factor off ran B have
    # a one-dimensional kernel, so Y has rank 1 on the rank-4 range of B
    return random_psd(rng, 6, 3), random_psd(rng, 6, 4)


@pytest.mark.parametrize("kind, mutation", [
    # SVD with full_matrices=False: the 0 x k block off ran B has no rows,
    # so K is empty, Y = 0 and sing = B
    ("full-rank B", "full_matrices=False"),
    ("rank-1 B in ran A", "full_matrices=False"),
    # sing lifted as U X U^T, without conjugation
    ("rank-1 B off ran A", "unconjugated lift"),
    ("A orthogonal to ran B", "unconjugated lift"),
    # y not padded by zeros to rank B: F has no columns, so y is empty
    ("ran A meets ran B only in 0", "unpadded y"),
    # K taken from Vh's first rows (the co-kernel) instead of its last
    ("ran B inside ran A", "co-kernel"),
    # the kernel's cutoff judged against the largest squared singular value
    # of U0* R instead of A's largest eigenvalue: all of them are round-off
    # here, so K is empty and sing = B
    ("ran A inside ran B", "self-relative kernel cutoff"),
    # the kernel judged on sigma instead of sigma^2: sigma = 1e-6 is kept,
    # so K is empty and sing = B
    ("ran A at 1e-6 from ran B", "sigma not squared"),
    # Y the compression U* A U instead of the short
    ("rank-deficient short", "compression for the short"),
])
def test_iterate_edge_cases_match_the_anderson_trapp_oracle(kind, mutation):
    rng = np.random.default_rng([43, len(kind)])
    a, b = _edge_case(kind, rng)
    dec = arlinskii_iterate(a, b, Tolerances(max_iter=2000))
    assert dec.converged
    bound = 1e-5 if kind == "ran A at 1e-6 from ran B" else 1e-9
    assert _error(dec, a, b) <= bound, mutation
    if kind == "full-rank B":
        # nothing lies off ran B, so K = I and the short is A itself
        u, _, factor = _range_compression(a, b, DEFAULT_TOL)
        assert factor.shape == (6, 3)
        assert np.linalg.norm(_lift(u, factor @ factor.conj().T) - a.entries) <= 1e-12 * a.norm
    if kind in ("A orthogonal to ran B", "ran A meets ran B only in 0"):
        # the short is 0: F has no columns, y = 0 and g stays 1
        assert _range_compression(a, b, DEFAULT_TOL)[2].shape == (3, 0)
    if kind in ("A orthogonal to ran B", "rank-1 B off ran A", "ran A meets ran B only in 0"):
        assert dec.iterations == 1
        assert np.linalg.norm(dec.sing.entries - b.entries) <= 1e-12 * b.norm
    if kind in ("ran B inside ran A", "rank-1 B in ran A", "ran A at 1e-6 from ran B"):
        assert np.linalg.norm(dec.ac.entries - b.entries) <= 1e-9 * b.norm


def test_iterate_never_forms_a_pseudo_inverse_of_a_block_of_a():
    # B is rank one at 3e-12 against ||A|| = 0.2, and A's smallest kept
    # eigenvalue sits at 2e-10 of its largest.  Forming the short as
    # A11 - A12 A22^+ A21 returns ac off by 1.0 * ||B|| here, flagged converged.
    rng = np.random.default_rng([31, 12])
    for _ in range(70):
        a, b = random_pair(rng, 12, ratio=1e12)
    dec = arlinskii_iterate(a, b)
    assert dec.converged
    assert _error(dec, a, b) <= 1e-9


@pytest.mark.parametrize("exponent", [3, 6, 8, 10])
def test_iterate_matches_the_oracle_on_hostile_spreads(exponent):
    # eigenvalue spreads up to 1e10 inside each of A and B; max_iter bounds
    # the draws that need one step per eigenvalue ratio, which must say so.
    # Fails at 1e6 when the short is formed as A11 - A12 A22^+ A21.
    rng = np.random.default_rng([31, exponent])
    tol = Tolerances(max_iter=500)
    for i in range(100):
        a, b = random_pair(rng, 12, ratio=10.0**exponent)
        if b.norm == 0.0:
            continue
        dec = arlinskii_iterate(a, b, tol)
        if dec.converged:
            assert _error(dec, a, b) <= 1e-9, i


@pytest.mark.parametrize("seed", range(4))
def test_each_iterate_is_the_full_space_loop_of_the_public_step(seed):
    # The k-th iterate H diag(g_k) H* is k full-space steps X <- X - X : A
    # from B, not only in the limit: stopping after k steps returns it as sing.
    # Fails when the recursion starts from g = 1 instead of 1 - y.
    rng = np.random.default_rng([44, seed])
    a = random_psd(rng, 7, 4, ratio=1e4)
    b = random_psd(rng, 7, 5)
    x = b
    for k in range(1, 6):
        x = arlinskii_step(x, a)
        dec = arlinskii_iterate(a, b, Tolerances(max_iter=k))
        assert not dec.converged and dec.iterations == k
        assert np.linalg.norm(dec.sing.entries - x.entries) <= 1e-12 * b.norm, k
        assert np.linalg.norm(dec.ac.entries + dec.sing.entries - b.entries) <= 1e-12 * b.norm


@pytest.mark.parametrize("seed", range(4))
def test_iterate_parts_of_a_direct_sum_are_exactly_block_diagonal(seed):
    # A direct sum with a repeated summand, as a functional's Gram has: the
    # iterate's SVDs split into the summands, so both parts have exact zeros
    # between them and every later eigensolve sees the same blocks whatever
    # the entries.  Fails when _svd factors the whole matrix in one call.
    rng = np.random.default_rng([43, seed])
    pairs = [(random_psd(rng, 3, 2).entries, random_psd(rng, 3, 3).entries) for _ in range(2)]
    a, b = (np.zeros((9, 9), dtype=complex) for _ in range(2))
    for k, (ak, bk) in enumerate([pairs[0], pairs[0], pairs[1]]):
        a[3 * k:3 * k + 3, 3 * k:3 * k + 3], b[3 * k:3 * k + 3, 3 * k:3 * k + 3] = ak, bk
    dec = arlinskii_iterate(PsdMatrix(a), PsdMatrix(b))
    assert dec.converged
    outside = np.kron(1 - np.eye(3), np.ones((3, 3))).astype(bool)
    for part in (dec.ac.entries, dec.sing.entries):
        assert np.all(part[outside] == 0.0)
    assert _error(dec, PsdMatrix(a), PsdMatrix(b)) <= 1e-10


def test_a_six_order_ratio_on_a_shared_line_is_bounded_and_flagged():
    # A = [[1e-6]] against B = [[1]] needs about one step per unit of the
    # ratio; a cap of 1e5 steps must end flagged, at the cap, without raising.
    dec = arlinskii_iterate(PsdMatrix([[1e-6]]), PsdMatrix([[1.0]]), Tolerances(max_iter=10**5))
    assert not dec.converged and dec.iterations == 10**5
    assert 0.0 < dec.sing.entries[0, 0].real < 1.0


def test_a_slightly_negative_trace_of_b_still_stops():
    # B = diag(-1e-11, 0) is PSD within the constructor's slack, with no kept
    # eigenvalue and tr B < 0.  Fails when the stopping threshold
    # iter_tol * tr B is not clamped at zero: no increment reaches it, so
    # every one of max_iter steps runs and the result is flagged.
    a = PsdMatrix.identity(2)
    b = PsdMatrix(np.diag([-1e-11, 0.0]))
    dec = arlinskii_iterate(a, b, Tolerances(max_iter=10**5))
    assert dec.converged and dec.iterations <= 3
    slack = DEFAULT_TOL.psd_slack * (a.norm + b.norm)
    assert np.linalg.norm(dec.ac.entries + dec.sing.entries - b.entries) <= slack
