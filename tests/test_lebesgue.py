"""Lebesgue decomposition: iteration, auxiliary space, direct construction, predicates."""

import numpy as np
import pytest

from oplebesgue import (
    DEFAULT_TOL,
    Method,
    PsdMatrix,
    Tolerances,
    arlinskii_iterate,
    arlinskii_step,
    auxiliary_space,
    decompose,
    direct_decompose,
    is_absolutely_continuous,
    is_singular,
    loewner_leq,
    parallel_sum,
    range_projection,
)

from helpers import random_contraction, random_pair


def test_step_fixes_singular_operand():
    x = PsdMatrix(np.diag([0.0, 1.0]))
    a = PsdMatrix(np.diag([1.0, 0.0]))
    assert np.allclose(arlinskii_step(x, a).entries, x.entries, atol=1e-14)


def test_step_identity_halves():
    got = arlinskii_step(PsdMatrix.identity(2), PsdMatrix.identity(2))
    assert np.allclose(got.entries, np.eye(2) / 2, atol=1e-14)


def test_step_scalar_recurrence():
    # b <- b^2 / (a + b) from b = a = 1 gives 1/2, 1/6, 1/42
    a = PsdMatrix([[1.0]])
    x = PsdMatrix([[1.0]])
    values = []
    for _ in range(3):
        x = arlinskii_step(x, a)
        values.append(x.entries[0, 0].real)
    assert np.allclose(values, [0.5, 1.0 / 6.0, 1.0 / 42.0], atol=1e-14)


def test_iterate_identity_pair():
    dec = arlinskii_iterate(PsdMatrix.identity(2), PsdMatrix.identity(2))
    assert dec.converged
    assert np.allclose(dec.ac.entries, np.eye(2), atol=1e-9)
    assert dec.sing.norm <= 1e-9


def test_iterate_zero_reference_short_circuits():
    b = PsdMatrix([[1.0, 1.0], [1.0, 2.0]])
    dec = arlinskii_iterate(PsdMatrix.zero(2), b)
    assert dec.iterations == 0 and dec.converged
    assert dec.ac.norm == 0.0
    assert np.array_equal(dec.sing.entries, b.entries)


def test_iterate_zero_operand_short_circuits():
    dec = arlinskii_iterate(PsdMatrix.identity(2), PsdMatrix.zero(2))
    assert dec.iterations == 0 and dec.ac.norm == 0.0 and dec.sing.norm == 0.0


def test_iterate_diagonal_pair():
    dec = arlinskii_iterate(PsdMatrix(np.diag([2.0, 0.0])), PsdMatrix(np.diag([3.0, 5.0])))
    assert dec.converged
    assert np.allclose(dec.ac.entries, np.diag([3.0, 0.0]), atol=1e-8)
    assert np.allclose(dec.sing.entries, np.diag([0.0, 5.0]), atol=1e-8)


def test_iterate_trace_sequence_is_monotone():
    rng = np.random.default_rng(31)
    a, b = random_pair(rng, max_dim=6)
    traces = [b.trace]
    current = b
    for _ in range(8):
        current = arlinskii_step(current, a)
        traces.append(current.trace)
    assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(traces, traces[1:]))


def test_iterate_non_convergence_is_flagged():
    # one step per eigenvalue-ratio unit: 3 steps cannot finish this pair
    slow = Tolerances(max_iter=3)
    dec = arlinskii_iterate(PsdMatrix(np.diag([1e-4, 0.0])), PsdMatrix(np.diag([1.0, 1.0])), slow)
    assert not dec.converged
    assert dec.iterations == 3
    assert dec.residual > slow.iter_tol * (1.0 + 2.0)


def test_auxiliary_space_balanced_pair():
    half = PsdMatrix(np.eye(2) / 2)
    aux = auxiliary_space(half, half)
    assert aux.rank == 2
    assert np.allclose(aux.a_tilde.entries, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(aux.b_tilde.entries, np.eye(2) / 2, atol=1e-12)


def test_auxiliary_space_orthogonal_diagonal():
    aux = auxiliary_space(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0])))
    assert aux.rank == 2
    assert np.allclose(aux.a_tilde.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_auxiliary_space_congruence_spectrum():
    # pencil of (A, A+B) for A = diag(1,0), B all-ones has eigenvalues {1, 0}
    aux = auxiliary_space(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix([[1.0, 1.0], [1.0, 1.0]]))
    assert aux.rank == 2
    assert np.allclose(np.sort(np.linalg.eigvalsh(aux.a_tilde.entries)), [0.0, 1.0], atol=1e-12)


def test_auxiliary_space_rank_zero():
    aux = auxiliary_space(PsdMatrix.zero(3), PsdMatrix.zero(3))
    assert aux.rank == 0
    assert aux.embed.shape == (3, 0)


def test_auxiliary_space_invariants_on_random_pairs():
    rng = np.random.default_rng(32)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=10)
        aux = auxiliary_space(a, b)
        j = aux.embed
        scale = DEFAULT_TOL.recon_tol * (1.0 + a.norm + b.norm)
        assert np.linalg.norm(j @ j.conj().T - (a + b).entries) <= scale
        assert np.linalg.norm(j @ aux.a_tilde.entries @ j.conj().T - a.entries) <= scale
        assert np.linalg.norm(j @ aux.b_tilde.entries @ j.conj().T - b.entries) <= scale
        assert np.linalg.norm(aux.a_tilde.entries + aux.b_tilde.entries - np.eye(aux.rank)) <= DEFAULT_TOL.recon_tol
        for part in (aux.a_tilde, aux.b_tilde):
            eigs = np.linalg.eigvalsh(part.entries)
            assert eigs.size == 0 or (eigs[0] >= -DEFAULT_TOL.psd_slack and eigs[-1] <= 1.0 + DEFAULT_TOL.psd_slack)


def test_factored_parallel_sum_identity():
    # the embedded parallel sum of the contractions reproduces A : B
    rng = np.random.default_rng(33)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=10)
        aux = auxiliary_space(a, b)
        j = aux.embed
        embedded = j @ parallel_sum(aux.a_tilde, aux.b_tilde).entries @ j.conj().T
        gap = np.linalg.norm(embedded - parallel_sum(a, b).entries)
        assert gap <= 1e-9 * (1.0 + a.norm + b.norm)


def test_direct_invertible_reference_has_no_singular_part():
    b = PsdMatrix([[2.0, 1.0], [1.0, 2.0]])
    dec = direct_decompose(PsdMatrix.identity(2), b)
    assert dec.sing.norm <= 1e-12
    assert np.allclose(dec.ac.entries, b.entries, atol=1e-12)


def test_direct_diagonal_pair():
    dec = direct_decompose(PsdMatrix(np.diag([2.0, 0.0])), PsdMatrix(np.diag([3.0, 5.0])))
    assert np.allclose(dec.ac.entries, np.diag([3.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.sing.entries, np.diag([0.0, 5.0]), atol=1e-12)


def test_direct_trivial_range_intersection_is_fully_singular():
    # ran A and ran B intersect trivially, so everything is singular
    b = PsdMatrix([[1.0, 1.0], [1.0, 1.0]])
    dec = direct_decompose(PsdMatrix(np.diag([1.0, 0.0])), b)
    assert np.allclose(dec.sing.entries, b.entries, atol=1e-12)
    assert dec.ac.norm <= 1e-12


@pytest.mark.parametrize("seed", [2, 3, 12])
def test_direct_mutually_singular_gaussian_pairs(seed):
    # two generic rank-32 ranges in C^64 meet only in zero, so B is singular
    # to A; the zero ac part must not carry round-off at the scale of A + B
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    y = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    a, b = PsdMatrix(x @ x.conj().T), PsdMatrix(y @ y.conj().T)
    dec = decompose(a, b, "direct")
    assert dec.ac.norm <= 1e-12 * b.norm
    assert np.linalg.norm(dec.sing.entries - b.entries) <= 1e-12 * b.norm
    ando = decompose(a, b, "ando")
    assert np.linalg.norm(dec.sing.entries - ando.sing.entries) <= 1e-10 * b.norm


def test_direct_kernel_projection_is_projection():
    rng = np.random.default_rng(34)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        aux = auxiliary_space(a, b)
        from oplebesgue import eig_hermitian

        dec = eig_hermitian(aux.a_tilde)
        w = dec.eigenvalues
        cutoff = DEFAULT_TOL.rank_rtol * max(float(w[0]), 0.0) if w.size else 0.0
        kernel = dec.vectors[:, w <= cutoff]
        p = kernel @ kernel.conj().T
        assert np.linalg.norm(p @ p - p) <= DEFAULT_TOL.recon_tol
        assert np.linalg.norm(p - p.conj().T) <= DEFAULT_TOL.recon_tol


@pytest.mark.parametrize(
    "b,a,expected",
    [
        (np.eye(2), np.eye(2), True),
        (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), False),
        (np.diag([3.0, 0.0]), np.diag([2.0, 0.0]), True),
    ],
)
def test_absolute_continuity_examples(b, a, expected):
    assert is_absolutely_continuous(PsdMatrix(b), PsdMatrix(a)) is expected


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), True),
        (np.eye(2), np.eye(2), False),
        (np.diag([1.0, 0.0]), [[1.0, 1.0], [1.0, 1.0]], True),
    ],
)
def test_singularity_examples(a, b, expected):
    assert is_singular(PsdMatrix(a), PsdMatrix(b)) is expected


def test_decompose_dispatch():
    b = PsdMatrix([[2.0, 1.0], [1.0, 2.0]])
    direct = decompose(PsdMatrix.identity(2), b, Method.DIRECT)
    assert direct.method is Method.DIRECT and direct.sing.norm <= 1e-12
    iterate = decompose(PsdMatrix.zero(2), b, "iterate")
    assert iterate.method is Method.ITERATE and iterate.ac.norm == 0.0
    ando = decompose(PsdMatrix.identity(2), b, "ando")
    assert ando.method is Method.ANDO
    with pytest.raises(ValueError):
        decompose(b, b, "newton")


def test_method_agreement_on_random_pairs():
    rng = np.random.default_rng(35)
    tol_iter = Tolerances(max_iter=50_000)
    for _ in range(30):
        a, b = random_pair(rng)
        scale = 1e-6 * (1.0 + b.norm)
        direct = decompose(a, b, "direct")
        ando = decompose(a, b, "ando")
        assert np.linalg.norm(direct.sing.entries - ando.sing.entries) <= scale
        iterate = decompose(a, b, "iterate", tol_iter)
        if iterate.converged:
            assert np.linalg.norm(direct.sing.entries - iterate.sing.entries) <= scale


def test_decomposition_invariants():
    rng = np.random.default_rng(36)
    for method in ("direct", "ando", "iterate"):
        for _ in range(8):
            a, b = random_pair(rng, max_dim=8)
            dec = decompose(a, b, method)
            assert np.linalg.norm(b.entries - dec.ac.entries - dec.sing.entries) <= DEFAULT_TOL.recon_tol * (1.0 + b.norm)
            if dec.converged:
                assert parallel_sum(a, dec.sing).norm <= 1e-8 * (1.0 + b.norm)
            else:
                # the flag is the contract: the parts are only as singular as
                # the reported stopping residual allows
                assert parallel_sum(a, dec.sing).norm <= 1e-8 * (1.0 + b.norm) + 4.0 * dec.residual
            p = range_projection(a).entries
            leak = np.linalg.norm(dec.ac.entries - p @ dec.ac.entries @ p)
            assert leak <= DEFAULT_TOL.recon_tol * (1.0 + b.norm)


def test_contraction_recursion_formula():
    # iterates of a contraction pair obey X <- (I - B + X)^{-1} X^2
    rng = np.random.default_rng(37)
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        bt = random_contraction(rng, dim)
        at = PsdMatrix(np.eye(dim) - bt.entries)
        current = bt
        for _ in range(10):
            nxt = arlinskii_step(current, at)
            predicted = np.linalg.solve(
                np.eye(dim) - bt.entries + current.entries,
                current.entries @ current.entries,
            )
            assert np.linalg.norm(nxt.entries - predicted) <= 1e-9 * (1.0 + np.linalg.norm(predicted))
            current = nxt


def test_fixed_point_characterizes_singularity():
    rng = np.random.default_rng(38)
    from helpers import random_unitary

    for trial in range(10):
        dim = int(rng.integers(2, 9))
        q = random_unitary(rng, dim)
        k = int(rng.integers(1, dim))
        lam_a = np.zeros(dim)
        lam_a[:k] = rng.uniform(0.5, 2.0, size=k)
        a = PsdMatrix((q * lam_a) @ q.conj().T)
        lam_x = np.zeros(dim)
        if trial % 2 == 0:
            lam_x[k:] = rng.uniform(0.5, 2.0, size=dim - k)  # supported on the complement
        else:
            lam_x[: max(1, k)] = rng.uniform(0.5, 2.0, size=max(1, k))
        x = PsdMatrix((q * lam_x) @ q.conj().T)
        fixed = np.linalg.norm(arlinskii_step(x, a).entries - x.entries) <= 1e-9 * (1.0 + x.norm)
        assert fixed == is_singular(a, x)


def test_idempotence_of_decomposition():
    rng = np.random.default_rng(39)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        dec = direct_decompose(a, b)
        again_ac = direct_decompose(a, dec.ac)
        again_sing = direct_decompose(a, dec.sing)
        assert again_ac.sing.norm <= 1e-6 * (1.0 + b.norm)
        assert again_sing.ac.norm <= 1e-6 * (1.0 + b.norm)


def test_maximality_of_absolutely_continuous_part():
    rng = np.random.default_rng(40)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        ac = direct_decompose(a, b).ac
        for k in range(0, 21):
            assert loewner_leq(parallel_sum((2.0**k) * a, b), ac)


def test_splitting_consistency():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        dec = direct_decompose(a, b)
        assert is_absolutely_continuous(dec.ac, a)
        assert is_singular(a, dec.sing)


def test_predicates_agree_with_decomposition_oracle():
    rng = np.random.default_rng(42)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=8)
        dec = direct_decompose(a, b)
        scale = 1e-6 * (1.0 + b.norm)
        assert is_absolutely_continuous(b, a) == (dec.sing.norm <= scale)
        assert is_singular(a, b) == (dec.ac.norm <= scale)
