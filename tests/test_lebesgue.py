"""Lebesgue decomposition: iteration, auxiliary space, direct construction, predicates."""

import numpy as np
import pytest

from oplebesgue import (
    DEFAULT_TOL,
    Method,
    NumericalError,
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
from oplebesgue import core, lebesgue
from oplebesgue.core import psd_difference, roundoff

from helpers import anderson_trapp_ac, random_contraction, random_pair, random_psd, random_unitary


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


@pytest.mark.parametrize("spread, draw, converged",
                         [(5, 114, True), (7, 8, False), (7, 17, True), (7, 74, False)])
def test_iterate_carries_its_round_off_over_thousands_of_steps(spread, draw, converged):
    # hostile draws that need hundreds to thousands of steps: the flag, and
    # the parts when converged, must hold over the whole run
    rng = np.random.default_rng([31, spread])
    for _ in range(draw + 1):
        a, b = random_pair(rng, 12, ratio=10.0**spread)
    dec = arlinskii_iterate(a, b, Tolerances(max_iter=3000))
    assert dec.converged is converged and dec.iterations > 500
    if converged:
        ref = anderson_trapp_ac(a.entries, b.entries)
        assert np.linalg.norm(dec.ac.entries - ref) <= 1e-7 * b.norm


def test_direct_matches_the_oracle_on_hostile_spreads():
    # with a_tilde = S* A S for S = U / sqrt(lam) over ran(A + B), kernel
    # eigenvalues of a_tilde are read as kept once lambda_min(C) / ||C|| drops
    # below about 2e-6; on these draws direct then says converged 7.7e-3,
    # 1.7e-6, 4.9e-6, 1.0, 9.3e-5 and 0.20 * ||B|| off the oracle
    draws = {6: [184], 8: [132, 154, 197], 10: [32, 98]}
    errors = {}
    for spread, indices in draws.items():
        rng = np.random.default_rng([31, spread])
        for index in range(max(indices) + 1):
            a, b = random_pair(rng, 12, ratio=10.0**spread)
            if index in indices:
                dec = decompose(a, b, "direct")
                oracle = anderson_trapp_ac(a.entries, b.entries)
                errors[spread, index] = (dec.converged,
                                         np.linalg.norm(dec.ac.entries - oracle) / b.norm)
    assert all(converged and error <= 1e-9 for converged, error in errors.values()), errors


@pytest.mark.parametrize("exponent", [3, 6, 8])
def test_direct_matches_the_oracle_on_the_hostile_sweep(exponent):
    # the first 100 draws of the iterate sweep; direct always says converged,
    # so every draw must be within the bound.  With a_tilde = S* A S for
    # S = U / sqrt(lam) over ran(A + B), at 1e8 draws 20, 80 and 99 raise and
    # draw 50 is 6.2e-9 * ||B|| off; with 1 - mu_i read by subtraction
    # instead of as ||V_Y q_i||^2, draw 50 is 1.2e-9 * ||B|| off
    rng = np.random.default_rng([31, exponent])
    for i in range(100):
        a, b = random_pair(rng, 12, ratio=10.0**exponent)
        if b.norm == 0.0:
            continue
        dec = direct_decompose(a, b)
        error = np.linalg.norm(dec.ac.entries - anderson_trapp_ac(a.entries, b.entries))
        assert dec.converged and error <= 1e-9 * b.norm, (i, error / b.norm)


@pytest.mark.parametrize("exponent", [10, 12])
def test_direct_parts_sum_to_b_on_hostile_spreads(exponent):
    # the inputs' own cutoffs drop at most n eigenvalues of B below
    # rank_rtol * ||B||, and the rest is round-off at the scale of C.  With
    # the rank of the root stack judged on the eigenvalues s^2 of C instead
    # of its singular values s, B's mass below rank_rtol * ||A|| is dropped:
    # at 1e10, draw 76 (||A|| / ||B|| = 4.3e8) loses 0.13 * ||B||, and at 1e12
    # ten draws lose up to 0.78 * ||B||
    rng = np.random.default_rng([31, exponent])
    for i in range(200):
        a, b = random_pair(rng, 12, ratio=10.0**exponent)
        dec = direct_decompose(a, b)
        bound = b.dim * DEFAULT_TOL.rank_rtol * b.norm + roundoff(b.dim, a.norm + b.norm)
        assert np.linalg.norm(dec.ac.entries + dec.sing.entries - b.entries) <= bound, i


def _rank_deficient_pair(seed):
    """A 12-dim pair, A of rank 8 and B of rank 10, so B has a singular part."""
    rng = np.random.default_rng(seed)
    return random_psd(rng, 12, rank=8), random_psd(rng, 12, rank=10)


@pytest.mark.parametrize("seed", range(5))
def test_iterate_limit_certificate_lies_below_the_spectrum(monkeypatch, seed):
    # the bound that stands in for an eigensolve of ac = B - sing is a lower
    # bound on its smallest eigenvalue, inside the noise, and below it by
    # about the round-off term it carries
    a, b = _rank_deficient_pair(seed)
    bounds = []
    real = lebesgue._limit_floor

    def spy(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(lebesgue, "_limit_floor", spy)
    dec = arlinskii_iterate(a, b)
    assert dec.sing.norm > 1e-3 * b.norm
    lowest = float(np.linalg.eigvalsh(dec.ac.entries)[0])
    scale = DEFAULT_TOL.psd_slack * (a.norm + b.norm)
    assert len(bounds) == 1
    assert -scale < bounds[0] <= lowest
    assert lowest - bounds[0] <= 2.0 * roundoff(b.dim, b.norm + dec.sing.norm)


@pytest.mark.parametrize("seed", range(3))
def test_iterate_limit_falls_back_to_the_exact_check(monkeypatch, seed):
    # the certificate's round-off term grows with n; where it alone exceeds
    # the noise, one eigvalsh of B - sing decides and ac is what it was
    a, b = _rank_deficient_pair(seed)
    certified = arlinskii_iterate(a, b)
    solves = []
    real = core._eigvalsh

    def counted(h):
        solves.append(h.shape)
        return real(h)

    monkeypatch.setattr(lebesgue, "roundoff", lambda dim, scale: 1e6 * scale)
    monkeypatch.setattr(core, "_eigvalsh", counted)
    checked = arlinskii_iterate(a, b)
    assert solves == [(12, 12)]
    assert np.array_equal(checked.ac.entries, certified.ac.entries)
    assert np.array_equal(checked.sing.entries, certified.sing.entries)
    exact = psd_difference(b, certified.sing, 1.0, "test")
    assert np.array_equal(checked.ac.entries, exact.entries)


def test_iterate_limit_above_b_is_a_named_failure(monkeypatch):
    # G = R* scaled by 1.1 makes sing = H diag(g) H* exceed B by about a
    # fifth of itself; the certificate sees it as the QR disagreeing with
    # B's spectrum and raises as the eigensolve did
    a, b = _rank_deficient_pair(0)
    real = np.linalg.qr
    calls = []

    def inflated(m, *args, **kwargs):
        q, r = real(m, *args, **kwargs)
        calls.append(m.shape)
        return q, 1.1 * r

    monkeypatch.setattr(np.linalg, "qr", inflated)
    with pytest.raises(NumericalError, match="iterate limit lost positivity") as info:
        arlinskii_iterate(a, b)
    assert len(calls) == 1
    assert info.value.residual > DEFAULT_TOL.psd_slack * (a.norm + b.norm)


@pytest.mark.parametrize("seed", range(3))
def test_iterate_keeps_a_direct_sum_block_diagonal(seed):
    # on A = A1 + A2 + A3 and B = B1 + B2 + B3 (blocks 3, 4 and 2, each B_i
    # with a singular part) every factor iterate builds is local to one
    # summand, the QR of the stack included, so ac and sing carry exact
    # zeros between the summands
    rng = np.random.default_rng([17, seed])
    dims, ranks_a, ranks_b = (3, 4, 2), (2, 2, 1), (3, 3, 2)
    starts = np.cumsum((0,) + dims)
    a_entries, b_entries = np.zeros((9, 9), complex), np.zeros((9, 9), complex)
    for lo, hi, ra, rb in zip(starts, starts[1:], ranks_a, ranks_b):
        a_entries[lo:hi, lo:hi] = random_psd(rng, hi - lo, ra).entries
        b_entries[lo:hi, lo:hi] = random_psd(rng, hi - lo, rb).entries
    a, b = PsdMatrix(a_entries), PsdMatrix(b_entries)
    dec = arlinskii_iterate(a, b)
    assert dec.converged
    for part in (dec.ac.entries, dec.sing.entries):
        for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
            outside = np.delete(part[lo:hi], np.s_[lo:hi], axis=1)
            assert np.all(outside == 0.0), i
    for lo, hi in zip(starts, starts[1:]):
        assert np.linalg.norm(dec.sing.entries[lo:hi, lo:hi]) > 1e-3 * b.norm
    assert np.linalg.norm(dec.ac.entries + dec.sing.entries - b.entries) <= roundoff(
        b.dim, a.norm + b.norm)


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


@pytest.mark.parametrize("swapped", [False, True], ids=["b-negative", "a-negative"])
@pytest.mark.parametrize("call", ["parallel_sum", "direct", "iterate", "ando"])
def test_negative_mass_inside_the_slack_is_carried_through(call, swapped):
    # PsdMatrix accepts diag(-1e-11, 0) within its slack and settles it to
    # zero where it accepts it, so every call takes the pair as PSD.  A : B
    # and the ac part are zero up to the slack (one operand is), as the
    # oracle says too; the parts sum to B.  The settled B has no negative
    # trace, so the iterative routes' threshold iter_tol trace B is never
    # negative and every route converges
    a, b = PsdMatrix(np.eye(2)), PsdMatrix(np.diag([-1e-11, 0.0]))
    if swapped:
        a, b = b, a
    slack = DEFAULT_TOL.psd_slack * (1.0 + a.norm + b.norm)
    if call == "parallel_sum":
        assert np.linalg.norm(parallel_sum(a, b).entries) <= slack
        return
    dec = decompose(a, b, call)
    assert dec.converged
    assert np.linalg.norm(dec.ac.entries) <= slack
    assert np.linalg.norm(dec.ac.entries - anderson_trapp_ac(a.entries, b.entries)) <= slack
    assert np.linalg.norm(dec.ac.entries + dec.sing.entries - b.entries) <= slack


@pytest.mark.parametrize("call", ["iterate", "ando"])
def test_a_derived_part_with_a_negative_trace_is_all_singular(call):
    # ran A and ran B meet only in 0, so iterate's ac part of B is round-off
    # alone, here with trace -6.1e-16 and negative eigenvalues far below its
    # own round-off: it is built, not validated.  Decomposed again, it is
    # zero up to round-off, so both routes stop at once with all of it
    # singular, where a threshold of iter_tol times its trace is negative
    # and no increment could reach it
    q = random_unitary(np.random.default_rng(2), 4)
    a = PsdMatrix((q[:, :2] * [1.0, 0.5]) @ q[:, :2].conj().T)
    b = PsdMatrix((q[:, 2:] * [1.0, 0.5]) @ q[:, 2:].conj().T)
    part = arlinskii_iterate(a, b).ac
    assert part.trace < 0.0
    dec = decompose(a, part, call, Tolerances(max_iter=10**4))
    assert dec.converged and dec.iterations <= 1
    assert dec.ac.norm == 0.0 and dec.sing is part


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
        # the bound scales with B: a leak of all of B is never round-off
        (1e-9 * np.diag([0.0, 1.0]), 1e-9 * np.diag([1.0, 0.0]), False),
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
        # the bound scales with A and B: 1e-9 I is not singular to itself
        (1e-9 * np.eye(2), 1e-9 * np.eye(2), False),
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


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
def test_splitting_consistency_at_every_scale(scale):
    # the predicates' bounds scale with the operands, so they hold the
    # direct parts to the same relative standard far from unit scale
    rng = np.random.default_rng(43)
    for _ in range(10):
        a, b = random_pair(rng, max_dim=8)
        a, b = PsdMatrix(scale * a.entries), PsdMatrix(scale * b.entries)
        dec = direct_decompose(a, b)
        assert is_absolutely_continuous(dec.ac, a)
        assert is_singular(a, dec.sing)


def _a_scale_cases():
    for c in (1.0, 1e-12):
        for method in ("direct", "iterate", "ando"):
            marks = ()
            if c == 1e-12 and method in ("iterate", "ando"):
                # both stop once a trace increment, of order c here, is below
                # iter_tol * tr B, and say converged with ac = 0
                marks = pytest.mark.xfail(strict=True, reason="converged with ac = 0")
            yield pytest.param(c, method, marks=marks)


@pytest.mark.parametrize("c, method", _a_scale_cases())
def test_ac_part_does_not_depend_on_the_scale_of_a(c, method):
    # ran A = span e1 for every c > 0, so ac is B's short to e1: 1 - .5^2
    a, b = PsdMatrix(np.diag([c, 0.0])), PsdMatrix([[1.0, 0.5], [0.5, 1.0]])
    dec = decompose(a, b, method)
    if dec.converged:
        assert np.linalg.norm(dec.ac.entries - np.diag([0.75, 0.0])) <= 1e-9 * b.norm


def test_predicates_agree_with_decomposition_oracle():
    rng = np.random.default_rng(42)
    for _ in range(15):
        a, b = random_pair(rng, max_dim=8)
        dec = direct_decompose(a, b)
        scale = 1e-6 * (1.0 + b.norm)
        assert is_absolutely_continuous(b, a) == (dec.sing.norm <= scale)
        assert is_singular(a, b) == (dec.ac.norm <= scale)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_absolute_continuity_survives_entries_above_the_norm_overflow(scale):
    # ran B = ran A; the leak is round-off at B's scale, whose square
    # overflows above about 1.3e154
    q = np.array([1.0, 2.0, 2.0]) / 3.0
    a = PsdMatrix(np.outer(q, q))
    assert is_absolutely_continuous(PsdMatrix(scale * np.outer(q, q)), a)
    assert not is_absolutely_continuous(PsdMatrix(scale * np.eye(3)), a)
