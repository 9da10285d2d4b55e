"""A matrix is factored at most once: eigensolve counts and the kept spectrum."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from oplebesgue import (
    AuxiliarySpace,
    Functional,
    NumericalError,
    PsdMatrix,
    StarAlgebra,
    auxiliary_space,
    decompose,
    eig_hermitian,
    functional_decompose,
    gns,
    induced_form,
    loewner_leq,
    parallel_sum,
    pinv,
    range_projection,
    spectral_ac_of_contraction,
)
from oplebesgue.core import roundoff, spectral_map
from oplebesgue.lebesgue import arlinskii_iterate, direct_decompose
from oplebesgue.parallel import ando_ac_part

from helpers import random_contraction, random_psd, random_unitary


def _tally(calls):
    return Counter((name, h.shape[0]) for name, h in calls)


def _pair(calls):
    """A seeded pair whose own validation is left out of ``calls``."""
    rng = np.random.default_rng(5)
    pair = random_psd(rng, 12, rank=8), random_psd(rng, 12, rank=10)
    calls.clear()
    return pair


def test_parallel_sum_factors_the_sum_once(eigensolves):
    a, b = _pair(eigensolves)
    parallel_sum(a, b)
    # no eigh for A + B: the solve runs in A's kept eigenbasis (rank 8), with
    # one eigh for the Schur complement on its 4-dim kernel and one to clip
    # the kept block, on whose spectrum the result is validated
    assert _tally(eigensolves) == {("eigh", 4): 1, ("eigh", 8): 1}


def test_direct_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    direct_decompose(a, b)
    # the root factors X (12 x 8) and Y (12 x 10) are read off the inputs'
    # kept factorizations: one SVD of the 18 x 12 stack [X Y]* and one of the
    # 12 x 8 block V_X* that factors a_tilde; neither A + B nor a_tilde is
    # eigensolved, and sing and ac are Gram products, positive by construction
    assert _tally(eigensolves) == {("svd", 18): 1, ("svd", 12): 1}
    assert sorted(h.shape for _, h in eigensolves) == [(12, 8), (18, 12)]


def test_ando_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    result = ando_ac_part(a, b)
    # tr B = 0.56, so the stopping bound iter_tol * tr B is 5.6e-11.  The
    # schedule starts at k0 = 9, where 2^k lambda_min,kept(A) first exceeds
    # ||B||_F = 0.31; from there the Romberg diagonal meets the bound twice
    # in a row after 7 terms, where the plain trace increments need 28
    assert result.converged and result.terms_used == 7
    # A has rank 8 and keeps the factorization it was validated on.  B's
    # block on the 4-dim kernel of A is factored once and keeps all 4
    # directions; a Cholesky of the first term's Schur complement less 2 e
    # (size 4) certifies every later one, so the 7 terms solve against
    # theirs with no eigensolve and form only the 8 x 8 kept block.  The
    # settle runs on ran A, under the Schur complement Shat of B onto ran A:
    # the settling round clips the limit (size 8) and Shat - limit (size 8),
    # whose spectrum certifies the settled limit, so no eigvalsh runs
    assert _tally(eigensolves) == {("eigh", 4): 1, ("cholesky", 4): 1, ("eigh", 8): 2}


def test_ando_singular_part_needs_no_eigensolve(eigensolves):
    # decompose takes ando's singular part from the settle: no eigensolve
    # runs after ando_ac_part returns, and ac + sing is B up to round-off
    ando_ac_part(*_pair(eigensolves))
    alone = _tally(eigensolves)
    a, b = _pair(eigensolves)
    ac, sing = decompose(a, b, "ando")
    assert _tally(eigensolves) == alone
    assert np.linalg.norm(ac.entries + sing.entries - b.entries) <= roundoff(b.dim, b.norm)
    assert loewner_leq(PsdMatrix.zero(b.dim), sing)


def test_ando_calls_no_other_route(monkeypatch):
    # the three-way cross-check compares independent computations, so the
    # doubling limit must not run the parallel sum or the other two routes'
    # constructions
    from oplebesgue import lebesgue, parallel

    def forbidden(*args, **kwargs):
        raise AssertionError("ando_ac_part reached another route")

    for module, name in ((parallel, "parallel_sum"), (lebesgue, "parallel_sum"),
                         (lebesgue, "auxiliary_space"), (lebesgue, "_range_compression")):
        monkeypatch.setattr(module, name, forbidden)
    rng = np.random.default_rng(5)
    a, b = random_psd(rng, 12, rank=8), random_psd(rng, 12, rank=10)
    assert ando_ac_part(a, b).converged


def test_direct_calls_no_other_route(monkeypatch):
    # direct builds its own root-factor stack: it must not run iterate's
    # short of A to ran B, the parallel sum or the doubling limit
    from oplebesgue import lebesgue

    def forbidden(*args, **kwargs):
        raise AssertionError("direct_decompose reached another route")

    for name in ("_range_compression", "parallel_sum", "ando_ac_part"):
        monkeypatch.setattr(lebesgue, name, forbidden)
    rng = np.random.default_rng(5)
    a, b = random_psd(rng, 12, rank=8), random_psd(rng, 12, rank=10)
    assert direct_decompose(a, b).sing.norm > 0.0


def test_iterate_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    result = arlinskii_iterate(a, b)
    assert result.converged and result.iterations == 36
    # B has rank 10, so the iteration runs on its range: B and A's root
    # factor come from the factorizations the inputs were validated on, with
    # no eigensolve; one SVD of the 2 x 8 rows of that factor off ran B (the
    # short of A to ran B, F F* with F 10 x 6), one thin QR of the 16 x 10
    # stack [diag(lam)^(1/2), F]* and one SVD of its 10 x 6 block Q_F*; the
    # steps are a scalar recursion, and the final ac part is certified from
    # B's factorization, the QR and the SVD, with no eigensolve
    assert _tally(eigensolves) == {("svd", 2): 1, ("svd", 10): 1, ("qr", 16): 1}
    assert sorted((name, h.shape) for name, h in eigensolves) == [
        ("qr", (16, 10)), ("svd", (2, 8)), ("svd", (10, 6))]


def test_b_tilde_is_built_on_first_use(eigensolves):
    # direct never reads b_tilde, so auxiliary_space does not build it; the
    # first read gives I - a_tilde on a_tilde's eigenvectors, with no
    # eigensolve, and later reads return the same matrix.  Its spectrum
    # ||V_Y q_i||^2 is 1 - mu_i to round-off, but not by subtraction
    a, b = _pair(eigensolves)
    aux = auxiliary_space(a, b)
    assert "b_tilde" not in vars(aux)
    eigensolves.clear()
    b_tilde = aux.b_tilde
    assert eigensolves == []
    assert aux.b_tilde is b_tilde
    mu = eig_hermitian(aux.a_tilde).eigenvalues
    assert np.array_equal(b_tilde.entries, spectral_map(aux.a_tilde, aux._complement).entries)
    assert np.allclose(aux._complement, 1.0 - mu, rtol=0.0, atol=1e-14)


def test_a_tilde_is_built_on_first_use(eigensolves, monkeypatch):
    # direct reads only a_tilde's spectrum (mu, Q), so auxiliary_space does
    # not build its entries; the first read gives Q diag(mu) Q*, kept with
    # that factorization and with no eigensolve, and later reads return the
    # same matrix
    a, b = _pair(eigensolves)
    aux = auxiliary_space(a, b)
    assert "a_tilde" not in vars(aux)
    eigensolves.clear()
    a_tilde = aux.a_tilde
    assert aux.a_tilde is a_tilde
    dec = eig_hermitian(a_tilde)
    assert eigensolves == []
    assert np.array_equal(dec.eigenvalues, aux._spectrum.eigenvalues)
    assert np.array_equal(dec.vectors, aux._spectrum.vectors)

    def forbidden(self):
        raise AssertionError("direct_decompose built a_tilde")

    monkeypatch.setattr(AuxiliarySpace, "a_tilde", property(forbidden))
    ac, sing = direct_decompose(a, b)
    assert np.linalg.norm(ac.entries + sing.entries - b.entries) <= 1e-10 * b.norm


def test_direct_checks_the_unitarity_of_a_tildes_eigenvectors(monkeypatch):
    # direct reads a_tilde's eigenvectors without the eigensolve's residual
    # checks, so it checks their unitarity itself
    from oplebesgue import lebesgue

    def skewed(a, b, tol):
        return dataclasses.replace(auxiliary_space(a, b, tol), _ortho=1.0)

    monkeypatch.setattr(lebesgue, "auxiliary_space", skewed)
    with pytest.raises(NumericalError, match="unitarity residual"):
        direct_decompose(*_pair([]))


def _block_pair(calls):
    """Seeded rank-deficient block functionals on C^2 + C^3 (Gram dimension
    13), built before ``calls`` is cleared."""
    rng = np.random.default_rng(7)
    algebra = StarAlgebra((2, 3))
    w = Functional(algebra, (random_psd(rng, 2, rank=1), random_psd(rng, 3, rank=2)))
    v = Functional(algebra, (random_psd(rng, 2, rank=2), random_psd(rng, 3, rank=1)))
    calls.clear()
    return w, v


def test_functional_decompose_eigensolve_count(eigensolves):
    w, v = _block_pair(eigensolves)
    functional_decompose(w, v)
    # the induced forms declare two copies of block 1 and three of block 2,
    # so direct runs once on the 5-dim one-copy Grams, which keep their
    # densities' factorizations: the root factors need no eigensolve; the
    # 6 x 5 stack [X Y]* splits into 3 x 2 on block 1 (X has 2 columns
    # there, Y 1) and 3 x 3 on block 2 (X 1, Y 2), and the 5 x 3 block V_X*
    # into 2 x 2 and 3 x 1; then eigh clips each rebuilt density once.  ac
    # on both blocks and sing on block 2 are dense (ac on block 2 is
    # round-off of size eps^2 ||C||, where the part is zero), while sing on
    # block 1 is exactly zero, one call per diagonal entry; sing and ac are
    # positive by construction
    assert _tally(eigensolves) == {("svd", 3): 2 + 1, ("svd", 2): 1,
                                   ("eigh", 2): 1, ("eigh", 3): 2, ("eigh", 1): 2}


def test_induced_form_runs_no_eigensolve(eigensolves):
    # the one-copy Gram keeps the factorizations its densities hold, so
    # neither building it nor reading its spectrum runs a solver
    w, _ = _block_pair(eigensolves)
    gram = induced_form(w).copy_gram
    dec = eig_hermitian(gram)
    assert eigensolves == []
    fresh = np.sort(np.linalg.eigvalsh(gram.entries))[::-1]
    assert np.allclose(dec.eigenvalues, fresh, rtol=0.0, atol=1e-12 * gram.norm)
    rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    assert np.allclose(rebuilt, gram.entries, rtol=0.0, atol=1e-12 * gram.norm)


def test_gns_eigensolve_count(eigensolves):
    w, _ = _block_pair(eigensolves)
    assert gns(w).space_dim == 8
    # the densities' kept spectra; the 13-dim Gram is never formed or factored
    assert eigensolves == []


def test_ando_factors_the_reference_once_and_no_scaled_copy(eigensolves):
    # A is factored once, at construction, and ando_ac_part factors neither
    # A nor any 2^k A
    rng = np.random.default_rng(5)
    a = random_psd(rng, 12, rank=8)
    assert [name for name, h in eigensolves if np.array_equal(h, a.entries)] == ["eigh"]
    b = random_psd(rng, 12, rank=10)
    eigensolves.clear()
    ando_ac_part(a, b)
    inputs = [h for _, h in eigensolves if h.shape == a.entries.shape]
    assert not any(np.array_equal(h, a.entries) for h in inputs)
    for k in range(1, 41):
        scaled = (2.0**k) * a.entries
        assert not any(np.array_equal(h, scaled) for h in inputs), k


def test_kept_spectrum_equals_a_fresh_factorization(eigensolves):
    # the constructor validates on the one eigh it keeps
    entries = random_psd(np.random.default_rng(1), 9, rank=6).entries
    eigensolves.clear()
    m = PsdMatrix(entries)
    assert _tally(eigensolves) == {("eigh", 9): 1}
    dec = eig_hermitian(m)
    assert eig_hermitian(m) is dec
    assert _tally(eigensolves) == {("eigh", 9): 1}
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(-w, kind="stable")
    assert np.array_equal(dec.eigenvalues, w[order])
    assert np.array_equal(dec.vectors, v[:, order])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("entry,scalar", [(1e150, 2.0**600), (1e300, 2.0**40)])
def test_overflowing_power_of_two_scaling_is_rejected(entry, scalar):
    # the matrix itself is finite; only its scaled copy overflows
    m = PsdMatrix([[entry]])
    assert np.all(np.isfinite(m.entries))
    with pytest.raises(ValueError, match="must be finite"):
        m * scalar


def test_power_of_two_scaling_keeps_the_psd_slack_check():
    # the slack grows with the largest eigenvalue, so a negative eigenvalue
    # within it at one scale falls outside it at a larger one; the validated
    # matrix stores it settled at zero, and the raw scaled array is rejected
    raw = np.array([[-0.9e-10]])
    assert np.array_equal(PsdMatrix(raw).entries, [[0.0]])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        PsdMatrix(raw * 2.0**20)


def test_negative_eigenvalue_accepted_by_the_slack_is_settled_on_its_factorization(eigensolves):
    # -5e-11 is inside the slack but far below roundoff(2, 1) = 1.1e-13: the
    # constructor clips it on the factorization it validated (one eigh per
    # 1 x 1 block of the diagonal input, and no other solve), and keeps that
    # factorization, which rebuilds the stored entries
    m = PsdMatrix(np.diag([1.0, -5e-11]))
    assert _tally(eigensolves) == {("eigh", 1): 2}
    assert np.array_equal(m.entries, np.diag([1.0, 0.0]))
    dec = eig_hermitian(m)
    assert np.array_equal(dec.eigenvalues, [1.0, 0.0])
    assert np.array_equal((dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T, m.entries)
    assert _tally(eigensolves) == {("eigh", 1): 2}


def test_round_off_negative_eigenvalues_keep_the_entries_bitwise():
    # a rank-deficient product has eigenvalues a round-off below zero, which
    # the constructor leaves in place: it stores the input's Hermitian part
    rng = np.random.default_rng(8)
    q = random_unitary(rng, 9)
    raw = (q * np.concatenate([rng.uniform(0.1, 1.0, 4), np.zeros(5)])) @ q.conj().T
    m = PsdMatrix(raw)
    smallest = eig_hermitian(m).eigenvalues[-1]
    assert -roundoff(9, m.norm) < smallest < 0.0
    assert np.array_equal(m.entries, raw / 2.0 + raw.conj().T / 2.0)


def _derived(kind):
    rng = np.random.default_rng(4)
    a, b = random_psd(rng, 9, rank=5), random_psd(rng, 9, rank=7)
    if kind == "pinv":
        return pinv(b)
    if kind == "range_projection":
        return range_projection(b)
    if kind == "spectral_ac_of_contraction":
        return spectral_ac_of_contraction(random_contraction(rng, 9, unit_eigs=2))
    if kind == "b_tilde":
        return auxiliary_space(a, b).b_tilde
    if kind == "parallel_sum":
        return parallel_sum(a, b)
    # a norm mismatch of 1e4: the larger operand's kernel splits the solve
    return parallel_sum(a, 1e4 * b)


@pytest.mark.parametrize("kind", [
    "pinv", "range_projection", "spectral_ac_of_contraction", "b_tilde",
    "parallel_sum", "parallel_sum_deflated",
])
def test_derived_matrices_keep_the_spectrum_they_were_built_from(eigensolves, kind):
    m = _derived(kind)
    eigensolves.clear()
    dec = eig_hermitian(m)
    assert eigensolves == []
    fresh = np.sort(np.linalg.eigvalsh(m.entries))[::-1]
    assert np.allclose(dec.eigenvalues, fresh, rtol=0.0, atol=1e-12 * m.norm)
    rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    assert np.allclose(rebuilt, m.entries, rtol=0.0, atol=1e-12 * m.norm)
