"""A matrix is factored at most once: eigensolve counts and the kept spectrum."""

from collections import Counter

import numpy as np
import pytest

from oplebesgue import (
    Functional,
    PsdMatrix,
    StarAlgebra,
    auxiliary_space,
    eig_hermitian,
    functional_decompose,
    gns,
    induced_form,
    parallel_sum,
    pinv,
    range_projection,
    spectral_ac_of_contraction,
)
from oplebesgue.lebesgue import arlinskii_iterate, direct_decompose
from oplebesgue.parallel import ando_ac_part

from helpers import random_contraction, random_psd


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
    # one eigh for A + B (validation included), one to clip the result,
    # which is validated on the clipped spectrum
    assert _tally(eigensolves) == {("eigh", 12): 2}


def test_direct_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    direct_decompose(a, b)
    # eigh for A + B and a_tilde (b_tilde reuses its spectrum); sing and ac
    # are Gram products, positive by construction
    assert _tally(eigensolves) == {("eigh", 12): 2}


def test_ando_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    result = ando_ac_part(a, b)
    # tr B = 0.56, so the stopping bound iter_tol * tr B is 5.6e-11; the
    # Romberg diagonal meets it twice in a row after 15 terms, where the
    # plain trace increments need 37
    assert result.converged and result.terms_used == 15
    # the one eigvalsh is the settling loop's stop check, which also
    # validates the settled limit
    assert _tally(eigensolves) == {("eigh", 4): 10, ("eigh", 12): 23, ("eigvalsh", 12): 1}


def test_iterate_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    result = arlinskii_iterate(a, b)
    assert result.converged and result.iterations == 36
    # B has rank 10, so the steps run on its range: one eigh each for B and
    # for A's root factor, one SVD of the 2 x 8 rows of that factor off ran B
    # (the short of A to ran B), then two size-10 eigh per step (X + Y and
    # the clipped X : Y), one size-10 eigvalsh per step to validate X - X : Y,
    # and one size-12 eigvalsh for the final ac part
    assert _tally(eigensolves) == {("eigh", 12): 2, ("eigh", 10): 72, ("eigvalsh", 10): 36,
                                   ("eigvalsh", 12): 1, ("svd", 2): 1}


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
    # eigh factors the sum and a_tilde, then clips each rebuilt density once;
    # the induced Grams, sing and ac are positive by construction
    assert _tally(eigensolves) == {("eigh", 13): 2, ("eigh", 2): 2, ("eigh", 3): 2}


def test_induced_form_runs_no_eigensolve(eigensolves):
    w, _ = _block_pair(eigensolves)
    induced_form(w)
    assert eigensolves == []


def test_gns_eigensolve_count(eigensolves):
    w, _ = _block_pair(eigensolves)
    assert gns(w).space_dim == 8
    # one eigh per density; the 13-dim Gram is never formed or factored
    assert _tally(eigensolves) == {("eigh", 2): 1, ("eigh", 3): 1}


def test_ando_factors_the_reference_once_and_no_scaled_copy(eigensolves):
    a, b = _pair(eigensolves)
    ando_ac_part(a, b)
    inputs = [h for _, h in eigensolves if h.shape == a.entries.shape]
    assert sum(np.array_equal(h, a.entries) for h in inputs) == 1
    for k in range(1, 41):
        scaled = (2.0**k) * a.entries
        assert not any(np.array_equal(h, scaled) for h in inputs), k


def test_kept_spectrum_equals_a_fresh_factorization(eigensolves):
    m = random_psd(np.random.default_rng(1), 9, rank=6)
    eigensolves.clear()
    dec = eig_hermitian(m)
    assert eig_hermitian(m) is dec
    assert _tally(eigensolves) == {("eigh", 9): 1}
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(-w, kind="stable")
    assert np.array_equal(dec.eigenvalues, w[order])
    assert np.array_equal(dec.vectors, v[:, order])


@pytest.mark.parametrize("k", [1, 7, 40])
def test_power_of_two_scaling_inherits_the_spectrum(eigensolves, k):
    m = random_psd(np.random.default_rng(2), 9, rank=6)
    base = eig_hermitian(m)
    eigensolves.clear()
    scaled = (2.0**k) * m
    dec = eig_hermitian(scaled)
    assert eigensolves == []
    assert np.array_equal(scaled.entries, (2.0**k) * m.entries)
    assert np.array_equal(dec.eigenvalues, (2.0**k) * base.eigenvalues)
    assert dec.vectors is base.vectors
    w = np.sort(np.linalg.eigvalsh(scaled.entries))[::-1]
    assert np.allclose(dec.eigenvalues, w, rtol=0.0, atol=1e-12 * scaled.norm)


@pytest.mark.parametrize("scalar", [3.0, 0.5])
def test_other_scalars_take_the_full_validation_path(eigensolves, scalar):
    m = random_psd(np.random.default_rng(3), 9, rank=6)
    eig_hermitian(m)
    eigensolves.clear()
    scaled = scalar * m
    assert _tally(eigensolves) == {("eigvalsh", 9): 1}
    eig_hermitian(scaled)
    assert _tally(eigensolves) == {("eigvalsh", 9): 1, ("eigh", 9): 1}


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
    # within it at one scale can fall outside it at a larger one
    m = PsdMatrix([[-0.9e-10]])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        m * 2.0**20


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
    # a norm ratio above 100 takes the kernel-deflated branch
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
