"""A matrix is factored at most once: eigensolve counts and the kept spectrum."""

from collections import Counter

import numpy as np
import pytest

from oplebesgue import PsdMatrix, eig_hermitian, parallel_sum
from oplebesgue.lebesgue import direct_decompose
from oplebesgue.parallel import ando_ac_part

from helpers import random_psd


@pytest.fixture
def eigensolves(monkeypatch):
    """(solver name, copy of the input) for every call of numpy's Hermitian
    eigensolvers."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(h, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.array(h)))
            return _original(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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
    # one eigh for A + B (validation included), one eigh and one eigvalsh
    # to project and validate the result
    assert _tally(eigensolves) == {("eigh", 12): 2, ("eigvalsh", 12): 1}


def test_direct_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    direct_decompose(a, b)
    assert _tally(eigensolves) == {("eigh", 12): 2, ("eigvalsh", 12): 4}


def test_ando_eigensolve_count(eigensolves):
    a, b = _pair(eigensolves)
    result = ando_ac_part(a, b)
    assert result.converged and result.terms_used == 35
    assert _tally(eigensolves) == {
        ("eigh", 4): 60, ("eigvalsh", 4): 60, ("eigh", 12): 43, ("eigvalsh", 12): 38,
    }


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
