"""Results that are PSD by construction skip their validating eigensolve.

The induced Gram of a block functional is a direct sum of copies of the
validated densities, and the parts of the direct decomposition are Gram
products X X*.  These tests check that the skipped validation would have
passed, that the trusted constructor keeps its cheap checks, and that the
blockwise GNS construction makes the rank decisions of the dense Gram.
"""

import numpy as np
import pytest

from oplebesgue import (
    DEFAULT_TOL,
    Functional,
    PsdMatrix,
    StarAlgebra,
    decompose,
    eig_hermitian,
    evaluate,
    functional_decompose,
    functional_parallel_sum,
    gns,
    induced_form,
)
from oplebesgue.core import psd_by_construction

from helpers import hostile_functional, random_pair, random_psd


def _meets_psd_slack(h, tol=DEFAULT_TOL):
    w = np.linalg.eigvalsh(h)
    return w.size == 0 or w[0] >= -tol.psd_slack * (1.0 + np.max(np.abs(w)))


def test_trusted_constructor_runs_no_eigensolve_until_factored(eigensolves):
    h = random_psd(np.random.default_rng(8), 6, rank=3).entries
    eigensolves.clear()
    m = psd_by_construction(h)
    assert eigensolves == []
    assert np.array_equal(m.entries, h)
    assert not m.entries.flags.writeable
    dec = eig_hermitian(m)
    assert [name for name, _ in eigensolves] == ["eigh"]
    assert np.allclose((dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T, h,
                       rtol=0.0, atol=1e-12 * m.norm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_trusted_constructor_rejects_non_finite_entries(bad):
    h = np.eye(3, dtype=complex)
    h[1, 2] = h[2, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        psd_by_construction(h)


def test_trusted_constructor_rejects_non_hermitian_and_non_square():
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_by_construction([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_by_construction([[1e200, 1e200], [0.0, 1e200]])
    with pytest.raises(ValueError, match="square"):
        psd_by_construction(np.ones((2, 3)))


@pytest.mark.parametrize("spread,across", [
    (1e3, 1.0), (1e6, 1e3), (1e12, 1.0), (1e3, 1e12), (1e12, 1e12),
])
def test_induced_gram_would_pass_its_validation(spread, across):
    rng = np.random.default_rng([21, int(np.log10(spread)), int(np.log10(across))])
    for dims in [(1,), (3,), (2, 3), (4, 1, 3)]:
        for _ in range(4):
            scales = across ** -rng.uniform(0.0, 1.0, size=len(dims))
            w = hostile_functional(rng, dims, spread, scales)
            assert _meets_psd_slack(induced_form(w).gram.entries), (dims, spread, across)


@pytest.mark.parametrize("seed", [2, 3, 12])
def test_direct_parts_would_pass_their_validation_on_gaussian_pairs(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    y = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    dec = decompose(PsdMatrix(x @ x.conj().T), PsdMatrix(y @ y.conj().T), "direct")
    assert _meets_psd_slack(dec.sing.entries)
    assert _meets_psd_slack(dec.ac.entries)


@pytest.mark.parametrize("ratio", [1e3, 1e6, 1e8, 1e10, 1e12])
def test_direct_parts_would_pass_their_validation_on_random_pairs(ratio):
    # with a_tilde = S* A S for S = U / sqrt(lam) over ran(A + B), 1 of the
    # 30 draws fails at 1e10 and 2 at 1e12
    rng = np.random.default_rng([22, int(np.log10(ratio))])
    for _ in range(30):
        a, b = random_pair(rng, ratio=ratio)
        dec = decompose(a, b, "direct")
        assert _meets_psd_slack(dec.sing.entries)
        assert _meets_psd_slack(dec.ac.entries)


def _dense_space_dim(w, tol=DEFAULT_TOL):
    """Rank of the dense induced Gram under the relative cutoff."""
    gram = induced_form(w).gram.entries
    return int(np.count_nonzero(tol.support(np.linalg.eigvalsh(gram)[::-1])))


@pytest.mark.parametrize("small,kept", [(1e-12, False), (1e-9, True)])
def test_gns_cutoff_is_relative_to_the_largest_block(small, kept):
    # each block alone is full rank; only a cutoff against the largest
    # eigenvalue over all blocks drops the block at scale 1e-12
    w = Functional(StarAlgebra((2, 3)), (
        PsdMatrix(np.diag([1.0, 0.5])),
        PsdMatrix(small * np.diag([1.0, 0.7, 0.4])),
    ))
    triplet = gns(w)
    assert triplet.space_dim == _dense_space_dim(w) == (2 * 2 + (3 * 3 if kept else 0))
    small_block = w.algebra.element([np.zeros((2, 2)), np.eye(3)])
    value = complex(np.vdot(triplet.cyclic_vector,
                            triplet.represent(small_block) @ triplet.cyclic_vector))
    assert value == pytest.approx(evaluate(w, small_block) if kept else 0.0, abs=1e-20)


def _two_scale_pair(small):
    """w with a full-rank block at scale 1 and one at ``small``; v agrees with
    w on the first block and is zero on the second, where w is v-singular."""
    algebra = StarAlgebra((2, 3))
    large = PsdMatrix(np.diag([1.0, 0.5]))
    w = Functional(algebra, (large, PsdMatrix(small * np.diag([1.0, 0.7, 0.4]))))
    v = Functional(algebra, (large, PsdMatrix.zero(3)))
    summed = Functional(algebra, tuple(x + y for x, y in zip(w.densities, v.densities)))
    return w, v, summed, algebra.element([np.zeros((2, 2)), np.eye(3)])


@pytest.mark.parametrize("method", ["direct", "iterate", "ando"])
@pytest.mark.parametrize("small,kept", [(1e-12, False), (1e-9, True)])
def test_functional_decompose_cutoff_is_relative_to_the_largest_block(small, kept, method):
    # the Gram of w + v is solved block by block, but the support of the sum
    # is decided against its largest eigenvalue over all blocks: the block at
    # 1e-12 is dropped, so no part of w there is v-singular, while a cutoff
    # per block would keep it and put all of w's second block in sing
    w, v, summed, small_block = _two_scale_pair(small)
    assert _dense_space_dim(summed) == 2 * 2 + (3 * 3 if kept else 0)
    dec = functional_decompose(w, v, method)
    assert dec.converged
    assert evaluate(dec.sing, small_block) == pytest.approx(
        evaluate(w, small_block) if kept else 0.0, abs=1e-20)


@pytest.mark.parametrize("small,kept", [(1e-12, False), (1e-9, True)])
def test_functional_parallel_sum_cutoff_is_relative_to_the_largest_block(small, kept):
    # w : w = w / 2 on the kept blocks; the block at 1e-12 is outside the
    # support of w + w under the global cutoff, where W - W (2 W)^+ W leaves
    # W, while a cutoff per block would halve it
    w, _, _, small_block = _two_scale_pair(small)
    assert _dense_space_dim(w) == 2 * 2 + (3 * 3 if kept else 0)
    value = evaluate(functional_parallel_sum(w, w), small_block)
    assert value == pytest.approx(evaluate(w, small_block) / (2.0 if kept else 1.0), abs=1e-20)


@pytest.mark.parametrize("spread,across", [(1e3, 1.0), (1e6, 1e6), (1e12, 1e12)])
def test_blockwise_gns_space_dim_matches_the_dense_gram(spread, across):
    rng = np.random.default_rng([23, int(np.log10(spread)), int(np.log10(across))])
    for dims in [(3,), (2, 3), (4, 1, 3)]:
        for _ in range(4):
            scales = across ** -rng.uniform(0.0, 1.0, size=len(dims))
            w = hostile_functional(rng, dims, spread, scales)
            assert gns(w).space_dim == _dense_space_dim(w), (dims, spread, across)


def _random_element(rng, algebra):
    return algebra.element([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                            for n in algebra.block_dims])


def test_blockwise_gns_identities_with_unequal_block_ranks():
    rng = np.random.default_rng(24)
    algebra = StarAlgebra((2, 3))
    w = Functional(algebra, (random_psd(rng, 2, rank=1), random_psd(rng, 3, rank=3)))
    triplet = gns(w)
    assert triplet.space_dim == 2 * 1 + 3 * 3
    zeta = triplet.cyclic_vector
    assert np.allclose(triplet.represent(algebra.unit()), np.eye(triplet.space_dim),
                       rtol=0.0, atol=1e-12)
    for _ in range(5):
        a, b = _random_element(rng, algebra), _random_element(rng, algebra)
        pa, pb = triplet.represent(a), triplet.represent(b)
        expected = evaluate(w, a)
        assert abs(np.vdot(zeta, pa @ zeta) - expected) <= 1e-12 * (1.0 + abs(expected))
        assert np.allclose(triplet.represent(a * b), pa @ pb, rtol=0.0, atol=1e-11)
        assert np.allclose(triplet.represent(a.star()), pa.conj().T, rtol=0.0, atol=1e-12)
