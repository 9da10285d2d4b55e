"""Representable functionals: GNS, induced forms, parallel sum, decomposition."""

import numpy as np
import pytest

from oplebesgue import (
    LebesgueDecomposition,
    NumericalError,
    PsdMatrix,
    SesquilinearForm,
    StarAlgebra,
    Tolerances,
    decompose,
    evaluate,
    form_decompose,
    form_parallel_sum,
    functional_decompose,
    functional_from_densities,
    functional_from_form,
    functional_parallel_sum,
    gns,
    induced_form,
    parallel_sum,
)
from oplebesgue.core import roundoff

from helpers import hostile_functional, random_psd

M2 = StarAlgebra((2,))
TWO_SCALARS = StarAlgebra((1, 1))
MIXED = StarAlgebra((2, 3, 1))


def functional(algebra, densities):
    return functional_from_densities(algebra, densities)


def random_functional(rng, algebra=MIXED, ratio=10.0):
    return functional(
        algebra, [random_psd(rng, n, ratio=ratio).entries for n in algebra.block_dims]
    )


def test_algebra_validation():
    with pytest.raises(ValueError):
        StarAlgebra(())
    with pytest.raises(ValueError):
        StarAlgebra((2, 0))
    # a size is an integer: no float is truncated and no bool counts as 1
    for dims in ((2.7, True), (2, 1.0), (True,)):
        with pytest.raises(ValueError, match="block dimension"):
            StarAlgebra(dims)
    assert StarAlgebra((np.int64(2), np.uint8(1))).block_dims == (2, 1)
    assert MIXED.total_dim == 4 + 9 + 1


def test_basis_labels_are_built_once_per_algebra():
    labels = MIXED.basis_labels()
    assert labels is MIXED.basis_labels()
    assert len(labels) == MIXED.total_dim and labels[4] == "b1:e0,0"


def test_element_algebra():
    a = M2.element([[[0.0, 1.0], [0.0, 0.0]]])
    b = M2.element([[[0.0, 0.0], [1.0, 0.0]]])
    assert np.allclose((a * b).blocks[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(a.star().blocks[0], b.blocks[0])
    assert np.allclose((a + b).blocks[0], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="mismatch"):
        a * TWO_SCALARS.unit()


def test_evaluate_unit_gives_total_trace():
    algebra = StarAlgebra((2, 1))
    w = functional(algebra, [np.eye(2), [[1.0]]])
    assert evaluate(w, algebra.unit()) == pytest.approx(3.0)


def test_evaluate_zero_functional():
    w = functional(M2, [np.zeros((2, 2))])
    a = M2.element([[[1.0, 2.0], [3.0, 4.0]]])
    assert evaluate(w, a) == 0.0


def test_evaluate_offdiagonal_unit_vanishes():
    w = functional(M2, [np.diag([1.0, 0.0])])
    assert evaluate(w, M2.matrix_unit(0, 0, 1)) == 0.0


def test_induced_form_scalar_algebra():
    w = functional(StarAlgebra((1,)), [[[2.0]]])
    assert np.allclose(induced_form(w).gram.entries, [[2.0]])


def test_induced_form_m2_rank_two():
    # hand evaluation of w(E_kl* E_pq) for the density diag(1, 0)
    w = functional(M2, [np.diag([1.0, 0.0])])
    got = induced_form(w).gram.entries
    assert np.allclose(got, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-14)
    assert np.linalg.matrix_rank(got) == 2


def test_induced_form_is_built_once_per_functional():
    # the parallel sum and the decomposition of one functional share it
    w = random_functional(np.random.default_rng(60))
    form = induced_form(w)
    assert induced_form(w) is form
    assert induced_form(functional(MIXED, [rho.entries for rho in w.densities])) is not form


def test_induced_form_matches_direct_evaluation():
    # the blockwise closed form must agree with w(u_p* u_q) entry by entry
    rng = np.random.default_rng(61)
    w = random_functional(rng)
    gram = induced_form(w).gram.entries
    units = MIXED.matrix_units()
    for p, up in enumerate(units):
        for q, uq in enumerate(units):
            assert gram[p, q] == pytest.approx(evaluate(w, up.star() * uq), abs=1e-12)


def test_gns_zero_functional():
    triplet = gns(functional(StarAlgebra((1,)), [[[0.0]]]))
    assert triplet.space_dim == 0
    assert triplet.cyclic_vector.size == 0


def test_gns_scalar_algebra():
    triplet = gns(functional(StarAlgebra((1,)), [[[2.0]]]))
    assert triplet.space_dim == 1
    assert np.allclose(np.abs(triplet.cyclic_vector), [np.sqrt(2.0)])
    rep = triplet.represent(StarAlgebra((1,)).element([[[3.0 + 1.0j]]]))
    assert rep.shape == (1, 1)
    assert rep[0, 0] == pytest.approx(3.0 + 1.0j)


def test_gns_m2_rank_two_defining_representation():
    w = functional(M2, [np.diag([1.0, 0.0])])
    triplet = gns(w)
    assert triplet.space_dim == 2
    assert np.vdot(triplet.cyclic_vector, triplet.cyclic_vector).real == pytest.approx(1.0)
    # unitarily equivalent to the defining representation: traces agree
    for u in M2.matrix_units():
        assert np.trace(triplet.represent(u)) == pytest.approx(
            np.trace(u.blocks[0]), abs=1e-12
        )


def test_gns_represents_a_as_blockwise_kron_with_the_identity():
    rng = np.random.default_rng(63)
    algebra = StarAlgebra((2, 3))
    w = functional(algebra, [random_psd(rng, 2, rank=1).entries,
                             random_psd(rng, 3, rank=2).entries])
    triplet = gns(w)
    assert triplet.ranks == (1, 2)
    assert triplet.space_dim == 2 * 1 + 3 * 2
    a = algebra.element([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                         for n in algebra.block_dims])
    first, second = np.kron(a.blocks[0], np.eye(1)), np.kron(a.blocks[1], np.eye(2))
    expected = np.block([[first, np.zeros((2, 6))], [np.zeros((6, 2)), second]])
    assert np.array_equal(triplet.represent(a), expected)
    assert np.array_equal(triplet.represent(algebra.unit()), np.eye(triplet.space_dim))


def test_gns_reconstruction_and_homomorphism():
    rng = np.random.default_rng(62)
    for _ in range(5):
        w = random_functional(rng)
        triplet = gns(w)
        units = MIXED.matrix_units()
        reps = [triplet.represent(u) for u in units]
        zeta = triplet.cyclic_vector
        unit_rep = triplet.represent(MIXED.unit())
        assert np.allclose(unit_rep, np.eye(triplet.space_dim), atol=1e-9)
        for u, rep_u in zip(units, reps):
            expected = evaluate(w, u)
            got = complex(np.vdot(zeta, rep_u @ zeta))
            assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))
            assert np.allclose(triplet.represent(u.star()), rep_u.conj().T, atol=1e-9)
        for u, rep_u in zip(units[:6], reps[:6]):
            for v, rep_v in zip(units[:6], reps[:6]):
                assert np.allclose(triplet.represent(u * v), rep_u @ rep_v, atol=1e-9)


def test_gns_representation_is_linear():
    rng = np.random.default_rng(63)
    w = random_functional(rng)
    triplet = gns(w)
    a = MIXED.matrix_unit(0, 0, 1)
    b = MIXED.matrix_unit(1, 2, 0)
    combo = triplet.represent(a + (2.0 - 1.0j) * b)
    assert np.allclose(
        combo, triplet.represent(a) + (2.0 - 1.0j) * triplet.represent(b), atol=1e-10
    )


def test_functional_round_trips_through_its_form():
    rng = np.random.default_rng(64)
    w = random_functional(rng)
    recovered = functional_from_form(MIXED, induced_form(w))
    for got, expected in zip(recovered.densities, w.densities):
        assert np.allclose(got.entries, expected.entries, atol=1e-12)


def test_parallel_sum_scalar():
    w = functional(StarAlgebra((1,)), [[[1.0]]])
    got = functional_parallel_sum(w, w)
    assert got.densities[0].entries[0, 0] == pytest.approx(0.5)


def test_parallel_sum_with_zero():
    w = functional(M2, [[[2.0, 1.0], [1.0, 2.0]]])
    v = functional(M2, [np.zeros((2, 2))])
    assert functional_parallel_sum(w, v).densities[0].norm <= 1e-14


def test_parallel_sum_orthogonal_blocks():
    w = functional(TWO_SCALARS, [[[1.0]], [[0.0]]])
    v = functional(TWO_SCALARS, [[[0.0]], [[1.0]]])
    got = functional_parallel_sum(w, v)
    assert all(rho.norm <= 1e-14 for rho in got.densities)


def test_parallel_sum_intertwines_with_induced_forms():
    rng = np.random.default_rng(65)
    w = random_functional(rng)
    v = random_functional(rng)
    lhs = induced_form(functional_parallel_sum(w, v)).gram.entries
    rhs = parallel_sum(induced_form(w).gram, induced_form(v).gram).entries
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))


def test_decompose_with_full_support_weight():
    w = functional(M2, [[[2.0, 1.0], [1.0, 1.0]]])
    v = functional(M2, [np.eye(2)])
    ac, sing = functional_decompose(w, v)
    assert np.allclose(ac.densities[0].entries, w.densities[0].entries, atol=1e-9)
    assert sing.densities[0].norm <= 1e-9


def test_decompose_with_zero_weight():
    w = functional(M2, [[[2.0, 1.0], [1.0, 1.0]]])
    v = functional(M2, [np.zeros((2, 2))])
    ac, sing = functional_decompose(w, v, "iterate")
    assert ac.densities[0].norm <= 1e-12
    assert np.allclose(sing.densities[0].entries, w.densities[0].entries, atol=1e-12)


@pytest.mark.parametrize("method", ["direct", "iterate", "ando"])
def test_functional_decomposition_carries_the_matrix_metadata(method):
    rng = np.random.default_rng(67)
    w = random_functional(rng)
    v = functional(MIXED, [random_psd(rng, n, rank=n - 1).entries for n in MIXED.block_dims])
    dec = functional_decompose(w, v, method)
    # the reduction solves one copy of each density block, not the full Gram
    matrix = decompose(induced_form(v).copy_gram, induced_form(w).copy_gram, method)
    assert isinstance(dec, LebesgueDecomposition)
    assert (dec.method, dec.iterations, dec.residual, dec.converged) == (
        matrix.method, matrix.iterations, matrix.residual, matrix.converged)
    ac, sing = dec
    assert ac is dec.ac and sing is dec.sing
    assert ac.algebra == sing.algebra == MIXED


def test_decompose_blockwise_scalars():
    w = functional(TWO_SCALARS, [[[3.0]], [[5.0]]])
    v = functional(TWO_SCALARS, [[[2.0]], [[0.0]]])
    ac, sing = functional_decompose(w, v)
    assert ac.densities[0].entries[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert ac.densities[1].norm <= 1e-9
    assert sing.densities[0].norm <= 1e-9
    assert sing.densities[1].entries[0, 0] == pytest.approx(5.0, abs=1e-9)


def test_decomposition_matches_blockwise_matrix_decomposition():
    rng = np.random.default_rng(66)
    for _ in range(5):
        w = random_functional(rng)
        v = functional(
            MIXED,
            [random_psd(rng, n, rank=int(rng.integers(0, n + 1))).entries for n in MIXED.block_dims],
        )
        dec = functional_decompose(w, v, "direct")
        for k, n in enumerate(MIXED.block_dims):
            blockwise = decompose(v.densities[k], w.densities[k], "direct")
            assert np.allclose(dec.ac.densities[k].entries, blockwise.ac.entries, atol=1e-6)
            assert np.allclose(dec.sing.densities[k].entries, blockwise.sing.entries, atol=1e-6)


def test_decomposition_parts_sum_and_stay_positive():
    rng = np.random.default_rng(67)
    for _ in range(5):
        w = random_functional(rng)
        v = random_functional(rng)
        dec = functional_decompose(w, v)
        for u in MIXED.matrix_units():
            total = evaluate(dec.ac, u) + evaluate(dec.sing, u)
            expected = evaluate(w, u)
            assert abs(total - expected) <= 1e-9 * (1.0 + abs(expected))
        # representability of the parts: PSD densities by construction
        for rho in (*dec.ac.densities, *dec.sing.densities):
            assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10 * (1.0 + rho.norm)
        sing_overlap = functional_parallel_sum(dec.sing, v)
        assert all(rho.norm <= 1e-8 * (1.0 + v.densities[k].norm)
                   for k, rho in enumerate(sing_overlap.densities))


def test_majorized_functional_is_absolutely_continuous():
    rng = np.random.default_rng(68)
    for _ in range(5):
        w = random_functional(rng)
        remainder = random_functional(rng)
        v = functional(
            MIXED,
            [w.densities[k].entries + remainder.densities[k].entries for k in range(3)],
        )
        _, sing = functional_decompose(w, v)
        assert all(rho.norm <= 1e-8 * (1.0 + w.densities[k].norm)
                   for k, rho in enumerate(sing.densities))


def test_decompose_requires_same_algebra():
    w = functional(M2, [np.eye(2)])
    v = functional(TWO_SCALARS, [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError, match="mismatch"):
        functional_decompose(w, v)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_rebuilt_density_keeps_its_positivity_check_above_the_norm_overflow(scale):
    # a PSD Gram that is no induced form: its values on the unit rebuild the
    # indefinite density [[1, 3/2], [3/2, 0]] (times scale), whose norm
    # squared overflows above about 1.3e154
    v = np.array([1.0, 3.0, 0.0, 0.0])
    form = SesquilinearForm(M2.basis_labels(), PsdMatrix(scale * np.outer(v, v)))
    with pytest.raises(NumericalError, match="functional density lost positivity"):
        functional_from_form(M2, form)


def test_route_results_hold_each_density_above_the_pairs_slack():
    # the densities are read off principal blocks of the routes' results and
    # clipped at zero with no threshold: on seeded hostile pairs (spreads up
    # to 1e12 inside a block, block scales up to 1e12 apart) no block dips
    # below -psd_slack * (||Gram w|| + ||Gram v||), the bound a pair-scale
    # threshold on that clip would enforce (the worst block reaches 6.2e-6
    # of it)
    tol = Tolerances(max_iter=3000)
    checked = 0
    for spread in (1e3, 1e8, 1e12):
        for across in (1.0, 1e6, 1e12):
            rng = np.random.default_rng([43, int(np.log10(spread)), int(np.log10(across))])
            for dims in [(3,), (2, 3), (4, 1, 3), (8, 8, 8)]:
                for _ in range(6):
                    scales = [across ** -rng.uniform(0.0, 1.0, size=len(dims)) for _ in "wv"]
                    tw, tv = (induced_form(hostile_functional(rng, dims, spread, s))
                              for s in scales)
                    results = [form_parallel_sum(tw, tv, tol)]
                    for method in ("direct", "iterate", "ando"):
                        results.extend(form_decompose(tw, tv, method, tol))
                    bound = tol.psd_slack * (tw.norm + tv.norm)
                    for g in (g for form in results for g in form.blocks()):
                        assert np.linalg.eigvalsh(g)[0] >= -bound, (spread, across, dims)
                        checked += 1
    assert checked == 3402


def test_every_route_part_decomposes_again_against_the_reference():
    # every route's ac and sing parts of hostile pairs (spread 1e8 inside a
    # block, block scales 1e6 apart) go through every route again against v:
    # none of the 1,152 calls raises, and each re-splits its part to within
    # 1e-10 ||w|| plus round-off at the scale of the reference density v_k.
    # iterate's parts sum to the part it splits to within round-off at its
    # inputs' scale, so where ||v_k|| is 1e6 times ||w|| (draw 2 at spread
    # 1e8, dims (3,)) it re-splits to 2.2e-10 ||w||, about 2 eps (||v_k|| +
    # ||rho_k||); the worst takes 1.6 % of the bound.  This pins why the rebuilt
    # densities are clipped at zero: read as G_k^T with no clip, `ando`
    # raises "doubling limit did not settle above zero" on 6 of the calls,
    # each re-decomposing an ac part of `ando` that round-off leaves
    # indefinite at its own scale
    tol = Tolerances(max_iter=3000)
    routes = ("direct", "iterate", "ando")
    calls = 0
    for spread in (1e3, 1e8):
        for across in (1.0, 1e6):
            rng = np.random.default_rng([43, int(np.log10(spread)), int(np.log10(across))])
            for dims in [(3,), (2, 3)]:
                for draw in range(8):
                    w, v = (hostile_functional(rng, dims, spread,
                                               across ** -rng.uniform(0.0, 1.0, size=len(dims)))
                            for _ in "wv")
                    scale = max(rho.norm for rho in w.densities)
                    for method in routes:
                        for part in functional_decompose(w, v, method, tol):
                            for again in routes:
                                dec = functional_decompose(part, v, again, tol)
                                calls += 1
                                for ac, sing, rho, ref in zip(dec.ac.densities,
                                                              dec.sing.densities,
                                                              part.densities, v.densities):
                                    residual = np.linalg.norm(ac.entries + sing.entries
                                                              - rho.entries)
                                    assert residual <= 1e-10 * scale + roundoff(
                                        rho.dim, ref.norm), (
                                        spread, across, dims, draw, method, again)
    assert calls == 1152
