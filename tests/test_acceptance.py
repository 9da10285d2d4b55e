"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import json
import time

import numpy as np
import pytest

from oplebesgue import (
    PsdMatrix,
    StarAlgebra,
    Tolerances,
    arlinskii_step,
    auxiliary_space,
    cli,
    decompose,
    direct_decompose,
    evaluate,
    functional_decompose,
    functional_from_densities,
    gns,
    is_singular,
    loewner_leq,
    parallel_sum,
    spectral_ac_of_contraction,
    variational_value,
)
from oplebesgue.parallel import ando_ac_part

from helpers import (
    contraction_spectrum,
    psd_from_spectrum,
    random_contraction,
    random_psd,
    random_unitary,
)

SEED = 20260810
ITERATE_TOL = Tolerances(max_iter=50_000)


def report(number, description, ok):
    print(f"\n[acceptance] criterion {number:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def pair_suite():
    """200 seeded pairs, dims 1..12, uniform ranks, eigenvalue spread <= 1e3,
    with all three decompositions precomputed (timed for criterion 1)."""
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        ra = int(rng.integers(0, dim + 1))
        rb = int(rng.integers(0, dim + 1))
        pairs.append((random_psd(rng, dim, ra), random_psd(rng, dim, rb)))
    started = time.perf_counter()
    runs = [
        {
            "a": a,
            "b": b,
            "direct": decompose(a, b, "direct"),
            "ando": decompose(a, b, "ando"),
            "iterate": decompose(a, b, "iterate", ITERATE_TOL),
        }
        for a, b in pairs
    ]
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_01_method_equivalence(pair_suite):
    runs, elapsed = pair_suite
    agreements = 0
    iterate_ok = True
    for run in runs:
        scale = 1e-6 * (1.0 + run["b"].norm)
        if np.linalg.norm(run["direct"].sing.entries - run["ando"].sing.entries) <= scale:
            agreements += 1
        if run["iterate"].converged:
            gap = np.linalg.norm(run["direct"].sing.entries - run["iterate"].sing.entries)
            iterate_ok = iterate_ok and gap <= scale
        else:
            iterate_ok = iterate_ok and run["iterate"].iterations == ITERATE_TOL.max_iter
    ok = agreements == 200 and iterate_ok and elapsed < 30.0
    report(
        1,
        f"direct/ando agree {agreements}/200, iterate consistent, "
        f"suite took {elapsed:.1f}s (< 30s)",
        ok,
    )


def test_criterion_02_factored_parallel_sum_identity(pair_suite):
    runs, _ = pair_suite
    worst = 0.0
    for run in runs:
        a, b = run["a"], run["b"]
        aux = auxiliary_space(a, b)
        j = aux.embed
        embedded = j @ parallel_sum(aux.a_tilde, aux.b_tilde).entries @ j.conj().T
        gap = np.linalg.norm(embedded - parallel_sum(a, b).entries)
        worst = max(worst, gap / (1e-9 * (1.0 + a.norm + b.norm)))
    report(2, f"embedded contraction parallel sum reproduces A:B (worst {worst:.3f}x tol)", worst <= 1.0)


def _range_intersection_dim(a, b):
    """Independent oracle: dim(ran A + ran B) from an SVD of stacked bases."""
    def basis(m):
        u, s, _ = np.linalg.svd(m.entries)
        return u[:, s > 1e-8 * (s[0] if s.size else 1.0)]

    ba, bb = basis(a), basis(b)
    joint = np.hstack([ba, bb])
    if joint.shape[1] == 0:
        return 0
    s = np.linalg.svd(joint, compute_uv=False)
    joint_rank = int(np.sum(s > 1e-8 * s[0]))
    return ba.shape[1] + bb.shape[1] - joint_rank


def test_criterion_03_singularity_characterization():
    rng = np.random.default_rng(SEED + 3)
    agreements = 0
    for trial in range(100):
        singular = trial < 50
        dim = int(rng.integers(2, 11))
        q = random_unitary(rng, dim)
        ka = int(rng.integers(1, dim))
        if singular:
            kb = int(rng.integers(1, dim - ka + 1))
            cols_b = range(ka, ka + kb)
        else:
            kb = int(rng.integers(1, dim))
            cols_b = range(0, kb)  # shares the first column with A
        lam_a = rng.uniform(0.5, 2.0, size=ka)
        lam_b = rng.uniform(0.5, 2.0, size=kb)
        a = PsdMatrix((q[:, :ka] * lam_a) @ q[:, :ka].conj().T)
        b = PsdMatrix((q[:, cols_b] * lam_b) @ q[:, cols_b].conj().T)
        oracle = _range_intersection_dim(a, b) == 0
        assert oracle == singular  # the construction defines the truth
        if is_singular(a, b) == oracle:
            agreements += 1
    report(3, f"is_singular matches the range-intersection oracle {agreements}/100", agreements == 100)


def test_criterion_04_maximality():
    rng = np.random.default_rng(SEED + 4)
    checks = failures = 0
    for _ in range(50):
        dim = int(rng.integers(1, 13))
        a = random_psd(rng, dim, int(rng.integers(0, dim + 1)))
        b = random_psd(rng, dim, int(rng.integers(0, dim + 1)))
        ac = direct_decompose(a, b).ac
        for k in range(0, 21):
            checks += 1
            if not loewner_leq(parallel_sum((2.0**k) * a, b), ac):
                failures += 1
    report(4, f"(2^k A):B stays below the maximal part in {checks - failures}/{checks} checks",
           failures == 0 and checks == 1050)


def test_criterion_05_variational_oracle():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = random_psd(rng, dim, int(rng.integers(0, dim + 1)))
        b = random_psd(rng, dim, int(rng.integers(0, dim + 1)))
        summed = parallel_sum(a, b)
        for _ in range(20):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            quad = float(np.real(np.vdot(x, summed.entries @ x)))
            oracle = variational_value(a, b, x)
            worst = max(worst, abs(quad - oracle) / (1e-10 * (1.0 + abs(oracle))))
    report(5, f"closed form matches the generic minimizer on 1000 evaluations "
              f"(worst {worst:.3f}x tol)", worst <= 1.0)


def test_criterion_06_contraction_recursion():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 11))
        bt = random_contraction(rng, dim)
        at = PsdMatrix(np.eye(dim) - bt.entries)
        current = bt
        for _ in range(10):
            nxt = arlinskii_step(current, at)
            predicted = np.linalg.solve(
                np.eye(dim) - bt.entries + current.entries,
                current.entries @ current.entries,
            )
            gap = np.linalg.norm(nxt.entries - predicted)
            worst = max(worst, gap / (1e-9 * (1.0 + np.linalg.norm(predicted))))
            current = nxt
    report(6, f"iterates satisfy the resolvent recursion (worst {worst:.3f}x tol)", worst <= 1.0)


def test_criterion_07_spectral_shortcut():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    pinned = 0
    for trial in range(50):
        dim = int(rng.integers(1, 11))
        unit_eigs = int(rng.integers(1, dim + 1)) if trial < 10 else 0
        pinned += unit_eigs > 0
        # the complement I - bt is formed on bt's own spectrum, so that its
        # pinned directions are exact zeros: I - bt as a difference leaves
        # round-off there, which A's relative cutoff can keep as range
        q, lam = contraction_spectrum(rng, dim, unit_eigs)
        bt, complement = psd_from_spectrum(q, lam), psd_from_spectrum(q, 1.0 - lam)
        shortcut = spectral_ac_of_contraction(bt)
        limit = ando_ac_part(complement, bt)
        gap = np.linalg.norm(shortcut.entries - limit.ac_part.entries)
        worst = max(worst, gap / (1e-6 * (1.0 + bt.norm)))
    report(7, f"spectral map matches the doubling limit on 50 contractions "
              f"({pinned} with a pinned unit eigenvalue, worst {worst:.3f}x tol)",
           worst <= 1.0 and pinned >= 10)


def test_criterion_08_idempotence(pair_suite):
    runs, _ = pair_suite
    worst = 0.0
    for run in runs:
        a, b = run["a"], run["b"]
        dec = run["direct"]
        scale = 1e-6 * (1.0 + b.norm)
        worst = max(worst, direct_decompose(a, dec.ac).sing.norm / scale)
        worst = max(worst, direct_decompose(a, dec.sing).ac.norm / scale)
    report(8, f"re-decomposing each part leaves it unchanged (worst {worst:.3f}x tol)", worst <= 1.0)


def test_criterion_09_forms_and_functionals_reduction():
    algebra = StarAlgebra((2, 3, 1))
    rng = np.random.default_rng(SEED + 9)
    units = algebra.matrix_units()
    worst_gns = worst_block = worst_sum = 0.0
    for _ in range(50):
        w = functional_from_densities(
            algebra, [random_psd(rng, n, ratio=10.0).entries for n in algebra.block_dims]
        )
        v = functional_from_densities(
            algebra,
            [random_psd(rng, n, rank=int(rng.integers(0, n + 1)), ratio=10.0).entries
             for n in algebra.block_dims],
        )
        triplet = gns(w)
        zeta = triplet.cyclic_vector
        for u in units:
            expected = evaluate(w, u)
            got = complex(np.vdot(zeta, triplet.represent(u) @ zeta))
            worst_gns = max(worst_gns, abs(got - expected) / (1e-9 * (1.0 + abs(expected))))
        dec = functional_decompose(w, v, "direct")
        for k in range(len(algebra.block_dims)):
            blockwise = decompose(v.densities[k], w.densities[k], "direct")
            gap = np.linalg.norm(dec.ac.densities[k].entries - blockwise.ac.entries)
            worst_block = max(worst_block, gap / 1e-6)
        for u in units:
            total = evaluate(dec.ac, u) + evaluate(dec.sing, u)
            expected = evaluate(w, u)
            worst_sum = max(worst_sum, abs(total - expected) / (1e-9 * (1.0 + abs(expected))))
    ok = worst_gns <= 1.0 and worst_block <= 1.0 and worst_sum <= 1.0
    report(9, f"GNS reconstruction (worst {worst_gns:.3f}x), blockwise decomposition "
              f"(worst {worst_block:.3f}x), additivity (worst {worst_sum:.3f}x)", ok)


SCALAR_CASES = [
    (1.0, 1.0), (2.0, 3.0), (1.0, 0.0), (0.0, 0.0), (5.0, 5.0),
    (1e-3, 1.0), (2.0, 2.0), (10.0, 40.0), (0.25, 0.75), (7.0, 0.0),
]

DIAGONAL_CASES = [
    ([2.0, 0.0], [3.0, 5.0]),
    ([1.0, 1.0], [4.0, 9.0]),
    ([0.0, 0.0], [4.0, 9.0]),
    ([1.0, 0.0, 2.0], [0.0, 7.0, 3.0]),
    ([5.0], [8.0]),
    ([0.0, 2.0], [6.0, 0.0]),
    ([1e3, 1.0], [1.0, 1e3]),
    ([1.0, 0.0], [0.0, 1.0]),
    ([9.0, 9.0, 0.0], [1.0, 2.0, 3.0]),
    ([0.5, 0.0], [0.25, 0.125]),
]


def test_criterion_10_scalar_and_diagonal_exactness():
    worst = 0.0
    for a_val, b_val in SCALAR_CASES:
        expected = a_val * b_val / (a_val + b_val) if a_val + b_val > 0 else 0.0
        got = parallel_sum(PsdMatrix([[a_val]]), PsdMatrix([[b_val]])).entries[0, 0].real
        worst = max(worst, abs(got - expected) / (1e-12 * (1.0 + abs(expected))))
    for a_diag, b_diag in DIAGONAL_CASES:
        a = PsdMatrix(np.diag(a_diag))
        b = PsdMatrix(np.diag(b_diag))
        ac_expected = np.diag([bv if av > 0 else 0.0 for av, bv in zip(a_diag, b_diag)])
        sing_expected = np.diag([bv if av == 0 else 0.0 for av, bv in zip(a_diag, b_diag)])
        dec = direct_decompose(a, b)
        scale = 1e-12 * (1.0 + b.norm)
        worst = max(worst, np.linalg.norm(dec.ac.entries - ac_expected) / scale)
        worst = max(worst, np.linalg.norm(dec.sing.entries - sing_expected) / scale)
    report(10, f"20 scalar/diagonal fixtures reproduced exactly (worst {worst:.3f}x 1e-12)",
           worst <= 1.0)


def test_criterion_11_cli_contract(tmp_path, capsys):
    problem = tmp_path / "pair.json"
    problem.write_text(json.dumps({
        "version": "1",
        "kind": "operator_pair",
        "payload": {
            "a": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "b": [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5.0, 0.0]]],
        },
    }), encoding="utf-8")
    ok = True

    code = cli.main(["selftest"])
    ok = ok and code == 0
    capsys.readouterr()

    bodies = []
    for _ in range(2):
        code = cli.main(["decompose", str(problem), "--json", "--cross-check"])
        ok = ok and code == 0
        body = json.loads(capsys.readouterr().out)
        body.pop("wall_time_ms")
        bodies.append(json.dumps(body, sort_keys=True))
    ok = ok and bodies[0] == bodies[1]

    ok = ok and cli.main(["selftest", "--tol-rank", "0.9"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    ok = ok and cli.main(["psum", str(bad)]) == 2
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "version": "1",
        "kind": "operator_pair",
        "payload": {
            "a": [[[1.5e308, 0.0]]],
            "b": [[[1.5e308, 0.0]]],
        },
    }), encoding="utf-8")
    ok = ok and cli.main(["decompose", str(huge)]) == 3
    capsys.readouterr()
    report(11, "selftest green, deterministic reports, exit codes 0/1/2/3 honored", ok)
