"""Scale equivariance: (sA) : (sB) = s (A : B), and the Lebesgue parts of sB
relative to sA are s times those of B relative to A, for operators, forms and
block functionals."""

import numpy as np
import pytest

from oplebesgue import (
    Functional,
    NumericalError,
    PsdMatrix,
    SesquilinearForm,
    StarAlgebra,
    decompose,
    form_decompose,
    form_parallel_sum,
    functional_decompose,
    functional_parallel_sum,
    parallel_sum,
)

from helpers import random_pair, random_psd

SCALES = [1e-290, 1e-200, 1e-155, 1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12, 1e155, 1e290]

# Distance to s times the unit-scale result, relative to s (||A|| + ||B||),
# taken in the unit frame so that no norm of a scaled result is formed.
# A scaled run repeats the unit-scale one up to round-off; ando may stop one
# term apart, and consecutive terms differ by up to iter_tol * tr B.
RTOL = {"psum": 1e-12, "direct": 1e-12, "iterate": 1e-12, "ando": 1e-10}

KINDS = {
    "operator": (parallel_sum, decompose, lambda m: [m.entries]),
    "form": (form_parallel_sum, form_decompose, lambda t: [t.gram.entries]),
    "functional": (functional_parallel_sum, functional_decompose,
                   lambda w: [rho.entries for rho in w.densities]),
}


def _operators(seed):
    a, b = random_pair(np.random.default_rng(seed), 10, ratio=1e3)
    return "operator", [a.entries], [b.entries], lambda a, b: (PsdMatrix(a[0]), PsdMatrix(b[0]))


def _forms():
    rng = np.random.default_rng(21)
    t, w = random_psd(rng, 5, rank=3), random_psd(rng, 5, rank=4)
    labels = tuple("abcde")
    return "form", [t.entries], [w.entries], lambda t, w: (
        SesquilinearForm(labels, PsdMatrix(t[0])), SesquilinearForm(labels, PsdMatrix(w[0])))


def _functionals(seed):
    rng = np.random.default_rng(seed)
    algebra = StarAlgebra((3, 4))

    def densities():
        return [random_psd(rng, n, rank=int(rng.integers(1, n + 1))).entries
                for n in algebra.block_dims]

    return "functional", densities(), densities(), lambda w, v: (
        Functional(algebra, tuple(PsdMatrix(d) for d in w)),
        Functional(algebra, tuple(PsdMatrix(d) for d in v)))


CASES = {**{f"operator-{seed}": (lambda seed=seed: _operators(seed)) for seed in range(40, 48)},
         "form": _forms,
         **{f"functional-{seed}": (lambda seed=seed: _functionals(seed)) for seed in range(60, 66)}}


def _outcome(kind, pair, route):
    """The route's result arrays and converged flag, or the exception type it raised."""
    psum, dec, arrays = KINDS[kind]
    try:
        if route == "psum":
            return arrays(psum(*pair)), True
        result = dec(*pair, route)
        return arrays(result.ac) + arrays(result.sing), result.converged
    except (NumericalError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("route", ["psum", "direct", "iterate", "ando"])
@pytest.mark.parametrize("case", list(CASES))
def test_scaling_the_inputs_scales_every_result(case, route):
    kind, a, b, build = CASES[case]()
    norm = sum(np.linalg.norm(m) for m in a + b)
    unit = _outcome(kind, build(a, b), route)
    for s in SCALES:
        got = _outcome(kind, build([s * m for m in a], [s * m for m in b]), route)
        if not isinstance(unit, tuple):
            assert got is unit, (s, got)
            continue
        assert isinstance(got, tuple), (s, got)
        assert got[1] == unit[1], s
        for x, y in zip(got[0], unit[0]):
            assert np.linalg.norm(x / s - y) <= RTOL[route] * norm, s
