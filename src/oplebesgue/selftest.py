"""Bundled fixture suite: every documented example, runnable from the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    DEFAULT_TOL,
    PsdMatrix,
    Tolerances,
    _eigh,
    eig_hermitian,
    loewner_leq,
    pinv,
    range_projection,
)
from .forms import SesquilinearForm, form_decompose, form_parallel_sum, induced_operator
from .functionals import (
    StarAlgebra,
    evaluate,
    functional_decompose,
    functional_from_densities,
    functional_parallel_sum,
    gns,
    induced_form,
)
from .lebesgue import (
    arlinskii_iterate,
    arlinskii_step,
    auxiliary_space,
    decompose,
    direct_decompose,
    is_absolutely_continuous,
    is_singular,
)
from .parallel import (
    ando_ac_part,
    parallel_sum,
    spectral_ac_of_contraction,
    variational_value,
)
from .serialize import matrix_from_json, vector_from_json

__all__ = ["FixtureOutcome", "fixtures_bytes", "load_fixtures", "run_all", "run_fixture"]

_RESOURCE = "data/selftest_fixtures.json"
_BASE_RTOL = 1e-7


def fixtures_bytes() -> bytes:
    return resources.files("oplebesgue").joinpath(_RESOURCE).read_bytes()


def load_fixtures() -> list[dict]:
    doc = json.loads(fixtures_bytes().decode("utf-8"))
    return doc["fixtures"]


@dataclass(frozen=True)
class FixtureOutcome:
    name: str
    ok: bool
    detail: str = ""


def run_all(tol: Tolerances = DEFAULT_TOL) -> list[FixtureOutcome]:
    return [run_fixture(fx, tol) for fx in load_fixtures()]


def run_fixture(fx: dict, tol: Tolerances = DEFAULT_TOL) -> FixtureOutcome:
    handler = _HANDLERS.get(fx["op"])
    if handler is None:
        return FixtureOutcome(fx["name"], False, f"unknown op {fx['op']!r}")
    try:
        detail = handler(fx, tol)
    except Exception as exc:  # a fixture must never take the suite down
        return FixtureOutcome(fx["name"], False, f"{type(exc).__name__}: {exc}")
    if detail:
        return FixtureOutcome(fx["name"], False, detail)
    return FixtureOutcome(fx["name"], True)


def _mat(fx, key):
    return matrix_from_json(fx[key], key)


def _psd(fx, key, tol):
    return PsdMatrix(_mat(fx, key), tol)


def _rtol(fx, tol):
    base = float(fx.get("rtol", _BASE_RTOL))
    if fx.get("iterative"):
        # Looser stopping must still pass: scale with the active iteration tolerance.
        return max(base, 10.0 * tol.iter_tol)
    return base


def _close(got, expected, rtol):
    got = np.asarray(got)
    expected = np.asarray(expected)
    return float(np.linalg.norm(got - expected)) <= rtol * (1.0 + float(np.linalg.norm(expected)))


def _expect_matrix(got, fx, tol, key="matrix"):
    expected = matrix_from_json(fx["expect"][key], key)
    if not _close(np.asarray(got), expected, _rtol(fx, tol)):
        return f"{key} mismatch: got {np.asarray(got).round(6).tolist()}"
    return ""


def _check_eig(fx, tol):
    dec = eig_hermitian(_psd(fx, "m", tol), tol)
    expected = np.asarray(fx["expect"]["eigenvalues"], dtype=float)
    if not _close(dec.eigenvalues, expected, _rtol(fx, tol)):
        return f"eigenvalues mismatch: got {dec.eigenvalues.tolist()}"
    if "vectors" in fx["expect"]:
        exp_v = matrix_from_json(fx["expect"]["vectors"], "vectors")
        for k in range(exp_v.shape[1]):
            overlap = abs(np.vdot(exp_v[:, k], dec.vectors[:, k]))
            if abs(overlap - 1.0) > 1e-9:
                return f"eigenvector {k} off by more than a phase (|overlap| = {overlap})"
    return ""


def _check_pinv(fx, tol):
    return _expect_matrix(pinv(_psd(fx, "m", tol), tol).entries, fx, tol)


def _check_range_projection(fx, tol):
    return _expect_matrix(range_projection(_psd(fx, "m", tol), tol).entries, fx, tol)


def _expect_value(got, fx):
    if got != fx["expect"]["value"]:
        return f"expected {fx['expect']['value']}, got {got}"
    return ""


def _check_loewner(fx, tol):
    return _expect_value(loewner_leq(_psd(fx, "a", tol), _psd(fx, "b", tol), tol), fx)


def _check_parallel_sum(fx, tol):
    got = parallel_sum(_psd(fx, "a", tol), _psd(fx, "b", tol), tol)
    return _expect_matrix(got.entries, fx, tol)


def _check_variational(fx, tol):
    x = vector_from_json(fx["x"], "x")
    got = variational_value(_psd(fx, "a", tol), _psd(fx, "b", tol), x, tol)
    expected = float(fx["expect"]["value"])
    if abs(got - expected) > _rtol(fx, tol) * (1.0 + abs(expected)):
        return f"expected {expected}, got {got}"
    return ""


def _check_ando(fx, tol):
    result = ando_ac_part(_psd(fx, "a", tol), _psd(fx, "b", tol), tol)
    return _expect_matrix(result.ac_part.entries, fx, tol)


def _check_spectral(fx, tol):
    got = spectral_ac_of_contraction(_psd(fx, "m", tol), tol)
    return _expect_matrix(got.entries, fx, tol)


def _check_step(fx, tol):
    got = arlinskii_step(_psd(fx, "x", tol), _psd(fx, "a", tol), tol)
    return _expect_matrix(got.entries, fx, tol)


def _check_scalar_sequence(fx, tol):
    a = PsdMatrix([[fx["a"]]], tol)
    x = PsdMatrix([[fx["b"]]], tol)
    got = []
    for _ in fx["expect"]["values"]:
        x = arlinskii_step(x, a, tol)
        got.append(float(x.entries[0, 0].real))
    if not _close(got, fx["expect"]["values"], _rtol(fx, tol)):
        return f"sequence mismatch: got {got}"
    return ""


def _expect_split(ac, sing, fx, tol):
    return _expect_matrix(ac, fx, tol, key="ac") or _expect_matrix(sing, fx, tol, key="sing")


def _check_iterate(fx, tol):
    dec = arlinskii_iterate(_psd(fx, "a", tol), _psd(fx, "b", tol), tol)
    if not dec.converged:
        return f"iteration did not converge in {dec.iterations} steps (residual {dec.residual})"
    return _expect_split(dec.ac.entries, dec.sing.entries, fx, tol)


def _check_auxiliary_space(fx, tol):
    a = _psd(fx, "a", tol)
    b = _psd(fx, "b", tol)
    aux = auxiliary_space(a, b, tol)
    expect = fx["expect"]
    if aux.rank != expect["rank"]:
        return f"rank mismatch: got {aux.rank}"
    scale = 1.0 + a.norm + b.norm
    j = aux.embed
    if float(np.linalg.norm(j @ j.conj().T - (a + b).entries)) > tol.recon_tol * scale:
        return "embed does not factor the sum"
    if float(np.linalg.norm(j @ aux.a_tilde.entries @ j.conj().T - a.entries)) > tol.recon_tol * scale:
        return "a_tilde does not carry the reference back"
    if float(
        np.linalg.norm(aux.a_tilde.entries + aux.b_tilde.entries - np.eye(aux.rank))
    ) > tol.recon_tol:
        return "contractions do not sum to the identity"
    spectrum = _eigh(aux.a_tilde.entries)[0]
    if not _close(spectrum, expect["a_tilde_spectrum"], _rtol(fx, tol)):
        return f"a_tilde spectrum mismatch: got {spectrum.tolist()}"
    if "a_tilde" in expect:
        return _expect_matrix(aux.a_tilde.entries, fx, tol, key="a_tilde")
    return ""


def _check_direct(fx, tol):
    dec = direct_decompose(_psd(fx, "a", tol), _psd(fx, "b", tol), tol)
    return _expect_split(dec.ac.entries, dec.sing.entries, fx, tol)


def _check_is_ac(fx, tol):
    return _expect_value(is_absolutely_continuous(_psd(fx, "b", tol), _psd(fx, "a", tol), tol), fx)


def _check_is_singular(fx, tol):
    return _expect_value(is_singular(_psd(fx, "a", tol), _psd(fx, "b", tol), tol), fx)


def _check_decompose(fx, tol):
    dec = decompose(_psd(fx, "a", tol), _psd(fx, "b", tol), fx["method"], tol)
    return _expect_split(dec.ac.entries, dec.sing.entries, fx, tol)


def _check_methods_agree(fx, tol):
    a = _psd(fx, "a", tol)
    b = _psd(fx, "b", tol)
    rtol = _rtol(fx, tol)
    scale = 1.0 + b.norm
    results = {name: decompose(a, b, name, tol) for name in ("direct", "ando")}
    iterate = decompose(a, b, "iterate", tol)
    if iterate.converged:
        results["iterate"] = iterate
    names = sorted(results)
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            gap = float(np.linalg.norm(results[first].sing.entries - results[second].sing.entries))
            if gap > rtol * scale:
                return f"{first} vs {second} singular parts differ by {gap:.3e}"
    return ""


def _form(fx, key, tol):
    return SesquilinearForm(tuple(fx["basis"]), _psd(fx, key, tol))


def _check_induced_operator(fx, tol):
    got = induced_operator(_form(fx, "t", tol))
    return _expect_matrix(got.entries, fx, tol)


def _check_form_psum(fx, tol):
    got = form_parallel_sum(_form(fx, "t", tol), _form(fx, "w", tol), tol)
    return _expect_matrix(got.gram.entries, fx, tol, key="gram")


def _check_form_psum_variational(fx, tol):
    t = _form(fx, "t", tol)
    w = _form(fx, "w", tol)
    summed = form_parallel_sum(t, w, tol)
    rtol = _rtol(fx, tol)
    for i, raw in enumerate(fx["xs"]):
        x = vector_from_json(raw, f"xs[{i}]")
        quad = summed.quadratic(x)
        # The defining infimum with the roles of the two forms as written.
        oracle = variational_value(w.gram, t.gram, x, tol)
        if abs(quad - oracle) > rtol * (1.0 + abs(oracle)):
            return f"x[{i}]: quadratic {quad} vs variational {oracle}"
    return ""


def _check_form_decompose(fx, tol):
    dec = form_decompose(_form(fx, "t", tol), _form(fx, "w", tol), fx["method"], tol)
    return _expect_split(dec.ac.gram.entries, dec.sing.gram.entries, fx, tol)


def _functional(fx, key, tol):
    algebra = StarAlgebra(tuple(fx["block_dims"]))
    densities = [matrix_from_json(rows, f"{key}[{k}]") for k, rows in enumerate(fx[key])]
    return functional_from_densities(algebra, densities, tol)


def _check_evaluate(fx, tol):
    w = _functional(fx, "densities", tol)
    blocks = [matrix_from_json(rows, f"element[{k}]") for k, rows in enumerate(fx["element"])]
    got = evaluate(w, w.algebra.element(blocks))
    expected = complex(fx["expect"]["value"][0], fx["expect"]["value"][1])
    if abs(got - expected) > _rtol(fx, tol) * (1.0 + abs(expected)):
        return f"expected {expected}, got {got}"
    return ""


def _check_induced_form(fx, tol):
    form = induced_form(_functional(fx, "densities", tol))
    detail = _expect_matrix(form.gram.entries, fx, tol, key="gram")
    if detail:
        return detail
    if "rank" in fx["expect"]:
        rank = int(np.linalg.matrix_rank(form.gram.entries, tol=1e-8))
        if rank != fx["expect"]["rank"]:
            return f"gram rank mismatch: got {rank}"
    return ""


def _check_gns(fx, tol):
    w = _functional(fx, "densities", tol)
    triplet = gns(w, tol)
    expect = fx["expect"]
    if triplet.space_dim != expect["space_dim"]:
        return f"space_dim mismatch: got {triplet.space_dim}"
    norm_sq = float(np.vdot(triplet.cyclic_vector, triplet.cyclic_vector).real)
    if abs(norm_sq - expect["zeta_norm_sq"]) > 1e-9 * (1.0 + expect["zeta_norm_sq"]):
        return f"cyclic vector norm^2 mismatch: got {norm_sq}"
    if "zeta" in expect:
        exp_zeta = vector_from_json(expect["zeta"], "zeta")
        if triplet.space_dim and abs(abs(np.vdot(exp_zeta, triplet.cyclic_vector)) - norm_sq) > 1e-9:
            return "cyclic vector off by more than a phase"
    units = w.algebra.matrix_units()
    reps = [triplet.represent(u) for u in units]
    for u, rep_u in zip(units, reps):
        expected_value = evaluate(w, u)
        got_value = complex(np.vdot(triplet.cyclic_vector, rep_u @ triplet.cyclic_vector))
        if abs(got_value - expected_value) > tol.recon_tol * (1.0 + abs(expected_value)):
            return f"reconstruction failed on a matrix unit ({got_value} vs {expected_value})"
    for u, rep_u in zip(units, reps):
        if float(np.linalg.norm(triplet.represent(u.star()) - rep_u.conj().T)) > tol.recon_tol:
            return "representation does not preserve the involution"
        for v, rep_v in zip(units, reps):
            prod = triplet.represent(u * v)
            if float(np.linalg.norm(prod - rep_u @ rep_v)) > tol.recon_tol:
                return "representation is not multiplicative"
    if expect.get("rep_traces_match"):
        for u, rep_u in zip(units, reps):
            unit_trace = complex(sum(np.trace(blk) for blk in u.blocks))
            if abs(complex(np.trace(rep_u)) - unit_trace) > 1e-9:
                return "representation traces do not match the defining representation"
    return ""


def _expect_densities(functional, fx, tol, key="densities"):
    for k, rows in enumerate(fx["expect"][key]):
        expected = matrix_from_json(rows, f"{key}[{k}]")
        if not _close(functional.densities[k].entries, expected, _rtol(fx, tol)):
            return f"{key}[{k}] mismatch: got {functional.densities[k].entries.round(6).tolist()}"
    return ""


def _check_functional_psum(fx, tol):
    got = functional_parallel_sum(_functional(fx, "w", tol), _functional(fx, "v", tol), tol)
    return _expect_densities(got, fx, tol)


def _check_functional_decompose(fx, tol):
    dec = functional_decompose(
        _functional(fx, "w", tol), _functional(fx, "v", tol), fx["method"], tol
    )
    return (_expect_densities(dec.ac, fx, tol, key="ac")
            or _expect_densities(dec.sing, fx, tol, key="sing"))


_HANDLERS = {
    "eig": _check_eig,
    "pinv": _check_pinv,
    "range_projection": _check_range_projection,
    "loewner_leq": _check_loewner,
    "parallel_sum": _check_parallel_sum,
    "variational_value": _check_variational,
    "ando_ac_part": _check_ando,
    "spectral_ac_of_contraction": _check_spectral,
    "arlinskii_step": _check_step,
    "scalar_step_sequence": _check_scalar_sequence,
    "arlinskii_iterate": _check_iterate,
    "auxiliary_space": _check_auxiliary_space,
    "direct_decompose": _check_direct,
    "is_absolutely_continuous": _check_is_ac,
    "is_singular": _check_is_singular,
    "decompose": _check_decompose,
    "decompose_methods_agree": _check_methods_agree,
    "induced_operator": _check_induced_operator,
    "form_parallel_sum": _check_form_psum,
    "form_parallel_sum_variational": _check_form_psum_variational,
    "form_decompose": _check_form_decompose,
    "evaluate": _check_evaluate,
    "induced_form": _check_induced_form,
    "gns": _check_gns,
    "functional_parallel_sum": _check_functional_psum,
    "functional_decompose": _check_functional_decompose,
}
