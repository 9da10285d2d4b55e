"""JSON problem files and reports for the command line front end.

Complex scalars serialize as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays; bare numbers are accepted on input as reals.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, PsdMatrix, Tolerances
from .forms import SesquilinearForm
from .functionals import Functional, StarAlgebra

__all__ = [
    "KINDS",
    "Report",
    "SCHEMA_VERSION",
    "SchemaError",
    "matrix_from_json",
    "matrix_to_json",
    "parse_problem",
    "parse_problem_text",
    "render_report",
    "serialize_problem",
]

SCHEMA_VERSION = "1"
KINDS = ("operator_pair", "form_pair", "functional_pair")

_TOLERANCE_KEYS = ("rank_rtol", "psd_slack", "iter_tol", "max_iter", "recon_tol")


class SchemaError(ValueError):
    """Input violates the problem-file schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def scalar_from_json(value, path: str) -> complex:
    parts = [value, 0.0] if isinstance(value, (int, float)) else value
    if not (isinstance(parts, list) and len(parts) == 2 and all(
            isinstance(part, (int, float)) and not isinstance(part, bool) for part in parts)):
        raise SchemaError("expected a number or [re, im] pair", path)
    try:
        return complex(parts[0], parts[1])
    except OverflowError as exc:
        raise SchemaError(f"number too large for a float: {exc}", path) from exc


def scalar_to_json(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def matrix_from_json(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError("expected a non-empty array of rows", path)
    dim = len(rows)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"expected a square matrix with {dim} columns", f"{path}[{i}]")
        for j, cell in enumerate(row):
            out[i, j] = scalar_from_json(cell, f"{path}[{i}][{j}]")
    return out


def matrix_to_json(matrix) -> list[list[list[float]]]:
    arr = np.asarray(matrix, dtype=np.complex128)
    return [[scalar_to_json(cell) for cell in row] for row in arr]


def vector_from_json(values, path: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise SchemaError("expected a non-empty array", path)
    return np.array([scalar_from_json(v, f"{path}[{i}]") for i, v in enumerate(values)])


def _psd_from_json(rows, path: str, tol: Tolerances) -> PsdMatrix:
    try:
        return PsdMatrix(matrix_from_json(rows, path), tol)
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc), path) from exc


@dataclass(frozen=True, eq=False)
class OperatorPairProblem:
    a: PsdMatrix
    b: PsdMatrix


@dataclass(frozen=True, eq=False)
class FormPairProblem:
    t: SesquilinearForm
    w: SesquilinearForm


@dataclass(frozen=True, eq=False)
class FunctionalPairProblem:
    algebra: StarAlgebra
    w: Functional
    v: Functional


@dataclass(frozen=True, eq=False)
class ProblemFile:
    version: str
    kind: str
    problem: OperatorPairProblem | FormPairProblem | FunctionalPairProblem
    tolerances: Tolerances
    overrides: dict


def _reject_constant(token: str):
    raise SchemaError(f"non-finite constant {token!r} is not allowed")


def parse_problem_text(text: str, tol: Tolerances = DEFAULT_TOL) -> ProblemFile:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return parse_problem(data, tol)


def parse_problem(data, tol: Tolerances = DEFAULT_TOL) -> ProblemFile:
    """Validate and build a problem file from decoded JSON.

    ``tol`` supplies the defaults that the file's own ``tolerances`` object
    overrides.
    """
    if not isinstance(data, dict):
        raise SchemaError("expected a JSON object at the top level")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unrecognized version {version!r}, expected {SCHEMA_VERSION!r}", "$.version")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}, expected one of {list(KINDS)}", "$.kind")
    overrides = data.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise SchemaError("expected an object", "$.tolerances")
    for key, value in overrides.items():
        if key not in _TOLERANCE_KEYS:
            raise SchemaError(f"unknown tolerance {key!r}", "$.tolerances")
        expected = (int, "an integer") if key == "max_iter" else ((int, float), "a number")
        if isinstance(value, bool) or not isinstance(value, expected[0]):
            raise SchemaError(f"{key} must be {expected[1]}", "$.tolerances")
    try:
        tolerances = dataclasses.replace(
            tol, **{k: (v if k == "max_iter" else float(v)) for k, v in overrides.items()}
        )
    except (ValueError, OverflowError) as exc:
        raise SchemaError(str(exc), "$.tolerances") from exc
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("expected an object", "$.payload")
    builder = {
        "operator_pair": _parse_operator_pair,
        "form_pair": _parse_form_pair,
        "functional_pair": _parse_functional_pair,
    }[kind]
    problem = builder(payload, tolerances)
    return ProblemFile(version, kind, problem, tolerances, dict(overrides))


def _parse_operator_pair(payload: dict, tol: Tolerances) -> OperatorPairProblem:
    a = _psd_from_json(payload.get("a"), "$.payload.a", tol)
    b = _psd_from_json(payload.get("b"), "$.payload.b", tol)
    if a.dim != b.dim:
        raise SchemaError(f"a has dimension {a.dim} but b has {b.dim}", "$.payload")
    return OperatorPairProblem(a, b)


def _parse_form_pair(payload: dict, tol: Tolerances) -> FormPairProblem:
    basis = payload.get("basis")
    if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
        raise SchemaError("expected an array of strings", "$.payload.basis")
    t_gram = _psd_from_json(payload.get("t"), "$.payload.t", tol)
    w_gram = _psd_from_json(payload.get("w"), "$.payload.w", tol)
    try:
        t = SesquilinearForm(tuple(basis), t_gram)
        w = SesquilinearForm(tuple(basis), w_gram)
    except ValueError as exc:
        raise SchemaError(str(exc), "$.payload") from exc
    return FormPairProblem(t, w)


def _parse_functional_pair(payload: dict, tol: Tolerances) -> FunctionalPairProblem:
    dims = payload.get("block_dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in dims)
    ):
        raise SchemaError("expected an array of positive integers", "$.payload.block_dims")
    algebra = StarAlgebra(tuple(dims))

    def parse_densities(key: str) -> Functional:
        mats = payload.get(key)
        if not isinstance(mats, list) or len(mats) != len(dims):
            raise SchemaError(f"expected {len(dims)} density matrices", f"$.payload.{key}")
        densities = []
        for k, rows in enumerate(mats):
            rho = _psd_from_json(rows, f"$.payload.{key}[{k}]", tol)
            if rho.dim != dims[k]:
                raise SchemaError(
                    f"density has dimension {rho.dim}, block needs {dims[k]}",
                    f"$.payload.{key}[{k}]",
                )
            densities.append(rho)
        return Functional(algebra, tuple(densities))

    return FunctionalPairProblem(algebra, parse_densities("w"), parse_densities("v"))


def serialize_problem(pf: ProblemFile) -> dict:
    """Canonical JSON object for a parsed problem file."""
    if isinstance(pf.problem, OperatorPairProblem):
        payload = {
            "a": matrix_to_json(pf.problem.a.entries),
            "b": matrix_to_json(pf.problem.b.entries),
        }
    elif isinstance(pf.problem, FormPairProblem):
        payload = {
            "basis": list(pf.problem.t.basis_labels),
            "t": matrix_to_json(pf.problem.t.gram.entries),
            "w": matrix_to_json(pf.problem.w.gram.entries),
        }
    else:
        payload = {
            "block_dims": list(pf.problem.algebra.block_dims),
            "w": [matrix_to_json(rho.entries) for rho in pf.problem.w.densities],
            "v": [matrix_to_json(rho.entries) for rho in pf.problem.v.densities],
        }
    out = {"version": pf.version, "kind": pf.kind, "payload": payload}
    if pf.overrides:
        out["tolerances"] = dict(pf.overrides)
    return out


@dataclass(frozen=True, eq=False)
class Report:
    """Machine-readable command outcome with residual diagnostics."""

    command: str
    input_digest: str
    kind: str | None
    method: str | None
    result: dict
    diagnostics: dict
    wall_time_ms: float


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def report_to_dict(report: Report) -> dict:
    out = {
        "command": report.command,
        "input_digest": report.input_digest,
        "result": _native(report.result),
        "diagnostics": _native(report.diagnostics),
        "wall_time_ms": report.wall_time_ms,
    }
    if report.kind is not None:
        out["kind"] = report.kind
    if report.method is not None:
        out["method"] = report.method
    return out


def render_report(report: Report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
