"""Seeded inputs for the benchmark workloads.

Every pair is a seeded unitary conjugate of one fixed canonical pair, so
the spectra, the angles between the ranges and therefore the iteration
counts are the same for every seed, while the entries are dense, complex
and different for every seed.

Canonical pair on C^n (``ra`` = rank of A, ``shared`` = dimension of
ran A n ran B, ``oblique = n - ra``):

- A0 = diag(linspace(1, 2, ra), 0, ..., 0), so ran A = span(e_0 .. e_{ra-1}).
- B0 = V M diag(b) M^T V^T with b = linspace(1, B_TOP, oblique + shared).
  V holds ``oblique`` unit vectors cos(t_i) e_i + sin(t_i) e_{ra+i},
  t_i in [0.3, 1.2], that leave ran A at an angle, then the ``shared``
  vectors e_oblique .. e_{oblique+shared-1} inside ran A.  M is the
  orthonormal DCT-II matrix, which mixes the two kinds of direction so
  that the absolutely continuous part is a genuine Schur complement.

B reaches B_TOP = 30 times the top of A's spectrum, which makes the
Arlinskii iteration take 25 steps and the Ando doubling schedule 37 terms
at n = 64, both converged (the schedule is capped at 41 terms).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

B_TOP = 30.0


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _dct(m: int) -> np.ndarray:
    j = np.arange(m)[:, None] + 0.5
    k = np.arange(m)[None, :]
    out = np.sqrt(2.0 / m) * np.cos(np.pi * j * k / m)
    out[:, 0] = 1.0 / np.sqrt(m)
    return out


def canonical_pair(n: int, ra: int, shared: int) -> tuple[np.ndarray, np.ndarray]:
    oblique = n - ra
    if oblique + shared > ra:
        raise ValueError("need n - ra + shared <= ra")
    a = np.zeros((n, n))
    a[:ra, :ra] = np.diag(np.linspace(1.0, 2.0, ra))
    theta = np.linspace(0.3, 1.2, oblique)
    v = np.zeros((n, oblique + shared))
    for i, t in enumerate(theta):
        v[i, i] = np.cos(t)
        v[ra + i, i] = np.sin(t)
    for i in range(shared):
        v[oblique + i, oblique + i] = 1.0
    basis = v @ _dct(oblique + shared)
    b = (basis * np.linspace(1.0, B_TOP, oblique + shared)) @ basis.T
    return a, b


def conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = u @ m @ u.conj().T
    return (out + out.conj().T) / 2.0


def operator_pairs(seed: int, count: int, n: int, ra: int, shared: int):
    """``count`` seeded pairs (A, B) of complex arrays, unitarily equivalent."""
    rng = np.random.default_rng(seed)
    a0, b0 = canonical_pair(n, ra, shared)
    pairs = []
    for _ in range(count):
        u = haar_unitary(rng, n)
        pairs.append((conjugate(u, a0), conjugate(u, b0)))
    return pairs


def block_pairs(seed: int, count: int, block_dims, ra: int, shared: int):
    """``count`` seeded pairs of per-block densities (v_blocks, w_blocks).

    In block k, v plays the role of A and w of B in the canonical pair of
    dimension n_k, conjugated by its own seeded unitary.
    """
    rng = np.random.default_rng(seed)
    canon = [canonical_pair(n, ra, shared) for n in block_dims]
    pairs = []
    for _ in range(count):
        vs, ws = [], []
        for n, (a0, b0) in zip(block_dims, canon):
            u = haar_unitary(rng, n)
            vs.append(conjugate(u, a0))
            ws.append(conjugate(u, b0))
        pairs.append((vs, ws))
    return pairs


def random_blocks(rng: np.random.Generator, block_dims) -> list[np.ndarray]:
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in block_dims]


def matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def problem_bytes(kind: str, payload: dict) -> bytes:
    doc = {"version": "1", "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
