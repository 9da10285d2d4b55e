"""The three workloads: seeded inputs, one round of operations, and checks.

Every operation of a workload is the same recipe on one size class.  A
round is a fixed list of operations; runs execute whole rounds, so the mix
of operations is the same in every run.  ``check`` compares an operation's
output with the independent oracles and returns a list of problems.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checkout
import inputs
import oracles
import tracer

METHODS = ("direct", "iterate", "ando")
# Relative oracle tolerances.  The iterate and direct routes and the
# parallel sum agree with the oracles to about 1e-14 on these inputs, the
# doubling limit to about 2e-10; the bounds leave a wide margin.
EXACT_RTOL = 1e-11
ANDO_RTOL = 1e-8

LIBRARY_LAYERS = (
    tracer.PSD_INIT,
    tracer.EIGENSOLVE,
    "parallel.parallel_sum",
    "lebesgue.direct",
    "lebesgue.auxiliary_space",
)


class OpFailed(RuntimeError):
    """The program reported failure (a non-zero exit code)."""


@dataclass(frozen=True)
class Op:
    """One operation of a round: ``call()`` returns the output that
    ``check(output)`` turns into a list of problems."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


class Workload:
    """A seeded set of inputs and the round of operations run on them.

    Subclasses set ``name``, ``import_module`` (what their set-up imports),
    ``tail_q`` (the percentile reported as ``op_tail_s``) and ``layers``
    (the traced layers every operation reaches).
    """

    # Peak RSS (KiB) of each child process that did the work, when the work
    # runs in child processes; None when it runs in the benchmark's process.
    child_rss_kib = None

    def round(self) -> list[Op]:
        """One operation per seeded pair: ``run(i)`` checked by ``check(i, out)``."""
        return [Op(f"pair{i}", functools.partial(self.run, i), functools.partial(self.check, i))
                for i in range(len(self.pairs))]

    def inprocess_round(self) -> list[Op]:
        """The round run inside this process (for counting and tracing)."""
        return self.round()

    def cleanup(self) -> None:
        """Remove whatever the workload wrote to disk."""

    def warm_up(self) -> None:
        """Run the first in-process operation once, untimed and unchecked."""
        self.inprocess_round()[0].call()


class OperatorCrosscheck(Workload):
    """Dense complex 64x64 pairs through parallel_sum and all three methods."""

    name = "operator-crosscheck"
    import_module = "oplebesgue"
    tail_q = 0.85
    dim, rank_a, shared, pairs_per_round = 64, 40, 16, 8
    layers = LIBRARY_LAYERS + ("parallel.ando", "lebesgue.iterate")

    def __init__(self, ol, seed, workdir):
        self.ol = ol
        self.pairs = inputs.operator_pairs(seed, self.pairs_per_round, self.dim,
                                           self.rank_a, self.shared)
        self._refs = {}

    def run(self, i):
        ol = self.ol
        a_raw, b_raw = self.pairs[i]
        a, b = ol.PsdMatrix(a_raw), ol.PsdMatrix(b_raw)
        return ol.parallel_sum(a, b), {m: ol.decompose(a, b, m) for m in METHODS}

    def reference(self, i):
        if i not in self._refs:
            a, b = self.pairs[i]
            self._refs[i] = oracles.parallel_sum(a, b), oracles.lebesgue_parts(a, b)
        return self._refs[i]

    def check(self, i, out):
        psum, decs = out
        psum_ref, (ac_ref, sing_ref) = self.reference(i)
        problems = []
        if not oracles.close(psum.entries, psum_ref, EXACT_RTOL):
            problems.append("parallel_sum differs from the Schur-complement oracle")
        for method, dec in decs.items():
            rtol = ANDO_RTOL if method == "ando" else EXACT_RTOL
            if not dec.converged:
                problems.append(f"{method} did not converge")
            if not (oracles.close(dec.ac.entries, ac_ref, rtol)
                    and oracles.close(dec.sing.entries, sing_ref, rtol)):
                problems.append(f"{method} parts differ from the shorted-operator oracle")
        return problems


class FunctionalBlocks(Workload):
    """Block-density functionals on C^8 + C^8 + C^8 (Gram dimension 192)."""

    name = "functional-blocks"
    import_module = "oplebesgue"
    tail_q = 0.9
    block_dims, pairs_per_round, elements_per_pair = (8, 8, 8), 8, 2
    layers = LIBRARY_LAYERS + (
        "forms.form_decompose",
        "forms.form_parallel_sum",
        "functionals.induced_form",
        "functionals.from_form",
        "functionals.gns",
    )

    def __init__(self, ol, seed, workdir):
        self.ol = ol
        self.algebra = ol.StarAlgebra(self.block_dims)
        # v (the reference) and w both have rank 5 in every block.
        self.pairs = inputs.block_pairs(seed, self.pairs_per_round, self.block_dims,
                                        ra=5, shared=2)
        rng = np.random.default_rng([seed, 1])
        self.elements = [
            [inputs.random_blocks(rng, self.block_dims) for _ in range(self.elements_per_pair)]
            for _ in self.pairs
        ]
        self._refs = {}

    def run(self, i):
        ol = self.ol
        v_raw, w_raw = self.pairs[i]
        w = ol.functional_from_densities(self.algebra, w_raw)
        v = ol.functional_from_densities(self.algebra, v_raw)
        return ol.functional_parallel_sum(w, v), ol.functional_decompose(w, v), ol.gns(w)

    def reference(self, i):
        if i not in self._refs:
            v_raw, w_raw = self.pairs[i]
            psum = [oracles.parallel_sum(w, v) for v, w in zip(v_raw, w_raw)]
            parts = [oracles.lebesgue_parts(v, w) for v, w in zip(v_raw, w_raw)]
            gns_dim = sum(n * oracles.rank(w) for n, w in zip(self.block_dims, w_raw))
            self._refs[i] = psum, parts, gns_dim
        return self._refs[i]

    def check(self, i, out):
        fsum, dec, triplet = out
        psum_ref, parts_ref, gns_dim = self.reference(i)
        problems = []
        for k, (rho, ref) in enumerate(zip(fsum.densities, psum_ref)):
            if not oracles.close(rho.entries, ref, EXACT_RTOL):
                problems.append(f"block {k}: parallel sum differs from W - W(W+V)^+W")
        for k, (ac, sing, (ac_ref, sing_ref)) in enumerate(
                zip(dec.ac.densities, dec.sing.densities, parts_ref)):
            if not (oracles.close(ac.entries, ac_ref, EXACT_RTOL)
                    and oracles.close(sing.entries, sing_ref, EXACT_RTOL)):
                problems.append(f"block {k}: parts differ from the shorted-density oracle")
        if triplet.space_dim != gns_dim:
            problems.append(f"GNS space has dimension {triplet.space_dim}, expected {gns_dim}")
            return problems
        problems.extend(self._check_gns(i, triplet))
        return problems

    def _check_gns(self, i, triplet):
        _, w_raw = self.pairs[i]
        x_blocks, y_blocks = self.elements[i]
        x = self.algebra.element(x_blocks)
        y = self.algebra.element(y_blocks)
        xy = self.algebra.element([p @ q for p, q in zip(x_blocks, y_blocks)])
        zeta = triplet.cyclic_vector
        problems = []
        for blocks, elem in ((x_blocks, x), (y_blocks, y)):
            value = oracles.functional_value(w_raw, blocks)
            got = complex(np.vdot(zeta, triplet.represent(elem) @ zeta))
            scale = 1.0 + sum(np.linalg.norm(r) * np.linalg.norm(b) for r, b in zip(w_raw, blocks))
            if abs(got - value) > EXACT_RTOL * scale:
                problems.append("<pi(a) zeta, zeta> differs from w(a)")
        pxy = triplet.represent(xy)
        if not oracles.close(triplet.represent(x) @ triplet.represent(y), pxy, EXACT_RTOL):
            problems.append("pi(ab) differs from pi(a) pi(b)")
        return problems


class CliSmall(Workload):
    """`python -m oplebesgue` round trips on small problem files."""

    name = "cli-small"
    import_module = "oplebesgue.cli"
    tail_q = 0.75
    commands = (("psum",), ("check",), ("decompose",), ("decompose", "--cross-check"))
    kinds = ("operator", "form", "functional")
    # Every wrapped layer but gns, which no CLI command reaches.
    layers = tuple(layer for layer in tracer.LAYERS if layer != "functionals.gns")

    def __init__(self, ol, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        (a, b), = inputs.operator_pairs([seed, 0], 1, 6, 4, 2)
        (w, t), = inputs.operator_pairs([seed, 1], 1, 6, 4, 2)
        (vs, ws), = inputs.block_pairs([seed, 2], 1, (3, 3), ra=2, shared=1)
        basis = [f"q{i}" for i in range(6)]
        self.files = {}
        # (reference, decomposed) matrix pairs of each kind, one per block
        self.pairs = {
            "operator": [(a, b)],
            "form": [(w, t)],
            "functional": list(zip(vs, ws)),
        }
        docs = {
            "operator": ("operator_pair", {"a": inputs.matrix_json(a), "b": inputs.matrix_json(b)}),
            "form": ("form_pair", {"basis": basis, "t": inputs.matrix_json(t),
                                   "w": inputs.matrix_json(w)}),
            "functional": ("functional_pair", {
                "block_dims": [3, 3],
                "w": [inputs.matrix_json(m) for m in ws],
                "v": [inputs.matrix_json(m) for m in vs],
            }),
        }
        for kind, (tag, payload) in docs.items():
            data = inputs.problem_bytes(tag, payload)
            path = os.path.join(workdir, f"{kind}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            self.files[kind] = (path, inputs.sha256(data))
        self.env = checkout.child_env()
        self.child_rss_kib = []
        self.expected = {kind: self._reference(pairs) for kind, pairs in self.pairs.items()}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _argv(self, command, kind):
        return [*command, self.files[kind][0], "--json"]

    def round(self):
        return self._ops(self.spawn)

    def inprocess_round(self):
        return self._ops(self.call)

    def _ops(self, runner):
        return [Op(f"{kind}:{' '.join(cmd)}", functools.partial(runner, cmd, kind),
                   functools.partial(self.check, cmd, kind))
                for kind in self.kinds for cmd in self.commands]

    def spawn(self, command, kind):
        """Run the CLI in a fresh interpreter and return its standard output."""
        argv = [sys.executable, "-m", "oplebesgue", *self._argv(command, kind)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=self.env, cwd=checkout.ROOT)
        try:
            with proc.stdout:
                out = proc.stdout.read()
        finally:
            # os.wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib.append(usage.ru_maxrss)
        return self._output(proc.returncode, out.decode("utf-8", "replace"))

    def call(self, command, kind):
        """Run ``oplebesgue.cli.main`` in this process and return its output."""
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = sys.modules["oplebesgue.cli"].main(self._argv(command, kind))
        return self._output(code, buf.getvalue() + err.getvalue())

    @staticmethod
    def _output(code, text):
        if code != 0:
            raise OpFailed(f"exit code {code}: {text.strip()[:200]}")
        return text

    @staticmethod
    def _reference(pairs):
        psum = [oracles.parallel_sum(a, b) for a, b in pairs]
        parts = [oracles.lebesgue_parts(a, b) for a, b in pairs]
        scale = [1.0 + np.linalg.norm(b) for _, b in pairs]
        ac_any = any(np.linalg.norm(ac) > EXACT_RTOL * s for (ac, _), s in zip(parts, scale))
        sing_any = any(np.linalg.norm(sg) > EXACT_RTOL * s for (_, sg), s in zip(parts, scale))
        return {"psum": psum, "parts": parts,
                "absolutely_continuous": not sing_any, "singular": not ac_any}

    def check(self, command, kind, text):
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"stdout is not one JSON report: {exc}"]
        ref = self.expected[kind]
        problems = []
        if report.get("input_digest") != self.files[kind][1]:
            problems.append("input_digest is not the sha256 of the problem file")
        result = report.get("result", {})
        if command[0] == "psum":
            if not self._matrices_close(kind, result.get("parallel_sum"), ref["psum"], EXACT_RTOL):
                problems.append("parallel sum differs from the oracle")
        elif command[0] == "check":
            for key in ("absolutely_continuous", "singular"):
                if result.get(key) is not ref[key]:
                    problems.append(f"{key} is {result.get(key)}, oracle says {ref[key]}")
        else:
            ac_ref = [ac for ac, _ in ref["parts"]]
            sing_ref = [sg for _, sg in ref["parts"]]
            if not (self._matrices_close(kind, result.get("ac"), ac_ref, EXACT_RTOL)
                    and self._matrices_close(kind, result.get("sing"), sing_ref, EXACT_RTOL)):
                problems.append("decomposition differs from the shorted-operator oracle")
            if "--cross-check" in command:
                diag = report.get("diagnostics", {})
                bound = ANDO_RTOL * (1.0 + sum(np.linalg.norm(b) for _, b in self.pairs[kind]))
                if not diag.get("cross_method_max_discrepancy", np.inf) <= bound:
                    problems.append("methods disagree beyond the doubling-limit tolerance")
                if diag.get("cross_method_all_converged") is not True:
                    problems.append("a method did not converge")
        return problems

    @staticmethod
    def _matrices_close(kind, got, refs, rtol):
        if got is None:
            return False
        blocks = got if kind == "functional" else [got]
        if len(blocks) != len(refs):
            return False
        for block, ref in zip(blocks, refs):
            arr = np.asarray(block, dtype=float)
            if arr.ndim != 3 or arr.shape[-1] != 2:
                return False
            if not oracles.close(arr[..., 0] + 1j * arr[..., 1], ref, rtol):
                return False
        return True


WORKLOADS = {w.name: w for w in (CliSmall, OperatorCrosscheck, FunctionalBlocks)}
