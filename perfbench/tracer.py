"""Outside-in tracer: wraps the package's public functions from the outside.

Modules bind imported names (``lebesgue`` holds its own ``parallel_sum``,
``cli`` its own ``decompose``), so each function is replaced at every
binding site in the package, not only in the module that defines it.
``PsdMatrix.__init__`` is patched on the class and the numpy eigensolvers
on ``numpy.linalg``, which is where the package looks them up at call time.

Every call records a span (id, parent id, layer, operation index, start,
end) in memory; spans are written out only when the run ends.  Times are
inclusive: a layer's time contains the time of the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# (layer, module, attribute) of each wrapped public function.
FUNCTIONS = (
    ("cli.main", "oplebesgue.cli", "main"),
    ("serialize.parse", "oplebesgue.serialize", "parse_problem_text"),
    ("serialize.render", "oplebesgue.serialize", "render_report"),
    ("parallel.parallel_sum", "oplebesgue.parallel", "parallel_sum"),
    ("parallel.ando", "oplebesgue.parallel", "ando_ac_part"),
    ("lebesgue.direct", "oplebesgue.lebesgue", "direct_decompose"),
    ("lebesgue.auxiliary_space", "oplebesgue.lebesgue", "auxiliary_space"),
    ("lebesgue.iterate", "oplebesgue.lebesgue", "arlinskii_iterate"),
    ("forms.form_decompose", "oplebesgue.forms", "form_decompose"),
    ("forms.form_parallel_sum", "oplebesgue.forms", "form_parallel_sum"),
    ("functionals.induced_form", "oplebesgue.functionals", "induced_form"),
    ("functionals.from_form", "oplebesgue.functionals", "functional_from_form"),
    ("functionals.gns", "oplebesgue.functionals", "gns"),
)
PSD_INIT = "core.psd_init"
EIGENSOLVE = "core.eigensolve"
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
LAYERS = tuple(layer for layer, _, _ in FUNCTIONS) + (PSD_INIT, EIGENSOLVE)


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = -1
        # Calls are recorded only while active, i.e. inside an operation;
        # output checks run with the wrappers installed but inactive.
        self.active = False
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, layer, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, layer, self.op, start, end))
                self.calls[layer] += 1
                self.seconds[layer] += end - start
            if on_call is not None:
                on_call(args)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _eig_call(self, args):
        n = int(np.shape(args[0])[-1])
        self.counts["eig_work"] += n**3
        self.maxima["max_eig_dim"] = max(self.maxima["max_eig_dim"], n)

    def _add(self, key, value):
        self.counts[key] += value

    def _result_hooks(self):
        return {
            "serialize.render": lambda text: self._add("report_bytes", len(text.encode("utf-8"))),
            "parallel.ando": lambda res: self._add("ando_terms", res.terms_used),
            "lebesgue.iterate": lambda res: self._add("iterate_steps", res.iterations),
            "functionals.induced_form": lambda form: self.maxima.__setitem__(
                "gram_dim", max(self.maxima["gram_dim"], form.dim)),
        }

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> Tracer:
        hooks = self._result_hooks()
        for _, module, _ in FUNCTIONS:
            importlib.import_module(module)
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oplebesgue" or name.startswith("oplebesgue."))]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original, on_result=hooks.get(layer))
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        psd = sys.modules["oplebesgue.core"].PsdMatrix
        self._patch(psd, "__init__", self._wrap(PSD_INIT, psd.__init__))
        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr,
                        self._wrap(EIGENSOLVE, getattr(np.linalg, attr), on_call=self._eig_call))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------
    def missing(self, expected) -> list[str]:
        """Expected layers that recorded no call."""
        return [layer for layer in expected if self.calls[layer] == 0]

    def write(self, path) -> None:
        fields = ("id", "parent", "layer", "op", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
