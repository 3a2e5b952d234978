"""Spans around the calls into each layer of globalzeta.

``install`` wraps each traced public function under every name a
module looks it up by: the package's modules import functions directly
(``verify`` calls its own ``completed_zeta`` binding, not
``globalzeta.zeta.completed_zeta``), so every namespace that holds the
function gets the wrapper.  A span is ``[name, start, end, parent,
request, detail]``; spans stay in memory until ``fold`` turns them into
totals after the request has been timed.
"""

from __future__ import annotations

import importlib
import time
from functools import wraps

from reference import totient

#: The layers, as modules of the package.
MODULES = ("cli", "verify", "zeta", "kernel", "fields", "ffield")

#: Traced public functions, named by the module that defines them.
TRACED = (
    "cli.parse_and_dispatch",
    "cli.render_report",
    "verify.sweep",
    "verify.check_point",
    "verify.euler_consistency_check",
    "zeta.completed_zeta",
    "zeta.zeta",
    "zeta.gamma_factor",
    "kernel.riemann_zeta",
    "kernel.dirichlet_l",
    "fields.parse_field_spec",
    "fields.enumerate_places",
    "fields.truncated_euler_product",
    "ffield.monic_irreducibles",
    "ffield.galois_field",
)

# What a span keeps of its call, for the ratios computed from the inputs.
_DETAILS = {
    "zeta.completed_zeta": lambda args, result: (complex(args[1]), bool(result.precision_cliff)),
    "kernel.dirichlet_l": lambda args, result: args[1].modulus,
    "ffield.monic_irreducibles": lambda args, result: (args[0], args[1]),
}


class Tracer:
    """The spans of one process, and the request they belong to."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._cached: set[str] = set()  # traced functions behind an lru_cache
        self._seen: set[tuple] = set()  # cache keys already computed

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = _DETAILS.get(name)
        if hasattr(fn, "cache_info"):
            self._cached.add(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every module namespace that holds it."""
        modules = [importlib.import_module(f"globalzeta.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for name in TRACED:
            module, fn_name = name.split(".")
            original = getattr(by_name[module], fn_name)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def fold(self, totals: dict) -> None:
        """Add the recorded spans to ``totals`` and forget them.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        evaluated: dict[int, set] = {}
        for i, (name, start, end, _, request, detail) in enumerate(spans):
            entry = totals["fn"][name]
            entry[0] += 1
            entry[1] += (end - start) - children[i]
            if detail is None:
                continue
            if name == "zeta.completed_zeta":
                s, cliff = detail
                seen = evaluated.setdefault(request, set())
                totals["completed"] += 1
                totals["repeats"] += s in seen or s.conjugate() in seen
                totals["cliffs"] += cliff
                seen.add(s)
            elif name == "kernel.dirichlet_l":
                totals["dl_classes"] += totient(abs(detail))
            elif name == "ffield.monic_irreducibles":
                if name not in self._cached or detail not in self._seen:
                    self._seen.add(detail)
                    q, degree = detail
                    totals["mi_candidates"] += q ** degree
        spans.clear()


def new_totals() -> dict:
    return {
        "fn": {name: [0, 0.0] for name in TRACED},
        "requests": 0,
        "completed": 0,
        "repeats": 0,
        "cliffs": 0,
        "dl_classes": 0,
        "mi_candidates": 0,
    }


def merge(into: dict, other: dict) -> None:
    for name, (calls, self_s) in other["fn"].items():
        into["fn"][name][0] += calls
        into["fn"][name][1] += self_s
    for key, value in other.items():
        if key != "fn":
            into[key] += value

