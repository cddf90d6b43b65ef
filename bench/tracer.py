"""Span tracing of the cqboxes layers, installed from outside the program.

``Tracer.install`` wraps the public functions of the traced modules, plus
the constructors of ``StateVector`` and ``DensityMatrix`` and
``HaarCouplingBox.draw_base``.  A function is patched under every name
that a ``cqboxes`` module binds it to (``cqboxes.boxes.partial_trace`` as
well as ``cqboxes.quantum.partial_trace``), so calls between modules are
seen too.  Each span records its name, start, end and parent span; spans
stay in memory until ``write`` is called.  A few counters are taken from
arguments and results at the same call boundaries.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("quantum", "boxes", "synthesis", "bounds", "multipartite", "io", "cli")


def _ns_pairs(box) -> int:
    """Pairwise reduced-state comparisons ``cq_no_signalling`` makes: for
    every proper subgroup, its own input settings times the pairs of
    outside input settings."""
    sizes = box.input_sizes
    k = len(sizes)
    total = 0
    for r in range(1, k):
        for group in itertools.combinations(range(k), r):
            own = math.prod(sizes[i] for i in group)
            outside = math.prod(sizes[i] for i in range(k) if i not in group)
            total += own * outside * (outside - 1) // 2
    return total


def _count_cq_no_signalling(bound, result):
    return {"boxes.ns_pairs": _ns_pairs(bound.arguments["box"]),
            "boxes.witnesses": len(result.witnesses)}


def _count_verify_bound(bound, result):
    return {"bounds.ascents": bound.arguments["restarts"] * bound.arguments["k"]}


def _count_sample_states(bound, result):
    return {"synthesis.states_built": sum(len(states) for states in result.values())}


def _count_theorem(bound, result):
    return {"multipartite.boxes_checked":
            result.local_cases + result.perturbed_cases + result.random_cases}


def _count_load_box(bound, result):
    return {"io.bytes_read": os.path.getsize(bound.arguments["path"])}


def _count_save_box(bound, result):
    return {"io.bytes_written": os.path.getsize(bound.arguments["path"])}


COUNTERS = {
    "boxes.cq_no_signalling": _count_cq_no_signalling,
    "bounds.verify_bound": _count_verify_bound,
    "synthesis.sample_states": _count_sample_states,
    "multipartite.w_phase_theorem_check": _count_theorem,
    "io.load_box": _count_load_box,
    "io.save_box": _count_save_box,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, parent = next(ids), stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span, parent, name, start, end))
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound, result))
            return result

        return traced

    def install(self) -> None:
        """Patch the traced names; ``cqboxes`` must already be imported."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"cqboxes.{layer}"]
            public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "cqboxes" or module_name.startswith("cqboxes."):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals and inspect.isfunction(value):
                        self._patch(module, attr, originals[id(value)])

        quantum, boxes = sys.modules["cqboxes.quantum"], sys.modules["cqboxes.boxes"]
        for cls in (quantum.StateVector, quantum.DensityMatrix):
            self._patch(cls, "__init__", self._wrap(f"quantum.{cls.__name__}", cls.__init__))
        draw = boxes.HaarCouplingBox.draw_base
        self._patch(boxes.HaarCouplingBox, "draw_base", self._wrap("boxes.draw_base", draw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time (seconds) per span name.  Self time is the
        span's duration minus that of its direct children."""
        calls: Counter = Counter()
        child_time: dict[int, int] = defaultdict(int)
        for span, parent, name, start, end in self.spans:
            calls[name] += 1
            child_time[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for span, parent, name, start, end in self.spans:
            self_ns[name] += end - start - child_time[span]
        return calls, {name: ns / 1e9 for name, ns in self_ns.items()}

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed tab-separated lines:
        id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for record in self.spans:
                out.write("\t".join(map(str, record)) + "\n")
