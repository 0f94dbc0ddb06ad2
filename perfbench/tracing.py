"""Per-layer spans recorded around calls into mubkit's public functions.

The tracer replaces each function below with a wrapper that records a span
(name, start, end, parent span, root op span).  A function is replaced
wherever a mubkit module holds it, so names imported with ``from`` (such
as ``mub.verify_net`` or ``planner.verified_from_dict``) are caught as
well as the defining module's.  Methods are replaced on their class.
Wrappers are swapped in only for traced passes, so untraced passes in the
same process run the plain functions.  Spans stay in memory; layer
metrics are computed from them after each traced pass and the spans are
written out when the worker ends.

Span names are "<module>.<layer>"; the metric table is layers.json.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); verify_mubs is named per call, by
# its mode, as mub.verify_exact or mub.verify_float.
TARGETS = [
    ("cli", "main", "cli.op"),
    ("mub", "build_mubs", "mub.build"),
    ("mub", "tensor_mubs", "mub.tensor"),
    ("mub", "verify_mubs", None),
    ("mub", "mubs_from_dict", "mub.from_dict"),
    ("mub", "mubs_to_dict", "mub.to_dict"),
    ("mub", "verified_from_dict", "mub.verified_from_dict"),
    ("net", "net_from_mols", "net.from_mols"),
    ("net", "verify_net", "net.verify"),
    ("hadamard", "verify_hadamard", "hadamard.verify"),
    # galois is reached only through these, so its time is counted here.
    ("latin", "best_mols", "latin.mols"),
    ("latin", "complete_mols_prime_power", "latin.mols"),
    ("latin", "macneish_product", "latin.mols"),
    ("latin", "mols_from_dict", "latin.mols"),
    ("planner", "plan", "planner.plan"),
    ("planner", "ImportsTable.from_dir", "planner.imports"),
    ("serial", "loads", "serial.loads"),
    ("serial", "dumps", "serial.dumps"),
    ("cyclotomic", "Cyclotomic.is_zero", "cyclotomic.zero_test"),
    ("cyclotomic", "Cyclotomic.__mul__", "cyclotomic.product"),
]
MODULES = ("cli", "cyclotomic", "galois", "hadamard", "latin", "mub", "net", "planner", "serial")

# Counts that must repeat exactly between passes and runs of one seed.
COUNTS = ("mub.pairs", "mub.violations", "cyclotomic.zero_tests", "cyclotomic.products",
          "net.verify_calls", "hadamard.verify_calls", "latin.mols_calls",
          "planner.plan_calls", "serial.bytes_in", "serial.bytes_out")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, root index]
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.swaps: list[tuple] = []  # (name, holder, attribute, original, wrapper)
        self.missing: list[str] = []  # targets the code under test no longer has
        self.passes: list[dict] = []

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name
            if before is not None:
                label = before(args, kwargs) or name
            parent = stack[-1]
            idx = len(spans)
            rec = [label, 0.0, 0.0, parent, idx if parent < 0 else spans[parent][4]]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks that count work from arguments and results --------------------

    def _verify_call(self, args, kwargs) -> str:
        x = args[0]
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
        if mode == "exact":
            n = x.k * x.dim
            self.counts["mub.pairs"] += n * (n - 1) // 2
        return "mub.verify_" + mode

    def _verify_result(self, report) -> None:
        self.counts["mub.violations"] += len(report.violations)

    def _loads_call(self, args, kwargs) -> None:
        self.counts["serial.bytes_in"] += len(args[0].encode("utf-8"))

    def _dumps_result(self, text) -> None:
        self.counts["serial.bytes_out"] += len(text.encode("utf-8"))

    def install(self) -> None:
        """Find every target in every mubkit module that holds it and build
        its wrapper; enable() swaps the wrappers in and out."""
        mods = {m: importlib.import_module("mubkit." + m) for m in MODULES}
        mods["mubkit"] = importlib.import_module("mubkit")
        hooks = {"verify_mubs": (self._verify_call, self._verify_result),
                 "loads": (self._loads_call, None),
                 "dumps": (None, self._dumps_result)}
        for mod_name, path, span in TARGETS:
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            orig = raw.__func__ if is_classmethod else raw
            before, after = hooks.get(attr, (None, None))
            wrapped = self._wrap(orig, span, before, after)
            if cls_path:
                self.swaps.append((f"{mod_name}.{path}", owner, attr, raw,
                                   classmethod(wrapped) if is_classmethod else wrapped))
                continue
            for holder_name, holder in mods.items():
                for key, value in vars(holder).items():
                    if value is orig:
                        self.swaps.append((f"{holder_name}.{key}", holder, key, orig, wrapped))

    def enable(self, on: bool) -> None:
        for _, holder, key, orig, wrapped in self.swaps:
            setattr(holder, key, wrapped if on else orig)

    # -- per-pass metrics ----------------------------------------------------

    def end_pass(self, pass_s: float) -> dict:
        """Layer metrics of the spans recorded since the last call."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        outer_s: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                outer_s[name] += dur
        c = self.counts
        metrics = {
            "mub.verify_exact_s": self_s["mub.verify_exact"],
            "mub.verify_float_s": outer_s["mub.verify_float"],
            "mub.pairs": c["mub.pairs"],
            "mub.violations": c["mub.violations"],
            "mub.build_s": self_s["mub.build"],
            "mub.tensor_s": outer_s["mub.tensor"],
            "mub.from_dict_s": outer_s["mub.from_dict"],
            "mub.to_dict_s": outer_s["mub.to_dict"],
            "cyclotomic.zero_tests": calls["cyclotomic.zero_test"],
            "cyclotomic.zero_test_s": outer_s["cyclotomic.zero_test"],
            "cyclotomic.products": calls["cyclotomic.product"],
            "cyclotomic.product_s": outer_s["cyclotomic.product"],
            "cyclotomic.zero_tests_per_pair":
                calls["cyclotomic.zero_test"] / c["mub.pairs"] if c["mub.pairs"] else 0.0,
            "net.from_mols_s": outer_s["net.from_mols"],
            "net.verify_s": outer_s["net.verify"],
            "net.verify_calls": calls["net.verify"],
            "hadamard.verify_s": outer_s["hadamard.verify"],
            "hadamard.verify_calls": calls["hadamard.verify"],
            "latin.mols_s": outer_s["latin.mols"],
            "latin.mols_calls": calls["latin.mols"],
            "serial.loads_s": outer_s["serial.loads"],
            "serial.dumps_s": outer_s["serial.dumps"],
            "serial.bytes_in": c["serial.bytes_in"],
            "serial.bytes_out": c["serial.bytes_out"],
            "planner.plan_s": outer_s["planner.plan"],
            "planner.plan_calls": calls["planner.plan"],
            "planner.imports_s": outer_s["planner.imports"],
            "cli.self_s": self_s["cli.op"],
        }
        self.passes.append({"pass_s": pass_s, "spans": list(spans)})
        spans.clear()
        c.clear()
        return metrics

    def write(self, path: str) -> None:
        """Spans of every pass, times in microseconds from the pass start."""
        names: dict[str, int] = {}
        out = []
        for p in self.passes:
            t0 = p["spans"][0][1] if p["spans"] else 0.0
            out.append({"pass_s": p["pass_s"], "spans": [
                [names.setdefault(name, len(names)), round((start - t0) * 1e6),
                 round((end - t0) * 1e6), parent, root]
                for name, start, end, parent, root in p["spans"]]})
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "root"],
                       "names": list(names), "patched": [swap[0] for swap in self.swaps],
                       "missing": self.missing, "passes": out}, fh)
