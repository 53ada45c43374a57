"""Per-layer spans for fscat, recorded from outside the program.

Each target below is a public function or method of one fscat layer.  The
tracer replaces it, at every module or class attribute where callers look it
up, by a wrapper that records a span: calls, inclusive time and self time
(inclusive time minus the time of the spans it encloses).  A layer's self
time is the sum of its spans' self times, so the layers' self times together
with the tracer's own bookkeeping add up to the time of the outermost spans.

Code that is not wrapped counts toward the layer that called it: the raw
permutation kernels (perm._mul, _inv, _conj), Permutation properties and the
private helpers of every module.  Wrapping those would cost more than the
work they do.

A later in-program stats collector should replace these wrappers.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("perm", "cosets", "chartab", "cyclo", "indicators", "catalog", "cli")

# layer -> (defining module, attribute paths).  Every target is called on at
# least one workload; selftest.py checks that.
TARGETS = {
    "perm": ("fscat.perm", (
        "PermGroup.order", "PermGroup.member", "PermGroup.is_subgroup_of",
        "PermGroup.element_tuples", "PermGroup.element_set",
        "PermGroup.coset_min", "PermGroup._from_element_tuples",
        "Permutation.from_cycles", "Permutation.from_text",
        "Permutation.to_text", "Permutation.cycles", "Permutation.inverse",
        "Permutation.__mul__", "Permutation.__pow__",
        "sym", "alt", "cyclic", "sym_embed", "alt_embed", "tilde_sym")),
    "cosets": ("fscat.cosets", (
        "left_coset_reps", "double_cosets", "stabilizer",
        "normal_form_with_multiplier", "is_null_coset", "sym_census",
        "canonical_normal_form", "normal_form_census")),
    "chartab": ("fscat.chartab", (
        "conjugacy_classes", "character_table", "inner_product", "induce",
        "nu_classical")),
    "cyclo": ("fscat.cyclo", (
        "Cyclotomic.__add__", "Cyclotomic.__sub__", "Cyclotomic.__neg__",
        "Cyclotomic.__mul__", "Cyclotomic.scaled", "Cyclotomic.conj",
        "Cyclotomic.galois",
        "Cyclotomic.from_rational", "Cyclotomic.from_exponents",
        "Cyclotomic.as_rational_integer")),
    "indicators": ("fscat.indicators", (
        "category_scan", "nu_m", "vanishing_witness", "two_power_rep",
        "nu_twisted", "IndicatorReport.to_json")),
    "catalog": ("fscat.catalog", ("verify", "run_all")),
    "cli": ("fscat.cli", ("main",)),
}

# Stage times partition the scan: a stage nested inside another stage is
# taken out of the outer one, so the classes a table build triggers count
# as classes, not as table.
STAGES = {"cosets.double_cosets", "cosets.stabilizer",
          "chartab.conjugacy_classes", "chartab.character_table"}


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on close."""

    def __init__(self):
        self.self_s = Counter()      # layer -> self time
        self.entries = Counter()     # layer -> calls entering it from outside
        self.calls = Counter()       # span -> calls
        self.incl_s = Counter()      # span -> time of its outermost calls
        self.stage_s = Counter()     # stage span -> time without nested stages
        self.counts = Counter()      # named counts filled by the hooks
        self.bookkeeping_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._stage_stack: list[list] = []
        self._active = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._seen_groups: dict[int, object] = {}
        self._table_groups: set[frozenset] = set()
        self.spans: list[str] = []

    # -- hooks: counts that need the call's arguments or result -------------

    def _on_element_tuples(self, args, result):
        group = args[0]
        if id(group) not in self._seen_groups:
            self._seen_groups[id(group)] = group
            self.counts["elements_enumerated"] += len(result)

    def _on_character_table(self, args, result):
        enumerate_ = self._originals.get("perm.PermGroup.element_tuples")
        if enumerate_ is None:
            return
        self._table_groups.add(frozenset(enumerate_(args[0])))
        self.counts["distinct_stabilizers"] = len(self._table_groups)

    def _on_double_cosets(self, args, result):
        self.counts["double_cosets"] += len(result)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span: str, layer: str):
        stack, stage_stack, active = self._stack, self._stage_stack, self._active
        self_s, entries, calls = self.self_s, self.entries, self.calls
        incl_s, stage_s = self.incl_s, self.stage_s
        is_stage = span in STAGES
        hook = {"perm.PermGroup.element_tuples": self._on_element_tuples,
                "chartab.character_table": self._on_character_table,
                "cosets.double_cosets": self._on_double_cosets}.get(span)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [layer, 0.0, 0.0]  # layer, child time, nested stage time
            stack.append(frame)
            if is_stage:
                stage_stack.append(frame)
            active[span] += 1
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                active[span] -= 1
                self_s[layer] += dur - frame[1]
                calls[span] += 1
                if outer is None or outer[0] != layer:
                    entries[layer] += 1
                if not active[span]:
                    incl_s[span] += dur
                if is_stage:
                    stage_stack.pop()
                    stage_s[span] += dur - frame[2]
                    if stage_stack:
                        stage_stack[-1][2] += dur
                if hook is not None and ok:
                    hook(args, result)
                after = clock()
                tracer.bookkeeping_s += after - end
                if outer is not None:
                    outer[1] += after - start

        return functools.wraps(fn)(traced)

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "fscat" or name.startswith("fscat.")) and m]
        for layer, (module_name, paths) in TARGETS.items():
            module = sys.modules[module_name]
            for path in paths:
                span = f"{layer}.{path}"
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in vars(owner):
                    self.missing.append(span)
                    continue
                raw = vars(owner)[attr]
                self.spans.append(span)
                if owner_name:
                    self._patch_method(owner, attr, raw, span, layer)
                else:
                    self._patch_function(modules, raw, span, layer)
        return self

    def _patch_method(self, owner, attr, raw, span, layer):
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            wrapped = type(raw)(self._wrap(fn, span, layer))
        elif callable(raw):
            fn = raw
            wrapped = self._wrap(fn, span, layer)
        else:
            raise TypeError(f"{span} is neither a function nor a classmethod")
        self._originals[span] = fn
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(self, modules, fn, span, layer):
        # every module-level name bound to this function, wherever imported
        wrapped = self._wrap(fn, span, layer)
        self._originals[span] = fn
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, name, fn))
                    setattr(module, name, wrapped)

    def close(self) -> list[str]:
        """Restore every patched attribute; returns those left unrestored."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, raw in self._patches
               if vars(owner).get(attr) is not raw]
        self._seen_groups.clear()
        self._table_groups.clear()
        return bad

    # -- report -------------------------------------------------------------

    def metrics(self, traced_wall: float) -> dict[str, float]:
        """The per-layer metrics of one traced run, keyed by metric name."""
        tables = self.calls["chartab.character_table"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "perm.enumerate_s": self.incl_s["perm.PermGroup.element_tuples"],
            "perm.elements_enumerated": self.counts["elements_enumerated"],
            "perm.coset_min_calls": self.calls["perm.PermGroup.coset_min"],
            "cosets.double_cosets_s": self.stage_s["cosets.double_cosets"],
            "cosets.double_cosets": self.counts["double_cosets"],
            "cosets.stabilizer_s": self.stage_s["cosets.stabilizer"],
            "cosets.stabilizer_calls": self.calls["cosets.stabilizer"],
            "chartab.classes_s": self.stage_s["chartab.conjugacy_classes"],
            "chartab.table_s": self.stage_s["chartab.character_table"],
            "chartab.table_calls": tables,
            "chartab.distinct_stabilizers": self.counts["distinct_stabilizers"],
            "chartab.table_useful_ratio":
                self.counts["distinct_stabilizers"] / tables if tables else 0.0,
            "cyclo.ops": self.entries["cyclo"],
            "indicators.two_power_rep_s":
                self.incl_s["indicators.two_power_rep"],
            "indicators.vanishing_witness_s":
                self.incl_s["indicators.vanishing_witness"],
            "catalog.checks": self.calls["catalog.verify"],
            "trace.wall_s": traced_wall,
            "trace.bookkeeping_s": self.bookkeeping_s,
            "trace.explained_frac":
                (sum(self.self_s.values()) + self.bookkeeping_s) / traced_wall,
        })
        return out
