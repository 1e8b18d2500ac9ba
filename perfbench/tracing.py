"""Span tracing of the library's public functions, from outside it.

install() rebinds each traced function in every module namespace of
the package that holds it, so calls between modules are recorded as
well as calls from the benchmark; restore() puts the originals back.
A span is (name, parent, start, end), appended to flat arrays and kept
in memory; self time is computed at the end as a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# module -> public functions wrapped in the traced run.  Each module of
# the package is one layer; metric names are "<module>.<function>".
TARGETS = {
    "core": (
        "canonical_form",
        "involution",
        "is_wn",
        "is_forest",
        "plane_completions",
        "wn_completions",
        "automorphism_count",
    ),
    "products": ("compose_g", "compose_h", "compose_many", "factor_blocks", "factorize"),
    "hopf": ("coproduct", "reduced_coproduct", "deconcat_coproduct_g", "extend_bilinear"),
    "pairing": (
        "pictures_count",
        "pairing_matrix",
        "xy_order",
        "integer_matrix_rank",
        "nondegeneracy_check",
    ),
    "enumeration": ("enumerate_family", "count_family"),
    "twoas": (
        "star",
        "phi",
        "binfty_bracket",
        "operad_compose",
        "compose_by_expansion",
        "indexed_poset",
    ),
    "textio": (
        "parse_double_poset",
        "parse_single_poset",
        "parse_indexed_poset",
        "format_double_poset",
        "format_single_poset",
        "format_indexed_poset",
        "format_lincomb",
        "format_tensorcomb",
        "to_json",
        "to_dot",
    ),
    "checks": ("run_suite",),
    "cli": ("main",),
}


PACKAGE = "doubleposets"

# Counters taken at the boundary of particular functions: metric name and
# the amount to add, from the arguments (before the call) or the result.
BEFORE = {
    # A hit is a call whose argument already carries its canonical form.
    "core.canonical_form": ("core.canonical_form.hits", lambda args: args[0]._canon is not None),
}
AFTER = {
    "pairing.pictures_count": ("pairing.pictures_count.zeros", lambda args, out: out == 0),
    "enumeration.enumerate_family": ("enumeration.classes", lambda args, out: len(out)),
    # LinComb inputs recurse once per term; count the terms of poset calls only.
    "hopf.coproduct": ("hopf.coproduct.terms",
                       lambda args, out: len(out) if hasattr(args[0], "n") else 0),
    "twoas.star": ("twoas.star.extensions", lambda args, out: int(sum(c for _, c in out.terms()))),
    "cli.main": ("cli.main.exit2", lambda args, out: out == 2),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = {}
        self._restore = []

    def wrap(self, fn, name):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            if before:
                counters[before[0]] = counters.get(before[0], 0) + before[1](args)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after:
                counters[after[0]] = counters.get(after[0], 0) + after[1](args, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever the package holds it."""
        replacement = {}
        for mod_name, funcs in TARGETS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for func in funcs:
                orig = getattr(mod, func)
                name = f"{mod_name}.{func}"
                if name == "hopf.extend_bilinear":
                    # The factory is cheap; trace the bilinear map it returns.
                    def wrapper(f, orig=orig, name=name):
                        return self.wrap(orig(f), name)
                else:
                    wrapper = self.wrap(orig, name)
                replacement[id(orig)] = (orig, wrapper)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def restore(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def summary(self):
        """name -> {"calls", "self_s"} over all recorded spans."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - child[i]
        return out

    def dump(self, path):
        """Write the spans: one JSON header line, then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_of:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
