"""Text grammar, combination printing, and DOT/JSON export.

Grammar (whitespace-insensitive; output prints full strict relations
sorted lexicographically):

    poset   := "dp" INT "h{" pairs "}" "r{" pairs "}"
    single  := "sp" INT "le{" pairs "}"
    indexed := "idp" poset "lab{" INT ":" INT ("," INT ":" INT)* "}"
    pairs   := empty | pair ("," pair)* ;  pair := "(" INT "," INT ")"

The vertex count INT of "dp" and "sp" (and so of "idp") is at most
MAX_VERTICES; a larger count is a ParseError.
"""

from __future__ import annotations

import json
import sys

from .core import (
    DoublePoset,
    PosetError,
    is_plane,
    new_double_poset,
    new_single_poset,
    plane_total_order,
    _bits,
)


class ParseError(PosetError):
    """Input text does not match the grammar; message names the production."""


# Far above the dozen vertices any test or benchmark input has, and
# below the default recursion limit, which the vertex-deep recursions
# of pictures_count and _lexmax would otherwise reach.
MAX_VERTICES = 512


class _Scanner:
    def __init__(self, text):
        self.s = "".join(text.split())
        self.i = 0

    def literal(self, lit, production):
        if not self.s.startswith(lit, self.i):
            raise ParseError(
                f"expected {lit!r} at position {self.i} in {production}"
            )
        self.i += len(lit)

    def integer(self, production):
        j = self.i
        while j < len(self.s) and self.s[j].isdigit():
            j += 1
        if j == self.i:
            raise ParseError(
                f"expected integer at position {self.i} in {production}"
            )
        # Checked on the digit string: int() itself refuses very long
        # ones, and sizes beyond sys.maxsize overflow downstream.
        digits = self.s[self.i : j].lstrip("0") or "0"
        if len(digits) > len(str(sys.maxsize)) or int(digits) > sys.maxsize:
            raise ParseError(
                f"integer at position {self.i} exceeds {sys.maxsize} in {production}"
            )
        self.i = j
        return int(digits)

    def size(self, production):
        j = self.i
        n = self.integer(production)
        if n > MAX_VERTICES:
            raise ParseError(
                f"vertex count at position {j} exceeds {MAX_VERTICES} in {production}"
            )
        return n

    def peek(self, lit):
        return self.s.startswith(lit, self.i)

    def done(self, production):
        if self.i != len(self.s):
            raise ParseError(
                f"trailing input at position {self.i} in {production}"
            )


def _pairs(sc, production):
    out = []
    sc.literal("{", production)
    if sc.peek("}"):
        sc.literal("}", production)
        return out
    while True:
        sc.literal("(", production)
        a = sc.integer(production)
        sc.literal(",", production)
        b = sc.integer(production)
        sc.literal(")", production)
        out.append((a, b))
        if sc.peek(","):
            sc.literal(",", production)
            continue
        break
    sc.literal("}", production)
    return out


def _scan_double_poset(sc):
    sc.literal("dp", "poset")
    n = sc.size("poset")
    sc.literal("h", "poset relation block h{...}")
    gen1 = _pairs(sc, "poset relation block h{...}")
    sc.literal("r", "poset relation block r{...}")
    gen2 = _pairs(sc, "poset relation block r{...}")
    return new_double_poset(n, gen1, gen2)


def parse_double_poset(text):
    sc = _Scanner(text)
    p = _scan_double_poset(sc)
    sc.done("poset")
    return p


def parse_single_poset(text):
    sc = _Scanner(text)
    sc.literal("sp", "single poset")
    n = sc.size("single poset")
    sc.literal("le", "single poset relation block le{...}")
    gens = _pairs(sc, "single poset relation block le{...}")
    sc.done("single poset")
    return new_single_poset(n, gens)


def parse_indexed_poset(text):
    # Imported here: twoas depends on core, textio serves both layers.
    from .twoas import indexed_poset

    sc = _Scanner(text)
    sc.literal("idp", "indexed poset")
    p = _scan_double_poset(sc)
    production = "indexed poset label block lab{i:l,...}"
    sc.literal("lab", production)
    sc.literal("{", production)
    labels = {}
    if not sc.peek("}"):
        while True:
            v = sc.integer(production)
            sc.literal(":", production)
            lab = sc.integer(production)
            if v in labels:
                raise ParseError(f"vertex {v} labeled twice in {production}")
            labels[v] = lab
            if sc.peek(","):
                sc.literal(",", production)
                continue
            break
    sc.literal("}", production)
    sc.done("indexed poset")
    if sorted(labels) != list(range(1, p.n + 1)):
        raise ParseError(
            "label block must assign each vertex 1..n exactly once"
        )
    return indexed_poset(p, tuple(labels[v] for v in range(1, p.n + 1)))


def _pairs_text(pairs):
    return ",".join(f"({a},{b})" for a, b in pairs)


def format_double_poset(p):
    return (
        f"dp {p.n} h{{{_pairs_text(p.strict_pairs(1))}}}"
        f" r{{{_pairs_text(p.strict_pairs(2))}}}"
    )


def format_single_poset(q):
    return f"sp {q.n} le{{{_pairs_text(q.strict_pairs())}}}"


def format_indexed_poset(ip):
    labs = ",".join(f"{i + 1}:{lab}" for i, lab in enumerate(ip.labels))
    return f"idp {format_double_poset(ip.base)} lab{{{labs}}}"


def _format_key(k):
    if isinstance(k, DoublePoset):
        return format_double_poset(k)
    return format_indexed_poset(k)


def format_lincomb(x):
    """One line per term: "<rational> * <poset text>", key-sorted."""
    if x.is_zero():
        return "0"
    return "\n".join(f"{c} * {_format_key(k)}" for k, c in x.terms())


def format_tensorcomb(x):
    if x.is_zero():
        return "0"
    return "\n".join(
        f"{c} * {_format_key(a)} (x) {_format_key(b)}" for (a, b), c in x.terms()
    )


def to_json(p):
    doc = {
        "n": p.n,
        "h": [list(pair) for pair in p.strict_pairs(1)],
        "r": [list(pair) for pair in p.strict_pairs(2)],
    }
    return json.dumps(doc, separators=(",", ":"))


def _hasse_covers(p):
    """Cover pairs of the first order (1-based)."""
    covers = []
    for i in range(p.n):
        for j in _bits(p.up1[i]):
            between = p.up1[i] & p.dn1[j]
            if not between:
                covers.append((i + 1, j + 1))
    return sorted(covers)


def to_dot(p):
    """Deterministic DOT text: first-order Hasse diagram, ranked by height.

    Plane posets additionally carry invisible left-to-right edges within
    each rank following the total order.
    """
    n = p.n
    height = [0] * n
    for v in sorted(range(n), key=lambda v: p.dn1[v].bit_count()):
        below = [height[u] + 1 for u in _bits(p.dn1[v])]
        height[v] = max(below, default=0)
    lines = ["digraph poset {", "  rankdir=BT;"]
    for v in range(n):
        lines.append(f'  v{v + 1} [label="{v + 1}"];')
    for a, b in _hasse_covers(p):
        lines.append(f"  v{a} -> v{b};")
    levels = {}
    for v in range(n):
        levels.setdefault(height[v], []).append(v + 1)
    if n and is_plane(p):
        pos = {v: i for i, v in enumerate(plane_total_order(p))}
        for h in sorted(levels):
            members = sorted(levels[h], key=lambda v: pos[v])
            lines.append(
                "  { rank=same; " + " ".join(f"v{v};" for v in members) + " }"
            )
            for a, b in zip(members, members[1:]):
                lines.append(f"  v{a} -> v{b} [style=invis];")
    else:
        for h in sorted(levels):
            members = sorted(levels[h])
            lines.append(
                "  { rank=same; " + " ".join(f"v{v};" for v in members) + " }"
            )
    lines.append("}")
    return "\n".join(lines)
