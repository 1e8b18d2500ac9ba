"""The two composition products and their unique factorizations.

compose_g stacks its arguments in the second order (every cross pair
x in P, y in Q gets x < y there and stays incomparable in the first);
compose_h does the same with the roles of the orders swapped.  Both
are associative with the empty poset as shared unit, and every poset
factors uniquely into indecomposables for each product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    EMPTY,
    DoublePoset,
    EmptyInputError,
    RangeError,
    canonical_form,
    induced_subposet,
)


def _check_op(op):
    if op not in ("g", "h"):
        raise RangeError(f"operator must be 'g' or 'h', got {op!r}")


def _compose_raw(p, q, op):
    """Disjoint union with the cross relation of one product, uncanonicalized.

    Vertices of q are shifted by p.n; the result's labeling therefore
    remembers the two parts, which the labeled layers rely on.
    """
    n = p.n + q.n
    shift = p.n
    qmask = ((1 << q.n) - 1) << shift
    up1 = list(p.up1) + [m << shift for m in q.up1]
    up2 = list(p.up2) + [m << shift for m in q.up2]
    if op == "g":
        for i in range(p.n):
            up2[i] |= qmask
    else:
        for i in range(p.n):
            up1[i] |= qmask
    return DoublePoset._from_rows(n, up1, up2)


def compose_g(p, q):
    """P stacked before Q in the second order; canonical form."""
    return canonical_form(_compose_raw(p, q, "g"))[0]


def compose_h(p, q):
    """P stacked below Q in the first order; canonical form."""
    return canonical_form(_compose_raw(p, q, "h"))[0]


def compose_many(posets, op):
    _check_op(op)
    raw = EMPTY
    for p in posets:
        raw = _compose_raw(raw, p, op)
    return canonical_form(raw)[0]


def factor_blocks(p, op):
    """Vertex blocks of the maximal factorization, in product order.

    Blocks are tuples of 1-based vertices.  Two vertices must share a
    factor whenever they are not a valid cross pair of the product in
    either direction; connected components of that graph are candidate
    blocks, ordered by the cross relation, merging whenever a pair of
    blocks fails the all-pairs cross test.
    """
    _check_op(op)
    n = p.n
    if n == 0:
        return ()
    if op == "g":
        cross_up, inc_up, inc_dn = p.up2, p.up1, p.dn1
    else:
        cross_up, inc_up, inc_dn = p.up1, p.up2, p.dn2

    def crosslike(x, y):
        # x before y as a cross pair of the product.
        return (cross_up[x] >> y & 1) and not (
            inc_up[x] >> y & 1 or inc_dn[x] >> y & 1
        )

    # Union-find over vertices forced together.
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for x in range(n):
        for y in range(x + 1, n):
            if not (crosslike(x, y) or crosslike(y, x)):
                union(x, y)

    while True:
        groups = {}
        for v in range(n):
            groups.setdefault(find(v), []).append(v)
        blocks = list(groups.values())
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                fwd = all(crosslike(x, y) for x in blocks[i] for y in blocks[j])
                bwd = all(crosslike(y, x) for x in blocks[i] for y in blocks[j])
                if not (fwd or bwd):
                    union(blocks[i][0], blocks[j][0])
                    merged = True
        if not merged:
            break

    # Total order of the blocks along the cross relation; every pair is
    # now consistently oriented, so counting predecessors suffices.
    # (sorted over indices: list.sort(key=...) would hide `blocks` from
    # its own key function while sorting.)
    def below(i):
        return sum(
            1
            for j in range(len(blocks))
            if j != i and crosslike(blocks[j][0], blocks[i][0])
        )

    order = sorted(range(len(blocks)), key=below)
    return tuple(tuple(v + 1 for v in sorted(blocks[i])) for i in order)


@dataclass(frozen=True)
class FactorizationResult:
    factors: tuple
    operator: str


def factorize(p, op):
    """Unique maximal factorization; factors are canonical forms."""
    blocks = factor_blocks(p, op)
    factors = tuple(
        canonical_form(induced_subposet(p, b))[0] for b in blocks
    )
    return FactorizationResult(factors=factors, operator=op)


class IndecomposabilityClass(enum.Enum):
    UNIT = "unit"
    BOTH_INDECOMPOSABLE = "both-indecomposable"
    ONLY_1_INDECOMPOSABLE = "only-1-indecomposable"
    ONLY_2_INDECOMPOSABLE = "only-2-indecomposable"


def classify(p):
    """Which product(s) fail to split p; exactly one class per poset."""
    if p.n == 0:
        return IndecomposabilityClass.UNIT
    g_split = len(factor_blocks(p, "g")) > 1
    h_split = len(factor_blocks(p, "h")) > 1
    if g_split and h_split:
        raise AssertionError("poset decomposable under both products")
    if g_split:
        return IndecomposabilityClass.ONLY_2_INDECOMPOSABLE
    if h_split:
        return IndecomposabilityClass.ONLY_1_INDECOMPOSABLE
    return IndecomposabilityClass.BOTH_INDECOMPOSABLE


@dataclass(frozen=True)
class TreeLeaf:
    poset: DoublePoset


@dataclass(frozen=True)
class TreeNode:
    op: str
    children: tuple


def twoas_decomposition_tree(p):
    """Alternating factorization tree.

    Internal nodes alternate the two products by construction (a
    factor of a g-product is g-indecomposable, so the next split can
    only be h, and conversely); leaves are indecomposable for both.
    """
    if p.n == 0:
        raise EmptyInputError("no decomposition tree for the empty poset")

    def build(q):
        for op in ("g", "h"):
            if len(factor_blocks(q, op)) > 1:
                return TreeNode(op, tuple(map(build, factorize(q, op).factors)))
        return TreeLeaf(q)

    return build(canonical_form(p)[0])


def evaluate_tree(t):
    if isinstance(t, TreeLeaf):
        return t.poset
    return compose_many([evaluate_tree(c) for c in t.children], t.op)
