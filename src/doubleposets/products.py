"""The two composition products and their unique factorizations.

compose_g stacks its arguments in the second order (every cross pair
x in P, y in Q gets x < y there and stays incomparable in the first);
compose_h does the same with the roles of the orders swapped.  Both
are associative with the empty poset as shared unit, and every poset
factors uniquely into indecomposables for each product.

Factoring is one scan over a linear extension of the product's
stacking order (the second order for g, the first for h): the factors
of P = A B put A wholly before B in every such extension, so cutting
after each prefix that the whole rest stacks on yields every split,
and the runs between the cuts are the indecomposable factors.
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

    Blocks are sorted tuples of 1-based vertices.
    """
    _check_op(op)
    n = p.n
    if op == "g":
        stack_dn, other_up, other_dn = p.dn2, p.up1, p.dn1
    else:
        stack_dn, other_up, other_dn = p.dn1, p.up2, p.dn2
    order = sorted(range(n), key=lambda v: stack_dn[v].bit_count())
    # under[k]: the vertices in the stacking down-set of every vertex of
    # order[k:] and outside its comparabilities in the other order.
    under = [(1 << n) - 1] * (n + 1)
    for k in range(n - 1, -1, -1):
        v = order[k]
        under[k] = under[k + 1] & stack_dn[v] & ~(other_up[v] | other_dn[v])
    blocks, block, prefix = [], [], 0
    for k, v in enumerate(order):
        block.append(v + 1)
        prefix |= 1 << v
        if prefix & under[k + 1] == prefix:
            blocks.append(tuple(sorted(block)))
            block = []
    return tuple(blocks)


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
