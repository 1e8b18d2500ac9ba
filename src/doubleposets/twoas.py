"""The dual product, the pairing isomorphism, brackets, and the operad.

star(P, Q) realizes the coproduct-dual product on plane posets by
enumerating cross-relation extensions of the disjoint union: every
pair (x in P, y in Q) receives exactly one of {x below y in order one,
x before y in order two, y before x in order two}.  Read as pairs of
linear orders, these are the realizers that keep each part's two
orders and never put a Q vertex ahead of a P vertex in both, so one
realizer walk lists them with no closure to maintain.
The operad on indexed WN posets substitutes decorated blocks for the
vertices of a pattern and evaluates the pattern through the two
products; a cached word expansion gives an independent second route.
"""

from __future__ import annotations

from .core import (
    EmptyListError,
    LabelError,
    NotHConnectedError,
    NotPlaneError,
    NotWNError,
    RangeError,
    SizeMismatchError,
    canonical_form,
    induced_subposet,
    is_connected,
    is_plane,
    is_wn,
    _canonical_order_map,
    _plane_from_ranks,
    _plane_walk,
)
from .enumeration import PosetFamily, enumerate_family
from .hopf import LinComb
from .pairing import pictures_count
from .products import compose_many, factor_blocks, _compose_raw


class IndexedWNPoset:
    """A WN poset whose vertices carry distinct integer decorations.

    base is stored canonical; labels[i] decorates canonical vertex
    i+1.  Plane posets are rigid, so (base, labels) is a complete
    isomorphism invariant of the decorated object.  The constructor
    trusts its arguments; indexed_poset validates outside input.
    """

    __slots__ = ("base", "labels", "_hash")

    def __init__(self, base, labels):
        self.base = base
        self.labels = tuple(labels)
        self._hash = hash((base, self.labels))

    @classmethod
    def _from_raw(cls, raw, labels):
        """Decorate raw (labels[i] on vertex i+1), carrying the labels
        along the canonical relabeling; the WN property is not checked."""
        canon, pos = _canonical_order_map(raw)
        moved = [0] * raw.n
        for old, lab in enumerate(labels):
            moved[pos[old]] = lab
        return cls(canon, moved)

    def __eq__(self, other):
        if not isinstance(other, IndexedWNPoset):
            return NotImplemented
        return self.base == other.base and self.labels == other.labels

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.base.identity_key(), self.labels)

    @property
    def n(self):
        return self.base.n

    def __repr__(self):
        return f"<IndexedWNPoset {self.base!r} labels={self.labels}>"


def indexed_poset(p, labels):
    """Decorate a poset (any labeling) and canonicalize the pair.

    Raises LabelError unless the labels are p.n distinct values and
    NotWNError unless p is WN.
    """
    labels = tuple(labels)
    if len(labels) != p.n or len(set(labels)) != p.n:
        raise LabelError(f"need {p.n} distinct labels, got {labels!r}")
    if not is_wn(p):
        raise NotWNError("indexed posets must have a WN base")
    return IndexedWNPoset._from_raw(p, labels)


def shift_labels(ip, k):
    return IndexedWNPoset(ip.base, tuple(lab + k for lab in ip.labels))


def b_mn(m, n):
    """The two stacked antichains: the (m, n) bracket's representing poset.

    m lower vertices chained in order two, n upper vertices likewise,
    every lower below every upper in order one; labels 1..m then
    m+1..m+n following the chains.
    """
    if m < 1 or n < 1:
        raise RangeError("b_mn needs m, n >= 1")
    total = m + n
    # Each chain runs backwards through the other order, lower ahead.
    base = _plane_from_ranks([*range(m - 1, -1, -1), *range(total - 1, m - 1, -1)])
    if canonical_form(base)[0] != base:
        raise AssertionError("stacked antichains should be canonical as built")
    return IndexedWNPoset(base, tuple(range(1, total + 1)))


def _cross_extensions(p, q):
    """Yield (R, first) for every valid cross assignment.

    Parts keep their own relations; each cross pair ends related
    exactly once, with order-one allowed only from the p side to the
    q side.  Vertex v of p is input v, vertex v of q is input p.n + v;
    R is canonical and first maps its union positions to inputs.
    """
    before1, before2, after2 = [], [], []
    for part, shift in ((p, 0), (q, p.n)):
        for v in range(part.n):
            before1.append((part.dn1[v] | part.dn2[v]) << shift)
            before2.append((part.dn1[v] | part.up2[v]) << shift)
            after2.append((part.up1[v] | part.dn2[v]) << shift)
    # A q vertex ahead of a p vertex in the union order must follow it
    # in the other order, or the pair would be related downward in
    # order one.
    qmask = ((1 << q.n) - 1) << p.n
    for x in range(p.n):
        after2[x] |= qmask
    return _plane_walk(before1, before2, after2)


def star(p, q):
    """Sum over plane posets refining the disjoint union of p and q.

    The coefficient of an isoclass R equals the number of up-closed
    subsets I of R with (R minus I, I) isomorphic to (p, q); plane
    rigidity makes labeled-extension counting equal that ideal count.
    """
    if not (is_plane(p) and is_plane(q)):
        raise NotPlaneError("star is defined on plane posets")
    acc = {}
    for r, _ in _cross_extensions(p, q):
        acc[r] = acc.get(r, 0) + 1
    return LinComb(acc)


def _star_indexed(a, b):
    """Decorated star restricted to WN terms: dict IndexedWNPoset -> int."""
    labels = a.labels + b.labels
    acc = {}
    for r, first in _cross_extensions(a.base, b.base):
        if is_wn(r):
            ip = IndexedWNPoset(r, [labels[v] for v in first])
            acc[ip] = acc.get(ip, 0) + 1
    return acc


def _indexed_g(a, b):
    """Decorated composition in the second order, as the one-term dict
    that _convolve expects of a product."""
    ip = IndexedWNPoset._from_raw(
        _compose_raw(a.base, b.base, "g"), a.labels + b.labels
    )
    return {ip: 1}


def phi(p):
    """Pairing-weighted expansion over the WN basis of the same degree."""
    if not is_wn(p):
        raise NotWNError("phi is defined on WN posets")
    p = canonical_form(p)[0]
    acc = {}
    for q in enumerate_family(PosetFamily.WNP, p.n):
        c = pictures_count(p, q)
        if c:
            acc[q] = c
    return LinComb(acc)


def binfty_bracket(left, right):
    """Bracket of two lists of h-connected WN posets.

    Computes the star of the two stacked lists and keeps the terms
    lying in the h-connected WN span.
    """
    left, right = tuple(left), tuple(right)
    if not left or not right:
        raise EmptyListError("bracket needs nonempty argument lists")
    for x in left + right:
        if not is_wn(x):
            raise NotWNError(f"bracket arguments must be WN: {x!r}")
        if not is_connected(x, 1):
            raise NotHConnectedError(
                f"bracket arguments must be connected in order one: {x!r}"
            )
    s = star(compose_many(left, "g"), compose_many(right, "g"))
    return s.filter_keys(lambda t: is_connected(t, 1) and is_wn(t))


def _operad_blocks(pattern, args):
    """Validate the arguments; map pattern label i to args[i-1] with its
    labels shifted past those of the earlier arguments."""
    k = pattern.base.n
    if sorted(pattern.labels) != list(range(1, k + 1)):
        raise LabelError(f"pattern labels must be 1..{k}, got {pattern.labels!r}")
    args = tuple(args)
    if len(args) != k:
        raise SizeMismatchError(f"pattern needs {k} arguments, got {len(args)}")
    for a in args:
        if sorted(a.labels) != list(range(1, a.base.n + 1)):
            raise LabelError(
                f"argument labels must be 1..{a.base.n}, got {a.labels!r}"
            )
    blocks = {}
    offset = 0
    for i, a in enumerate(args):
        blocks[i + 1] = shift_labels(a, offset)
        offset += a.base.n
    return blocks


def _convolve(left, right, product):
    """Bilinear extension over coefficient dicts.

    product(a, b) returns a dict key -> multiplicity; terms whose
    coefficients cancel are kept, callers drop them at the end.
    """
    out = {}
    for a, ca in left.items():
        for b, cb in right.items():
            for key, c in product(a, b).items():
                out[key] = out.get(key, 0) + ca * cb * c
    return out


def _substitute(ip, blocks, memo):
    """Value of the decorated pattern ip on blocks[label] per vertex.

    g-split patterns multiply their parts blockwise.  Otherwise the
    first h-factor L is peeled with Q = L star rest - (other star
    terms), each correction substituted recursively; corrections carry
    strictly more order-two pairs, so the recursion terminates.
    """
    got = memo.get(ip)
    if got is not None:
        return got
    if ip.base.n == 1:
        out = {blocks[ip.labels[0]]: 1}
        memo[ip] = out
        return out
    gblocks = factor_blocks(ip.base, "g")
    if len(gblocks) > 1:
        left = _substitute(_indexed_restrict(ip, gblocks[0]), blocks, memo)
        rest = [v for b in gblocks[1:] for v in b]
        right = _substitute(_indexed_restrict(ip, rest), blocks, memo)
        out = _convolve(left, right, _indexed_g)
    else:
        hblocks = factor_blocks(ip.base, "h")
        if len(hblocks) < 2:
            raise AssertionError("a nontrivial WN poset splits under some product")
        left_ip = _indexed_restrict(ip, hblocks[0])
        rest = [v for b in hblocks[1:] for v in b]
        right_ip = _indexed_restrict(ip, rest)
        pattern_star = _star_indexed(left_ip, right_ip)
        if pattern_star.get(ip) != 1:
            raise AssertionError("poset must appear once in its own star")
        left = _substitute(left_ip, blocks, memo)
        right = _substitute(right_ip, blocks, memo)
        out = _convolve(left, right, _star_indexed)
        for term, mult in pattern_star.items():
            if term == ip:
                continue
            for key, c in _substitute(term, blocks, memo).items():
                out[key] = out.get(key, 0) - mult * c
    out = {key: c for key, c in out.items() if c}
    memo[ip] = out
    return out


def operad_compose(pattern, args):
    """Composition of indexed WN posets by block substitution.

    Pattern vertex labeled i inflates to args[i-1] with labels shifted
    past the earlier arguments, and the pattern is evaluated on those
    blocks through the two products.  Peeling h-factors through star
    subtracts every other star term after its own substitution, so the
    signs of nested corrections cancel all multiplicities above one.
    """
    return LinComb(_substitute(pattern, _operad_blocks(pattern, args), {}))


# Expansion oracle.  Every indexed WN poset unfolds into a formal
# (star, g)-expression on its decorated singletons: g-split when the
# base splits, otherwise peel the first h-factor L and use
# Q = L star rest - (all other decorated WN star terms); corrections
# carry strictly more order-two pairs, so the recursion terminates.

_EXPANSION_CACHE = {}


def _indexed_restrict(ip, vertices):
    # An induced subposet of a WN poset is WN, and its labels stay distinct.
    vs = sorted(vertices)
    return IndexedWNPoset._from_raw(
        induced_subposet(ip.base, vs), [ip.labels[v - 1] for v in vs]
    )


def _tree_mul(op, e1, e2):
    return _convolve(e1, e2, lambda t1, t2: {(op, t1, t2): 1})


def _expansion(ip):
    cached = _EXPANSION_CACHE.get(ip)
    if cached is not None:
        return cached
    base = ip.base
    if base.n == 1:
        result = {("leaf", ip.labels[0]): 1}
        _EXPANSION_CACHE[ip] = result
        return result
    gblocks = factor_blocks(base, "g")
    if len(gblocks) > 1:
        left = _indexed_restrict(ip, gblocks[0])
        rest = [v for b in gblocks[1:] for v in b]
        right = _indexed_restrict(ip, rest)
        result = _tree_mul("g", _expansion(left), _expansion(right))
        _EXPANSION_CACHE[ip] = result
        return result
    hblocks = factor_blocks(base, "h")
    if len(hblocks) < 2:
        raise AssertionError("a nontrivial WN poset splits under some product")
    left = _indexed_restrict(ip, hblocks[0])
    rest = [v for b in hblocks[1:] for v in b]
    right = _indexed_restrict(ip, rest)
    prod = _star_indexed(left, right)
    if prod.get(ip) != 1:
        raise AssertionError("poset must appear once in its own star")
    result = _tree_mul("star", _expansion(left), _expansion(right))
    for term, mult in prod.items():
        if term == ip:
            continue
        sub = _expansion(term)
        for t, c in sub.items():
            result[t] = result.get(t, 0) - mult * c
    result = {t: c for t, c in result.items() if c}
    _EXPANSION_CACHE[ip] = result
    return result


def _eval_tree(tree, leaf_map, memo):
    got = memo.get(tree)
    if got is not None:
        return got
    if tree[0] == "leaf":
        out = {leaf_map[tree[1]]: 1}
    else:
        op, t1, t2 = tree
        out = _convolve(
            _eval_tree(t1, leaf_map, memo),
            _eval_tree(t2, leaf_map, memo),
            _indexed_g if op == "g" else _star_indexed,
        )
        out = {k: c for k, c in out.items() if c}
    memo[tree] = out
    return out


def compose_by_expansion(pattern, args):
    """Oracle route for operad_compose via the free two-product expansion."""
    leaf_map = _operad_blocks(pattern, args)
    expr = _expansion(pattern)
    memo = {}
    total = {}
    for tree, coeff in expr.items():
        for ip, c in _eval_tree(tree, leaf_map, memo).items():
            total[ip] = total.get(ip, 0) + coeff * c
    return LinComb(total)
