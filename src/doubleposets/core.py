"""Finite double posets: one vertex set 1..n carrying two partial orders.

Relations are stored as full strict transitive closures packed into
per-vertex bitmasks (bit j-1 of row i-1 set means i < j), so pair
queries are O(1) and the structural predicates are plain mask scans.
All values are immutable and every function here is pure.

The first order is written le1 (drawn vertically, "h" in the plane
case), the second le2 ("r").  A plane poset has every pair of distinct
vertices comparable in exactly one of the two orders; a WN poset is a
plane poset with no 4-vertex subposet whose first order is the zigzag
N; a plane forest additionally avoids the 3-vertex "two minima under
one top" shape.
"""

from __future__ import annotations

import functools
import itertools


class PosetError(Exception):
    """Base for all structural errors raised by this package."""


class RangeError(PosetError):
    """A vertex or size argument is out of range."""


class CycleError(PosetError):
    """Generators force i <= j <= i with i != j."""


class NotPlaneError(PosetError):
    """Operation requires a plane poset."""


class NotWNError(PosetError):
    """Operation requires a WN poset."""


class NotHConnectedError(PosetError):
    """Operation requires connectedness in the first order."""


class EmptyInputError(PosetError):
    """Operation rejects the empty poset."""


class EmptyListError(PosetError):
    """Operation rejects an empty argument list."""


class SizeMismatchError(PosetError):
    """Sizes of the arguments do not line up."""


class BasisNotIotaClosedError(PosetError):
    """Basis is not closed under the order-swapping involution."""


class BudgetExceededError(PosetError):
    """Requested size exceeds the configured enumeration budget."""


class LabelError(PosetError):
    """Vertex labels are not the expected integer set."""


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closed_strict_rows(n, gens):
    """Strict transitive closure of generator pairs as bitmask rows."""
    rows = [0] * n
    for pair in gens:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise RangeError(f"not a pair: {pair!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise RangeError(f"vertex out of range 1..{n}: {pair!r}")
        if i != j:
            rows[i - 1] |= 1 << (j - 1)
    # Warshall over the strict relation.
    for k in range(n):
        bk = 1 << k
        rk = rows[k]
        if rk:
            for i in range(n):
                if rows[i] & bk:
                    rows[i] |= rk
    for i in range(n):
        if rows[i] >> i & 1:
            raise CycleError(f"antisymmetry violated at vertex {i + 1}")
    return rows


def _down_rows(n, up):
    dn = [0] * n
    for i in range(n):
        ui = up[i]
        bi = 1 << i
        for j in _bits(ui):
            dn[j] |= bi
    return dn


class DoublePoset:
    """Immutable double poset on vertices 1..n.

    Construct through new_double_poset (validates and closes the
    generators); internal code uses _from_rows with already closed
    strict rows.  Three derived values are cached on the object as they
    are first asked for: the canonical form, the involution image and
    the comparability counts.
    """

    __slots__ = ("n", "up1", "up2", "dn1", "dn2", "_hash", "_canon", "_iota", "_xy")

    def __init__(self, n, up1, up2, dn1, dn2):
        self.n = n
        self.up1 = up1
        self.up2 = up2
        self.dn1 = dn1
        self.dn2 = dn2
        self._hash = hash((n, up1, up2))
        self._canon = None
        self._iota = None
        self._xy = None

    @staticmethod
    def _from_rows(n, rows1, rows2):
        return DoublePoset(
            n,
            tuple(rows1),
            tuple(rows2),
            tuple(_down_rows(n, rows1)),
            tuple(_down_rows(n, rows2)),
        )

    def __eq__(self, other):
        if not isinstance(other, DoublePoset):
            return NotImplemented
        return (
            self.n == other.n and self.up1 == other.up1 and self.up2 == other.up2
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<DoublePoset n={self.n} h={self.strict_pairs(1)} r={self.strict_pairs(2)}>"

    # 1-based strict pair queries.
    def lt1(self, i, j):
        return bool(self.up1[i - 1] >> (j - 1) & 1)

    def lt2(self, i, j):
        return bool(self.up2[i - 1] >> (j - 1) & 1)

    def strict_pairs(self, which=1):
        """Sorted tuple of strictly related 1-based pairs of one order."""
        up = self.up1 if which == 1 else self.up2
        return tuple(
            (i + 1, j + 1) for i in range(self.n) for j in _bits(up[i])
        )

    def identity_key(self):
        """Encoding of this labeling (not canonical unless relabeled)."""
        return (self.n, self.strict_pairs(1), self.strict_pairs(2))

    # Sorting hook for LinComb term ordering; meaningful on canonical
    # representatives, which is all the algebra layer ever stores.
    def sort_key(self):
        return self.identity_key()

    def canonical(self):
        return canonical_form(self)[0]


EMPTY = DoublePoset._from_rows(0, [], [])


def new_double_poset(n, gen1=(), gen2=()):
    """Double poset from generator pairs; closures computed here.

    Raises RangeError for vertices outside 1..n and CycleError when a
    closure would break antisymmetry.
    """
    if n < 0:
        raise RangeError(f"negative size {n}")
    return DoublePoset._from_rows(
        n, _closed_strict_rows(n, gen1), _closed_strict_rows(n, gen2)
    )


def _permute_rows(rows, pos):
    """Strict rows relabeled so that 0-based vertex i becomes pos[i]."""
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        m = 0
        for j in _bits(r):
            m |= 1 << pos[j]
        out[pos[i]] = m
    return tuple(out)


def relabel(p, perm):
    """Relabel: vertex i becomes perm[i-1].  perm must permute 1..n."""
    n = p.n
    if sorted(perm) != list(range(1, n + 1)):
        raise LabelError(f"not a permutation of 1..{n}: {perm!r}")
    pos = [v - 1 for v in perm]
    return DoublePoset._from_rows(
        n, _permute_rows(p.up1, pos), _permute_rows(p.up2, pos)
    )


def induced_subposet(p, vertices):
    """Restriction of both orders to a vertex subset.

    Vertices are renumbered 1..k preserving their original numeric
    order; no canonicalization happens here.
    """
    vs = sorted(set(vertices))
    if vs and not (1 <= vs[0] and vs[-1] <= p.n):
        raise RangeError(f"vertices out of range 1..{p.n}: {vs!r}")
    k = len(vs)
    pos = {v - 1: i for i, v in enumerate(vs)}

    def restrict(rows):
        out = []
        for v in vs:
            m = 0
            r = rows[v - 1]
            for old, new in pos.items():
                if r >> old & 1:
                    m |= 1 << new
            out.append(m)
        return out

    return DoublePoset._from_rows(k, restrict(p.up1), restrict(p.up2))


def comparability_counts(p):
    """(X, Y) = number of strictly le1- resp. le2-related ordered pairs."""
    if p._xy is None:
        p._xy = (
            sum(m.bit_count() for m in p.up1),
            sum(m.bit_count() for m in p.up2),
        )
    return p._xy


def is_plane(p):
    """Every pair of distinct vertices comparable in exactly one order."""
    n = p.n
    full = (1 << n) - 1
    for i in range(n):
        c1 = p.up1[i] | p.dn1[i]
        c2 = p.up2[i] | p.dn2[i]
        if c1 & c2:
            return False
        if (c1 | c2) != full ^ (1 << i):
            return False
    return True


def connected_components(p, which):
    """Partition by the comparability graph of one order (1 or 2).

    Components are sorted tuples of vertices, listed by smallest
    member.  The empty poset yields no components.
    """
    if which not in (1, 2):
        raise RangeError(f"order selector must be 1 or 2, got {which!r}")
    up = p.up1 if which == 1 else p.up2
    dn = p.dn1 if which == 1 else p.dn2
    n = p.n
    seen = 0
    comps = []
    for s in range(n):
        if seen >> s & 1:
            continue
        comp = 0
        frontier = 1 << s
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= up[v] | dn[v]
            frontier = nxt & ~comp
        seen |= comp
        comps.append(tuple(b + 1 for b in _bits(comp)))
    return comps


def is_connected(p, which):
    """Nonempty and a single component in the selected order."""
    return p.n > 0 and len(connected_components(p, which)) == 1


def plane_total_order(p):
    """Vertices listed increasingly for the union order of a plane poset."""
    if not is_plane(p):
        raise NotPlaneError("plane_total_order needs a plane poset")
    ranks = [(p.dn1[i] | p.dn2[i]).bit_count() for i in range(p.n)]
    order = sorted(range(p.n), key=lambda i: ranks[i])
    # On a plane poset the union of the orders is total, so the strict
    # down-set sizes must be 0..n-1; anything else is a bug upstream.
    if sorted(ranks) != list(range(p.n)):
        raise AssertionError("union order is not total")
    return tuple(v + 1 for v in order)


# Canonical forms.  The canonical labeling maximizes, lexicographically
# over all vertex orderings, the bit sequence (union-order blocks, then
# le1 blocks interleaved with le2 blocks) laid out incrementally: the
# block of position k records, for each earlier position i, the
# forward/backward bits against the vertex placed at k.  Maximizing the
# union-order part first makes the plane total order the unique
# maximizer on plane posets, so the total-order shortcut and the
# generic search provably agree.


def _lexmax(n, candidates):
    """Generic best-prefix search.

    candidates(path, used) yields (block, vertex) pairs sorted with the
    largest block first; the search returns the lexicographically
    maximal block sequence and the vertex order realizing it.  A
    candidate filter may create dead ends; the update flag keeps the
    pruning state honest in that case.
    """
    best = None
    best_perm = None
    path = []
    blocks = []
    used = [False] * n

    def dfs(k, above):
        nonlocal best, best_perm
        if k == n:
            if above:
                best = blocks.copy()
                best_perm = path.copy()
                return True
            return False
        got = False
        st = above
        for blk, v in candidates(path, used):
            if not st:
                ref = best[k]
                if blk < ref:
                    break
                child = blk > ref
            else:
                child = True
            used[v] = True
            path.append(v)
            blocks.append(blk)
            r = dfs(k + 1, child)
            used[v] = False
            path.pop()
            blocks.pop()
            if r:
                got = True
                st = False
        return got

    dfs(0, True)
    return best, best_perm


def _canonical_order(p):
    """0-based vertex order realizing the canonical labeling."""
    n = p.n
    if is_plane(p):
        ranks = [(p.dn1[i] | p.dn2[i]).bit_count() for i in range(n)]
        return sorted(range(n), key=lambda i: ranks[i])
    upu = [p.up1[i] | p.up2[i] for i in range(n)]

    def ublock(path, v):
        b = 0
        for q in path:
            b = (b << 2) | ((upu[q] >> v & 1) << 1) | (upu[v] >> q & 1)
        return b

    def ucands(path, used):
        return sorted(
            ((ublock(path, v), v) for v in range(n) if not used[v]),
            reverse=True,
        )

    ustar, _ = _lexmax(n, ucands)
    up1, up2 = p.up1, p.up2

    def rblock(path, v):
        b = 0
        for q in path:
            b = (
                (b << 4)
                | ((up1[q] >> v & 1) << 3)
                | ((up1[v] >> q & 1) << 2)
                | ((up2[q] >> v & 1) << 1)
                | (up2[v] >> q & 1)
            )
        return b

    def rcands(path, used):
        k = len(path)
        out = []
        for v in range(n):
            if not used[v] and ublock(path, v) == ustar[k]:
                out.append((rblock(path, v), v))
        out.sort(reverse=True)
        return out

    _, order = _lexmax(n, rcands)
    return order


def canonical_form(p):
    """(canonical representative, CanonicalKey) of the isoclass of p.

    The key is (n, strict le1 pairs, strict le2 pairs) of the
    canonical labeling; keys are equal iff the posets are isomorphic.
    """
    if p._canon is None:
        _canonical_order_map(p)
    return p._canon


def canonical_key(p):
    return canonical_form(p)[1]


def _canonical_order_map(p):
    """(canonical poset, pos) with pos[old 0-based] = new 0-based.

    Runs the canonical search once and fills the _canon cache of p and
    of its representative when it is empty.
    """
    n = p.n
    pos = [0] * n
    for newpos, old in enumerate(_canonical_order(p)):
        pos[old] = newpos
    if p._canon is None:
        canon = DoublePoset._from_rows(
            n, _permute_rows(p.up1, pos), _permute_rows(p.up2, pos)
        )
        result = (canon, canon.identity_key())
        canon._canon = result
        p._canon = result
    return p._canon[0], pos


def involution(p):
    """Swap the two orders; returned in canonical form.

    The image is cached on p.  When the canonical form of p is already
    known, the image's cache is filled with it as well, so applying the
    involution twice costs nothing.
    """
    if p._iota is None:
        swapped = DoublePoset(p.n, p.up2, p.up1, p.dn2, p.dn1)
        image = canonical_form(swapped)[0]
        p._iota = image
        if p._canon is not None:
            image._iota = p._canon[0]
    return p._iota


def _automorphisms(p):
    """Yield every vertex permutation preserving both strict orders of p.

    A permutation is yielded as the 0-based image tuple.  Vertices only
    map to vertices with the same up/down degrees.
    """
    n = p.n
    orders = (p.up1, p.up2)
    profile = [
        tuple(rows[v].bit_count() for rows in (p.up1, p.dn1, p.up2, p.dn2))
        for v in range(n)
    ]
    image = [0] * n
    used = [False] * n

    def extend(v):
        if v == n:
            yield tuple(image)
            return
        for w in range(n):
            if used[w] or profile[v] != profile[w]:
                continue
            if all(
                (rows[v] >> u & 1) == (rows[w] >> image[u] & 1)
                and (rows[u] >> v & 1) == (rows[image[u]] >> w & 1)
                for rows in orders
                for u in range(v)
            ):
                image[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False

    return extend(0)


def automorphism_count(p):
    """Number of relabelings fixing both relations, by backtracking."""
    return sum(1 for _ in _automorphisms(p))


def _upset_masks(p):
    """Yield every up-closed subset of the first order as a bitmask.

    Depth-first over the vertices in reverse linear-extension order: a
    vertex may join only when everything above it already has, so each
    up-set appears exactly once.
    """
    n = p.n
    order = sorted(range(n), key=lambda v: p.dn1[v].bit_count(), reverse=True)
    stack = [(0, 0)]
    while stack:
        i, mask = stack.pop()
        if i == n:
            yield mask
            continue
        v = order[i]
        if p.up1[v] & ~mask == 0:
            stack.append((i + 1, mask | (1 << v)))
        stack.append((i + 1, mask))


# A single poset is a double poset whose second order is empty; the
# completion searches read only its first order.


def new_single_poset(n, gens=()):
    return new_double_poset(n, gens)


def crown_poset(n):
    """2n vertices x_1..x_n, y_1..y_n with x_i below y_i and y_{i+1 mod n}."""
    if n < 1:
        raise RangeError("crown size must be >= 1")
    gens = []
    for i in range(1, n + 1):
        gens.append((i, n + i))
        gens.append((i, n + (i % n) + 1))
    return new_single_poset(2 * n, gens)


# Plane posets as pairs of linear orders.  The union order "x <1 y or
# x <2 y" and the other order "x <1 y or y <2 x" are both total on a
# plane poset, x <1 y holds iff x precedes y in both, and x <2 y iff x
# precedes y in the union order only; any two linear orders on one
# vertex set arise this way from exactly one plane poset.


def _plane_from_ranks(rank2):
    """Plane poset with vertex i at position i of the union order and at
    rank rank2[i] of the other order; canonical as built."""
    n = len(rank2)
    up1, up2, dn1, dn2 = [0] * n, [0] * n, [0] * n, [0] * n
    for i in range(n):
        ri = rank2[i]
        bi = 1 << i
        for j in range(i + 1, n):
            if rank2[j] > ri:
                up1[i] |= 1 << j
                dn1[j] |= bi
            else:
                up2[i] |= 1 << j
                dn2[j] |= bi
    return DoublePoset(n, tuple(up1), tuple(up2), tuple(dn1), tuple(dn2))


def _plane_walk(before1, before2, after2):
    """Every pair of linear orders meeting per-vertex mask constraints.

    Vertices are placed in union order, each after all of before1[v],
    and inserted into the other order at every slot that puts the
    placed members of before2[v] ahead of it and the placed members of
    after2[v] behind it.  Yields (R, first): R the plane poset of the
    two orders, built by _plane_from_ranks, and first[i] the input
    vertex at position i of the union order.  The walk keeps an
    explicit stack, so its depth does not grow with the input.
    """
    n = len(before1)
    stack = [((), (), 0)]
    while stack:
        first, second, placed = stack.pop()
        if len(first) == n:
            rank = [0] * n
            for r, v in enumerate(second):
                rank[v] = r
            yield _plane_from_ranks([rank[v] for v in first]), first
            continue
        for v in range(n):
            if placed >> v & 1 or before1[v] & ~placed:
                continue
            need = before2[v] & placed
            avoid = after2[v]
            prefix = 0
            for slot in range(len(second) + 1):
                if prefix & avoid:
                    break
                if not need & ~prefix:
                    stack.append((
                        first + (v,),
                        second[:slot] + (v,) + second[slot:],
                        placed | 1 << v,
                    ))
                if slot < len(second):
                    prefix |= 1 << second[slot]


def plane_completions(q):
    """All plane double posets whose first order restricts to q's.

    Only the first order of q is read; its second order is ignored.  A
    completion is a pair of linear orders, both extending q, that
    disagree on every q-incomparable pair; the realizer walk yields
    them labeled, and the canonical results are deduplicated and
    returned sorted by key.  Twins (same up and down sets) are swapped
    by an automorphism of q, so the walk takes them in label order.
    """
    full = (1 << q.n) - 1
    sig = list(zip(q.up1, q.dn1))
    before1 = [d | sum(1 << u for u in range(v) if sig[u] == sig[v]) for v, d in enumerate(q.dn1)]
    found = {r for r, _ in _plane_walk(before1, q.dn1, [full ^ d for d in q.dn1])}
    return tuple(sorted(found, key=DoublePoset.identity_key))


@functools.lru_cache(maxsize=None)
def n_shape_completions():
    """The two forbidden plane posets over the 4-vertex zigzag.

    Computed once from the completion search rather than hard-coded,
    so no orientation convention can drift.
    """
    zig = new_single_poset(4, [(1, 3), (2, 3), (2, 4)])
    comps = plane_completions(zig)
    if len(comps) != 2:
        raise AssertionError(comps)
    return comps


@functools.lru_cache(maxsize=None)
def _forbidden_wn_keys():
    return frozenset(canonical_key(c) for c in n_shape_completions())


@functools.lru_cache(maxsize=None)
def _forbidden_forest_keys():
    lam = new_double_poset(3, [(1, 3), (2, 3)], [(1, 2)])
    return frozenset((canonical_key(lam),))


def _plane_avoiding(p, bad_keys, size):
    """Plane with no size-vertex induced subposet keyed in bad_keys."""
    return is_plane(p) and not any(
        canonical_key(induced_subposet(p, sub)) in bad_keys
        for sub in itertools.combinations(range(1, p.n + 1), size)
    )


def is_wn(p):
    """Plane with no 4-subset inducing either zigzag completion."""
    return _plane_avoiding(p, _forbidden_wn_keys(), 4)


def is_forest(p):
    """Plane with no 3-subset inducing two le2-ordered minima under a top."""
    return _plane_avoiding(p, _forbidden_forest_keys(), 3)


def wn_completions(q):
    """The WN members of plane_completions(q); q's second order is not read."""
    return tuple(c for c in plane_completions(q) if is_wn(c))
