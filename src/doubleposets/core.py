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
    strict rows.
    """

    __slots__ = ("n", "up1", "up2", "dn1", "dn2", "_hash", "_canon")

    def __init__(self, n, up1, up2, dn1, dn2):
        self.n = n
        self.up1 = up1
        self.up2 = up2
        self.dn1 = dn1
        self.dn2 = dn2
        self._hash = hash((n, up1, up2))
        self._canon = None

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

    # 1-based pair queries (non-strict).
    def le1(self, i, j):
        return i == j or bool(self.up1[i - 1] >> (j - 1) & 1)

    def le2(self, i, j):
        return i == j or bool(self.up2[i - 1] >> (j - 1) & 1)

    def lt1(self, i, j):
        return bool(self.up1[i - 1] >> (j - 1) & 1)

    def lt2(self, i, j):
        return bool(self.up2[i - 1] >> (j - 1) & 1)

    def strict_pairs(self, which):
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

    def key(self):
        return canonical_form(self)[1]


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
    x = sum(m.bit_count() for m in p.up1)
    y = sum(m.bit_count() for m in p.up2)
    return x, y


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
    """Swap the two orders; returned in canonical form."""
    swapped = DoublePoset(p.n, p.up2, p.up1, p.dn2, p.dn1)
    return canonical_form(swapped)[0]


def _automorphisms(orders):
    """Yield every vertex permutation preserving each strict order.

    orders is a nonempty tuple of strict-closure row tuples on one
    vertex set; a permutation is yielded as the 0-based image tuple.
    Vertices only map to vertices with the same up/down degrees.
    """
    n = len(orders[0])
    downs = [_down_rows(n, rows) for rows in orders]
    profile = [
        tuple(
            (rows[v].bit_count(), dns[v].bit_count())
            for rows, dns in zip(orders, downs)
        )
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
    return sum(1 for _ in _automorphisms((p.up1, p.up2)))


# Single posets (one order), used by the completion searches.


class SinglePoset:
    """Immutable single partial order on 1..n, strict closure rows."""

    __slots__ = ("n", "up", "dn", "_hash")

    def __init__(self, n, up):
        self.n = n
        self.up = up
        self.dn = tuple(_down_rows(n, up))
        self._hash = hash((n, up))

    def __eq__(self, other):
        if not isinstance(other, SinglePoset):
            return NotImplemented
        return self.n == other.n and self.up == other.up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<SinglePoset n={self.n} le={self.strict_pairs()}>"

    def strict_pairs(self):
        return tuple(
            (i + 1, j + 1) for i in range(self.n) for j in _bits(self.up[i])
        )

    def identity_key(self):
        return (self.n, self.strict_pairs())


def new_single_poset(n, gens=()):
    if n < 0:
        raise RangeError(f"negative size {n}")
    return SinglePoset(n, tuple(_closed_strict_rows(n, gens)))


def crown_poset(n):
    """2n vertices x_1..x_n, y_1..y_n with x_i below y_i and y_{i+1 mod n}."""
    if n < 1:
        raise RangeError("crown size must be >= 1")
    gens = []
    for i in range(1, n + 1):
        gens.append((i, n + i))
        gens.append((i, n + (i % n) + 1))
    return new_single_poset(2 * n, gens)


# Incremental strict-order edge insertion with closure, shared by the
# completion and extension searches.  rows/dns are mutable lists.


def _add_closed_edge(rows, dns, a, b):
    """Insert a < b and close transitively; False if b <= a already."""
    if a == b or dns[a] >> b & 1:
        return False
    if rows[a] >> b & 1:
        return True
    up_b = rows[b] | (1 << b)
    dn_a = dns[a] | (1 << a)
    for x in _bits(dn_a):
        rows[x] |= up_b
    for y in _bits(up_b):
        dns[y] |= dn_a
    return True


def plane_completions(q):
    """All plane double posets whose first order restricts to q.

    Each le2 orienting the le1-incomparable pairs is searched with
    incremental closure; results are deduplicated as canonical forms
    and returned sorted by key.
    """
    n = q.n
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (q.up[i] >> j & 1 or q.up[j] >> i & 1)
    ]
    comp1 = [q.up[i] | q.dn[i] for i in range(n)]
    found = {}

    def ok(rows2, dns2):
        # The second order may never meet the first.
        return all((rows2[i] | dns2[i]) & comp1[i] == 0 for i in range(n))

    def dfs(idx, rows2, dns2):
        if idx == len(pairs):
            p = DoublePoset._from_rows(n, list(q.up), rows2)
            if is_plane(p):
                canon, key = canonical_form(p)
                found[key] = canon
            return
        a, b = pairs[idx]
        if rows2[a] >> b & 1 or rows2[b] >> a & 1:
            dfs(idx + 1, rows2, dns2)
            return
        for x, y in ((a, b), (b, a)):
            r2, d2 = rows2.copy(), dns2.copy()
            if _add_closed_edge(r2, d2, x, y) and ok(r2, d2):
                dfs(idx + 1, r2, d2)

    dfs(0, [0] * n, [0] * n)
    return tuple(found[k] for k in sorted(found))


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
    """The WN members of plane_completions(q)."""
    return tuple(c for c in plane_completions(q) if is_wn(c))
