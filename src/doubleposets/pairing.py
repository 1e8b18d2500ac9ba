"""Picture counting and the bilinear pairing it defines.

A picture P -> Q is a bijection sigma with i <1 j in P implying
sigma(i) <2 sigma(j) in Q, and sigma(i) <1 sigma(j) in Q implying
i <2 j in P.  The count is a symmetric pairing; against the
order-swapped poset it counts automorphisms, and an (X, Y)-graded
order makes the matrix triangular, which is how non-degeneracy is
certified for large bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from math import gcd

from .core import (
    BasisNotIotaClosedError,
    SizeMismatchError,
    canonical_key,
    comparability_counts,
    involution,
    _bits,
)


def pictures_count(p, q):
    """Number of pictures from p to q; 0 when sizes differ.

    Backtracking over the vertices of p in a linear extension of its
    first order; every partial assignment is checked against both
    defining implications, restricted to the pairs it completes.  A
    picture maps v's first-order up- and down-sets injectively into
    the second-order ones of its image w, and pulls w's first-order
    sets back into v's second-order ones, so only images passing that
    degree test are tried.  A picture also maps the X strict first-order
    pairs of p injectively onto second-order pairs of q and pulls q's
    first-order pairs back onto second-order pairs of p, so the count is
    0 at once unless X_p <= Y_q and X_q <= Y_p.
    """
    n = p.n
    if q.n != n:
        return 0
    xp, yp = comparability_counts(p)
    xq, yq = comparability_counts(q)
    if xp > yq or xq > yp:
        return 0
    if n == 0:
        return 1
    order = sorted(range(n), key=lambda v: p.dn1[v].bit_count())
    up1p, up2p, dn1p, dn2p = p.up1, p.up2, p.dn1, p.dn2
    up1q, up2q, dn1q, dn2q = q.up1, q.up2, q.dn1, q.dn2
    image = [0] * n
    count = 0
    u1p, d1p, u2p, d2p, u1q, d1q, u2q, d2q = (
        [m.bit_count() for m in rows]
        for rows in (up1p, dn1p, up2p, dn2p, up1q, dn1q, up2q, dn2q)
    )
    allowed = [
        sum(
            1 << w
            for w in range(n)
            if u1p[v] <= u2q[w] and d1p[v] <= d2q[w]
            and u1q[w] <= u2p[v] and d1q[w] <= d2p[v]
        )
        for v in range(n)
    ]

    def dfs(k, usedq):
        nonlocal count
        v = order[k]
        # Images of the already-assigned parts of v's down/up sets.
        need_below = 0   # images of {u : u <1 v}; all assigned already
        have_r_dn = 0    # images of assigned {u : u <2 v}
        have_r_up = 0    # images of assigned {u : v <2 u}
        for i in range(k):
            u = order[i]
            w = image[u]
            if dn1p[v] >> u & 1:
                need_below |= 1 << w
            if dn2p[v] >> u & 1:
                have_r_dn |= 1 << w
            if up2p[v] >> u & 1:
                have_r_up |= 1 << w
        for w in _bits(allowed[v] & ~usedq):
            bw = 1 << w
            if need_below & ~dn2q[w]:
                continue
            if usedq & dn1q[w] & ~have_r_dn:
                continue
            if usedq & up1q[w] & ~have_r_up:
                continue
            if k + 1 == n:
                count += 1
            else:
                image[v] = w
                dfs(k + 1, usedq | bw)
        return

    dfs(0, 0)
    return count


def pictures_count_bruteforce(p, q):
    """Oracle: iterate all bijections and test the definition verbatim."""
    n = p.n
    if q.n != n:
        return 0
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if p.up1[i] >> j & 1 and not (q.up2[perm[i]] >> perm[j] & 1):
                    ok = False
                    break
                if q.up1[perm[i]] >> perm[j] & 1 and not (p.up2[i] >> j & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _check_same_size(basis):
    basis = tuple(basis)
    if basis and any(p.n != basis[0].n for p in basis):
        raise SizeMismatchError("basis posets must share one size")
    return basis


@dataclass(frozen=True)
class PairingMatrix:
    basis: tuple
    entries: tuple


def pairing_matrix(basis):
    """Gram matrix of the picture pairing on one basis.

    The pairing is symmetric (a picture's inverse is a picture the
    other way), so only the entries with j >= i are counted and the
    lower triangle mirrors them.
    """
    basis = _check_same_size(basis)
    size = len(basis)
    rows = [[0] * size for _ in range(size)]
    for i, p in enumerate(basis):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = pictures_count(p, basis[j])
    return PairingMatrix(basis=basis, entries=tuple(map(tuple, rows)))


def xy_order(basis):
    """Reorder so that smaller X with larger Y sorts later.

    Refines the partial order of the triangularity lemma: whenever
    X_P <= X_Q and Y_P >= Y_Q with (X, Y) distinct, P lands after Q.
    The key Y - X realizes this; canonical keys break ties.
    """
    basis = _check_same_size(basis)

    def key(p):
        x, y = comparability_counts(p)
        return (y - x, canonical_key(p))

    return tuple(sorted(basis, key=key))


def integer_matrix_rank(rows):
    """Exact rank by fraction-free (Bareiss) elimination.

    Accepts int or Fraction entries; rows are scaled to integers first
    (rank is unchanged).
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    for r in m:
        dens = [
            x.denominator for x in r if isinstance(x, Fraction) and x.denominator != 1
        ]
        if dens:
            scale = 1
            for d in dens:
                scale = scale * d // gcd(scale, d)
            for i, x in enumerate(r):
                r[i] = int(x * scale)
        else:
            for i, x in enumerate(r):
                r[i] = int(x)
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            mi, mr = m[i], m[rank]
            f = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (mi[j] * pivot - f * mr[j]) // prev
            mi[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class NondegeneracyReport:
    full_rank: bool
    rank: int
    size: int
    method: str


_ELIMINATION_LIMIT = 128


def nondegeneracy_check(basis):
    """Exact rank of the pairing on a basis closed under the involution.

    Small bases get fraction-free elimination.  Larger ones are
    certified through the triangularity lemma: rows in xy order against
    the involution images of the same list give a lower-triangular
    matrix whose diagonal counts automorphisms; a positive diagonal is
    an exact full-rank certificate.
    """
    basis = _check_same_size(basis)
    keys = {canonical_key(p) for p in basis}
    for p in basis:
        if canonical_key(involution(p)) not in keys:
            raise BasisNotIotaClosedError(
                f"involution image of {p!r} missing from basis"
            )
    size = len(basis)
    if size == 0:
        return NondegeneracyReport(True, 0, 0, "empty")
    if size <= _ELIMINATION_LIMIT:
        rank = integer_matrix_rank(pairing_matrix(basis).entries)
        return NondegeneracyReport(rank == size, rank, size, "elimination")
    rows = xy_order(basis)
    cols = [involution(p) for p in rows]
    ok = True
    for i, p in enumerate(rows):
        if pictures_count(p, cols[i]) <= 0:
            ok = False
            break
        for j in range(i + 1, size):
            if pictures_count(p, cols[j]) != 0:
                ok = False
                break
        if not ok:
            break
    rank = size if ok else integer_matrix_rank(pairing_matrix(basis).entries)
    return NondegeneracyReport(rank == size, rank, size, "triangular")
