"""Benchmark-side input generators and brute-force oracles.

Nothing here imports the library: relations are plain sets of 1-based
strict pairs, so every check written against these helpers follows a
route that shares no code with the package under test.
"""

from __future__ import annotations

import itertools


def closure(n, pairs):
    """Strict transitive closure of generator pairs on 1..n."""
    rel = {(a, b) for a, b in pairs if a != b}
    for k in range(1, n + 1):
        below = [a for a in range(1, n + 1) if (a, k) in rel]
        above = [b for b in range(1, n + 1) if (k, b) in rel]
        rel.update((a, b) for a in below for b in above)
    return rel


def poset_text(n, h, r):
    """Grammar text of a double poset from generator pairs."""
    hs = ",".join(f"({a},{b})" for a, b in sorted(h))
    rs = ",".join(f"({a},{b})" for a, b in sorted(r))
    return f"dp {n} h{{{hs}}} r{{{rs}}}"


def indexed_text(n, h, r, labels):
    labs = ",".join(f"{v}:{lab}" for v, lab in enumerate(labels, start=1))
    return f"idp {poset_text(n, h, r)} lab{{{labs}}}"


def relabeled(n, h, r, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    move = {v: perm[v - 1] for v in range(1, n + 1)}
    return ({(move[a], move[b]) for a, b in h}, {(move[a], move[b]) for a, b in r})


def random_dp(rng, n, density=0.35):
    """Random double poset as (n, closed h, closed r), randomly labeled."""
    h = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < density]
    r = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < density]
    h, r = relabeled(n, closure(n, h), closure(n, r), rng)
    return n, h, r


def plane_from_permutation(sigma):
    """Plane poset of a permutation: i < j is an h-pair when sigma rises, else r."""
    n = len(sigma)
    h, r = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            (h if sigma[i] < sigma[j] else r).add((i + 1, j + 1))
    return n, h, r


def random_plane(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return plane_from_permutation(sigma)


def random_separable(rng, n):
    """Random separable permutation of 0..n-1 (direct and skew sums)."""
    if n <= 1:
        return list(range(n))
    k = rng.randint(1, n - 1)
    a, b = random_separable(rng, k), random_separable(rng, n - k)
    if rng.random() < 0.5:
        return a + [x + k for x in b]
    return [x + n - k for x in a] + b


def random_wn(rng, n):
    """Random WN poset: separable permutations give the N-free plane posets."""
    return plane_from_permutation(random_separable(rng, n))


def chains_dp(rng, lengths, density=0.35):
    """Random double poset whose first order is a disjoint union of chains."""
    n, h, start = sum(lengths), set(), 0
    for length in lengths:
        h |= {(start + a, start + b) for a in range(1, length + 1) for b in range(a + 1, length + 1)}
        start += length
    # Second-order generators avoid the pairs the first order relates.
    r = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
         if (a, b) not in h and rng.random() < density]
    h, r = relabeled(n, h, closure(n, r), rng)
    return n, h, r


def compose(parts, op):
    """Disjoint union of (n, h, r) parts with the cross relation of g or h."""
    n, h, r = 0, set(), set()
    for m, ph, pr in parts:
        cross = {(a, n + b) for a in range(1, n + 1) for b in range(1, m + 1)}
        h |= {(a + n, b + n) for a, b in ph}
        r |= {(a + n, b + n) for a, b in pr}
        (r if op == "g" else h).update(cross)
        n += m
    return n, h, r


def is_plane(n, h, r):
    return all(
        ((a, b) in h) + ((b, a) in h) + ((a, b) in r) + ((b, a) in r) == 1
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    )


def has_induced_n(n, rel):
    """Some four points carry exactly the zigzag a<c, b<c, b<d."""
    profile = {(1, 0), (2, 0), (0, 2), (0, 1)}
    for quad in itertools.combinations(range(1, n + 1), 4):
        inside = [(a, b) for a in quad for b in quad if (a, b) in rel]
        if len(inside) != 3:
            continue
        deg = {v: [0, 0] for v in quad}
        for a, b in inside:
            deg[a][0] += 1
            deg[b][1] += 1
        if {tuple(d) for d in deg.values()} == profile:
            return True
    return False


def is_wn(n, h, r):
    return is_plane(n, h, r) and not has_induced_n(n, h)


def is_forest(n, h, r):
    """Plane, and every h-down-set is an h-chain."""
    if not is_plane(n, h, r):
        return False
    for z in range(1, n + 1):
        below = [a for a in range(1, n + 1) if (a, z) in h]
        for a, b in itertools.combinations(below, 2):
            if (a, b) not in h and (b, a) not in h:
                return False
    return True


def is_connected(n, rel):
    if n == 0:
        return False
    seen, todo = {1}, [1]
    while todo:
        v = todo.pop()
        for w in range(1, n + 1):
            if w not in seen and ((v, w) in rel or (w, v) in rel):
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def count_upsets(n, h):
    """Number of vertex subsets closed upward in h."""
    count = 0
    for mask in range(1 << n):
        inside = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
        if all(b in inside for a, b in h if a in inside):
            count += 1
    return count


def count_splits(n, h, r, op):
    """Ordered splits (A, B), both nonempty, with A before B as a product."""
    cross, other = (r, h) if op == "g" else (h, r)
    count = 0
    for mask in range(1, (1 << n) - 1):
        a_side = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        b_side = [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]
        if all(
            (a, b) in cross and (a, b) not in other and (b, a) not in other
            for a in a_side
            for b in b_side
        ):
            count += 1
    return count


def hasse_cover_count(n, h):
    return sum(
        1
        for a, b in h
        if not any((a, c) in h and (c, b) in h for c in range(1, n + 1))
    )


def is_transitive(rel):
    return all((a, d) in rel for a, b in rel for c, d in rel if b == c)


def cross_extensions(p, q):
    """Every plane refinement of p beside q that keeps q an h-up-set.

    Each cross pair (x in p, y in q) takes one of x <h y, x <r y,
    y <r x; an assignment is kept when both relations stay transitive.
    """
    (m, ph, pr), (k, qh, qr) = p, q
    n = m + k
    base_h = set(ph) | {(a + m, b + m) for a, b in qh}
    base_r = set(pr) | {(a + m, b + m) for a, b in qr}
    pairs = [(x, y + m) for x in range(1, m + 1) for y in range(1, k + 1)]
    out = []
    for choice in itertools.product(range(3), repeat=len(pairs)):
        h, r = set(base_h), set(base_r)
        for (x, y), c in zip(pairs, choice):
            if c == 0:
                h.add((x, y))
            elif c == 1:
                r.add((x, y))
            else:
                r.add((y, x))
        if is_transitive(h) and is_transitive(r):
            out.append((n, h, r))
    return out
