import itertools

import pytest

from doubleposets import (
    EMPTY,
    CycleError,
    NotPlaneError,
    RangeError,
    automorphism_count,
    canonical_form,
    canonical_key,
    comparability_counts,
    connected_components,
    crown_poset,
    induced_subposet,
    involution,
    is_connected,
    is_forest,
    is_plane,
    is_wn,
    n_shape_completions,
    new_double_poset,
    new_single_poset,
    plane_completions,
    plane_total_order,
    relabel,
    wn_completions,
)
from doubleposets import fixtures
from doubleposets.checks import random_double_poset
from doubleposets.core import _plane_from_ranks
from doubleposets.enumeration import _single_poset_classes, enumerate_family


def test_closure_is_computed():
    p = new_double_poset(3, gen1=[(1, 2), (2, 3)])
    assert p.lt1(1, 3)
    assert p.strict_pairs(1) == ((1, 2), (1, 3), (2, 3))
    assert p.strict_pairs(2) == ()


def test_constructor_rejects_bad_input():
    with pytest.raises(CycleError):
        new_double_poset(2, gen1=[(1, 2), (2, 1)])
    with pytest.raises(RangeError):
        new_double_poset(2, gen2=[(1, 3)])
    with pytest.raises(RangeError):
        new_double_poset(-1)


def test_empty_poset():
    assert EMPTY.n == 0
    assert canonical_form(EMPTY)[0] == EMPTY
    assert not is_connected(EMPTY, 1)
    assert connected_components(EMPTY, 2) == []


def test_canonical_form_is_relabeling_invariant(rng):
    for _ in range(120):
        p = random_double_poset(rng, rng.randint(1, 6))
        perm = list(range(1, p.n + 1))
        rng.shuffle(perm)
        q = relabel(p, tuple(perm))
        assert canonical_key(p) == canonical_key(q)
        canon = canonical_form(p)[0]
        assert canonical_form(canon)[0] == canon


def test_canonical_forms_separate_isoclasses():
    seen = set()
    for p in enumerate_family("dp", 3):
        key = canonical_key(p)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 65


def test_involution_swaps_orders(rng):
    for _ in range(60):
        p = random_double_poset(rng, rng.randint(0, 5))
        q = involution(p)
        swapped = new_double_poset(p.n, p.strict_pairs(2), p.strict_pairs(1))
        assert canonical_key(q) == canonical_key(swapped)
        assert involution(q) == canonical_form(p)[0]
        x, y = comparability_counts(p)
        assert comparability_counts(q) == (y, x)


def _aut_bruteforce(p):
    return sum(
        1
        for perm in itertools.permutations(range(1, p.n + 1))
        if relabel(p, perm) == p
    )


def test_automorphism_count_against_bruteforce(rng):
    for p in enumerate_family("dp", 3):
        assert automorphism_count(p) == _aut_bruteforce(p)
    for _ in range(40):
        p = random_double_poset(rng, rng.randint(0, 5))
        assert automorphism_count(p) == _aut_bruteforce(p)


def test_connected_components_against_bfs(rng):
    for _ in range(60):
        p = random_double_poset(rng, rng.randint(1, 6))
        for which in (1, 2):
            pairs = p.strict_pairs(which)
            adj = {v: set() for v in range(1, p.n + 1)}
            for a, b in pairs:
                adj[a].add(b)
                adj[b].add(a)
            want = set()
            left = set(adj)
            while left:
                stack = [min(left)]
                comp = set()
                while stack:
                    v = stack.pop()
                    if v in comp:
                        continue
                    comp.add(v)
                    stack.extend(adj[v] - comp)
                left -= comp
                want.add(tuple(sorted(comp)))
            assert set(connected_components(p, which)) == want


def test_is_plane_matches_definition():
    for p in enumerate_family("dp", 3):
        pairs = itertools.combinations(range(1, 4), 2)
        want = all(
            (p.lt1(i, j) or p.lt1(j, i)) != (p.lt2(i, j) or p.lt2(j, i))
            for i, j in pairs
        )
        assert is_plane(p) == want


def test_plane_total_order():
    p = new_double_poset(3, gen1=[(1, 3), (2, 3)], gen2=[(1, 2)])
    assert plane_total_order(p) == (1, 2, 3)
    with pytest.raises(NotPlaneError):
        plane_total_order(new_double_poset(2))


def test_induced_subposet_renumbers():
    p = new_double_poset(4, gen1=[(1, 3), (3, 4)], gen2=[(1, 2)])
    q = induced_subposet(p, (1, 3, 4))
    assert q.n == 3
    assert q.strict_pairs(1) == ((1, 2), (1, 3), (2, 3))
    assert q.strict_pairs(2) == ()
    with pytest.raises(RangeError):
        induced_subposet(p, (0, 1))


def test_comparability_counts():
    p = new_double_poset(3, gen1=[(1, 3), (2, 3)], gen2=[(1, 2)])
    assert comparability_counts(p) == (2, 1)


def test_crown_poset():
    c = crown_poset(3)
    assert c.n == 6
    assert len(c.strict_pairs()) == 6
    with pytest.raises(RangeError):
        crown_poset(0)


def test_plane_completions_preserve_first_order():
    q = new_single_poset(3, [(1, 3), (2, 3)])
    comps = plane_completions(q)
    assert comps
    for p in comps:
        assert is_plane(p)
        # the first order of some labeling matches q up to iso
        assert comparability_counts(p)[0] == len(q.strict_pairs())


def _completions_oracle(q):
    """Canonical keys of every orientation of q's incomparable pairs
    that closes to a plane poset."""
    rel = set(q.strict_pairs())
    free = [
        (i, j)
        for i, j in itertools.combinations(range(1, q.n + 1), 2)
        if (i, j) not in rel and (j, i) not in rel
    ]
    keys = set()
    for flips in itertools.product((False, True), repeat=len(free)):
        gen2 = [(j, i) if f else (i, j) for (i, j), f in zip(free, flips)]
        try:
            p = new_double_poset(q.n, q.strict_pairs(), gen2)
        except CycleError:
            continue
        if is_plane(p):
            keys.add(canonical_key(p))
    return sorted(keys)


def test_plane_completions_match_orientation_oracle(rng):
    classes = [q for n in range(6) for q in _single_poset_classes(n)]
    assert len(classes) == 88
    for c in classes:
        perm = list(range(1, c.n + 1))
        rng.shuffle(perm)
        q = new_single_poset(
            c.n, [(perm[i - 1], perm[j - 1]) for i, j in c.strict_pairs()]
        )
        got = [canonical_key(p) for p in plane_completions(q)]
        assert got == _completions_oracle(q)


def _labelled_digraph(nx, p):
    """Vertices 1..n; an edge i -> j, labelled (i <1 j, i <2 j), per related pair."""
    g = nx.DiGraph()
    g.add_nodes_from(range(1, p.n + 1))
    for i, j in itertools.permutations(range(1, p.n + 1), 2):
        if p.lt1(i, j) or p.lt2(i, j):
            g.add_edge(i, j, kind=(p.lt1(i, j), p.lt2(i, j)))
    return g


def test_canonical_key_matches_networkx_isomorphism(rng):
    nx = pytest.importorskip("networkx")
    match = nx.algorithms.isomorphism.categorical_edge_match("kind", None)

    def isomorphic(p, q):
        return nx.is_isomorphic(
            _labelled_digraph(nx, p), _labelled_digraph(nx, q), edge_match=match
        )

    seen = set()
    for _ in range(200):
        n = rng.randint(0, 6)
        p = random_double_poset(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        q = relabel(p, tuple(perm))
        assert isomorphic(p, q)
        assert canonical_key(p) == canonical_key(q)
        r = random_double_poset(rng, n)
        iso = isomorphic(p, r)
        assert (canonical_key(p) == canonical_key(r)) == iso
        seen.add(iso)
    assert seen == {True, False}


def test_involution_table():
    table = fixtures.involution_table()
    assert len(table) == 17
    for a, b in table:
        assert involution(a) == b
        assert involution(b) == a


def test_n_shape_completions_are_an_involution_pair():
    a, b = n_shape_completions()
    assert a != b
    assert canonical_form(involution(a))[0] == b
    for p in (a, b):
        assert is_plane(p) and not is_wn(p)


def test_wn_detects_forbidden_subposet():
    bad = n_shape_completions()[0]
    grown = plane_completions(
        new_single_poset(5, [(1, 3), (2, 3), (2, 4)])
    )
    for p in grown:
        has_bad = any(
            canonical_key(induced_subposet(p, sub)) in
            {canonical_key(c) for c in n_shape_completions()}
            for sub in itertools.combinations(range(1, 6), 4)
        )
        assert is_wn(p) == (not has_bad)
    assert not is_wn(bad)


def test_forest_excludes_lambda():
    lam = new_double_poset(3, gen1=[(1, 3), (2, 3)], gen2=[(1, 2)])
    vee = involution(lam)
    assert not is_forest(lam)
    assert is_forest(vee)
    chain = new_double_poset(2, gen1=[(1, 2)])
    assert is_forest(chain)


def _contains_pattern(sigma, pattern):
    k = len(pattern)
    return any(
        all(
            (vals[a] < vals[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        )
        for vals in itertools.combinations(sigma, k)
    )


def test_wn_and_forest_are_pattern_classes():
    # With vertices in union order and sigma the ranks of the other
    # order, WN posets are the separable permutations (avoiding 2413
    # and 3142) and plane forests the 213-avoiders.
    for n in range(1, 7):
        for sigma in itertools.permutations(range(n)):
            p = _plane_from_ranks(sigma)
            separable = not (
                _contains_pattern(sigma, (1, 3, 0, 2))
                or _contains_pattern(sigma, (2, 0, 3, 1))
            )
            assert is_wn(p) == separable, sigma
            assert is_forest(p) == (not _contains_pattern(sigma, (1, 0, 2))), sigma


def test_wn_completions_filter():
    zig = new_single_poset(4, [(1, 3), (2, 3), (2, 4)])
    assert plane_completions(zig) == n_shape_completions()
    assert wn_completions(zig) == ()
