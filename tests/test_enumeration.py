import itertools
import math

import pytest

from doubleposets import (
    BudgetExceededError,
    PosetFamily,
    automorphism_count,
    canonical_key,
    catalan_numbers,
    count_family,
    is_connected,
    is_forest,
    is_plane,
    is_wn,
    schroeder_coefficients,
    sequence_check,
)
from doubleposets.enumeration import (
    BUDGETS,
    _single_poset_classes,
    enumerate_family,
    wnp_reference_counts,
)


def test_family_counts_small():
    assert [count_family("dp", n) for n in range(4)] == [1, 1, 5, 65]
    assert [count_family("pp", n) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]
    assert [count_family("wn", n) for n in range(6)] == [1, 1, 2, 6, 22, 90]
    assert [count_family("pf", n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [count_family("wnh", n) for n in range(6)] == [0, 1, 1, 3, 11, 45]
    assert [count_family("wnr", n) for n in range(6)] == [0, 1, 1, 3, 11, 45]


def test_single_poset_classes_count_labeled_posets():
    # OEIS A000112 (unlabeled posets) and A001035 (labeled posets): the
    # orbit sizes n!/|Aut| add up to the labeled count only if every
    # class appears exactly once.  The check uses no canonical form.
    unlabeled = [1, 1, 2, 5, 16, 63, 318]
    labeled = [1, 1, 3, 19, 219, 4231, 130023]
    for n in range(7):
        classes = _single_poset_classes(n)
        assert len(classes) == unlabeled[n]
        orbits = [math.factorial(n) // automorphism_count(q) for q in classes]
        assert sum(orbits) == labeled[n]


def _labeled_posets(n):
    """Every strict partial order on range(n) as a frozenset of pairs,
    by brute force over all subsets of the ordered pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {pair for k, pair in enumerate(pairs) if mask >> k & 1}
        if all((j, i) not in rel for i, j in rel) and all(
            (i, l) in rel for i, j in rel for k, l in rel if j == k
        ):
            out.append(frozenset(rel))
    return out


def test_dp_counts_by_burnside():
    # A labeled double poset is a pair of labeled posets, so a vertex
    # permutation fixing fix(s) posets fixes fix(s)**2 double posets,
    # and Burnside's lemma counts the isoclasses with no canonical form.
    for n, want in enumerate([1, 1, 5, 65, 2098]):
        posets = _labeled_posets(n)
        total = 0
        for perm in itertools.permutations(range(n)):
            fixed = sum(
                1 for rel in posets if {(perm[i], perm[j]) for i, j in rel} == rel
            )
            total += fixed**2
        assert total % math.factorial(n) == 0
        assert count_family("dp", n) == total // math.factorial(n) == want


def test_enumeration_is_canonical_sorted_unique():
    for fam in ("dp", "pp", "wn", "wnh", "wnr", "pf"):
        for n in range(4):
            basis = enumerate_family(fam, n)
            keys = [canonical_key(p) for p in basis]
            assert len(set(keys)) == len(keys)
            assert all(p.canonical() == p for p in basis)
            ids = [p.identity_key() for p in basis]
            assert ids == sorted(ids)


def test_family_membership_predicates():
    for p in enumerate_family("pp", 4):
        assert is_plane(p)
    for p in enumerate_family("wn", 4):
        assert is_wn(p)
    for p in enumerate_family("pf", 5):
        assert is_forest(p)
    for p in enumerate_family("wnh", 4):
        assert is_wn(p) and is_connected(p, 1)
    for p in enumerate_family("wnr", 4):
        assert is_wn(p) and is_connected(p, 2)


def test_family_inclusions():
    plane = {canonical_key(p) for p in enumerate_family("pp", 4)}
    wn = {canonical_key(p) for p in enumerate_family("wn", 4)}
    forests = {canonical_key(p) for p in enumerate_family("pf", 4)}
    assert forests < wn < plane


def test_wn_splits_into_h_and_r_connected():
    for n in range(2, 6):
        wn = {canonical_key(p) for p in enumerate_family("wn", n)}
        h = {canonical_key(p) for p in enumerate_family("wnh", n)}
        r = {canonical_key(p) for p in enumerate_family("wnr", n)}
        assert h | r == wn
        assert not h & r


def test_schroeder_and_catalan_values():
    assert schroeder_coefficients(7) == [0, 1, 1, 3, 11, 45, 197, 903]
    assert catalan_numbers(7) == [1, 1, 2, 5, 14, 42, 132, 429]
    assert wnp_reference_counts(7) == [1, 1, 2, 6, 22, 90, 394, 1806]


def test_budget_guards():
    for fam, cap in BUDGETS.items():
        with pytest.raises(BudgetExceededError):
            enumerate_family(fam, cap + 1)
    with pytest.raises(BudgetExceededError):
        enumerate_family("pp", -1)
    with pytest.raises(BudgetExceededError):
        schroeder_coefficients(-1)
    with pytest.raises(BudgetExceededError):
        catalan_numbers(-2)


def test_family_coercion():
    assert enumerate_family(PosetFamily.PP, 2) == enumerate_family("pp", 2)
    with pytest.raises(ValueError):
        enumerate_family("nope", 1)


def test_sequence_check_reports():
    for fam, max_n in (("pp", 5), ("wn", 5), ("wnh", 5), ("pf", 7)):
        rep = sequence_check(fam, max_n)
        assert rep.ok
        assert len(rep.rows) == max_n + 1
        assert all(counted == expected for _, counted, expected in rep.rows)
    with pytest.raises(ValueError):
        sequence_check("dp", 3)
