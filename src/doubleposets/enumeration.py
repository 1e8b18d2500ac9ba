"""Exhaustive generation of isoclasses by size, plus counting oracles.

Plane posets are generated incrementally: a canonical (n-1)-class is
a pair of linear orders with the union order as labeled, and a new
top of the union order is inserted at each of the n slots of the other
order (the old vertices ahead of it there sit below it in the first
order, the rest below it in the second).  The result is canonical as
built, so no relabeling pass is needed.  Unlabeled single posets grow
one new maximal vertex at a time too, put above the complement of
each up-set of a smaller class, and are canonicalized to drop repeats.
General double posets pair a canonical single poset with a second
order, drawn from the relabelings of every single class and taken up
to the first's automorphisms, then get canonicalized.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

from .core import (
    EMPTY,
    BudgetExceededError,
    DoublePoset,
    canonical_form,
    canonical_key,
    induced_subposet,
    is_connected,
    _automorphisms,
    _forbidden_forest_keys,
    _forbidden_wn_keys,
    _permute_rows,
    _plane_from_ranks,
    _upset_masks,
)


class PosetFamily(enum.Enum):
    DP = "dp"
    PP = "pp"
    WNP = "wn"
    WNP_H = "wnh"
    WNP_R = "wnr"
    PF = "pf"


BUDGETS = {
    PosetFamily.DP: 5,
    PosetFamily.PP: 7,
    PosetFamily.WNP: 7,
    PosetFamily.WNP_H: 7,
    PosetFamily.WNP_R: 7,
    PosetFamily.PF: 9,
}


def _check_budget(family, n):
    if n < 0:
        raise BudgetExceededError(f"negative size {n}")
    if n > BUDGETS[family]:
        raise BudgetExceededError(
            f"{family.value} enumeration capped at n={BUDGETS[family]}, got {n}"
        )


def _plane_extensions(p):
    """All one-vertex extensions of a canonical plane poset.

    The new vertex is the top of the union order and takes rank k of
    the other order, for k = 0..n; each extension is canonical as built.
    """
    n = p.n
    rank2 = [(p.dn1[v] | p.up2[v]).bit_count() for v in range(n)]
    return [
        _plane_from_ranks([r + (r >= k) for r in rank2] + [k])
        for k in range(n + 1)
    ]


def _new_vertex_avoids(p, bad_keys, subset_size):
    """No induced subposet of given size containing the new top vertex
    has a canonical key in bad_keys."""
    n = p.n
    if n < subset_size:
        return True
    for rest in itertools.combinations(range(1, n), subset_size - 1):
        sub = induced_subposet(p, rest + (n,))
        if canonical_key(sub) in bad_keys:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _plane_classes(n):
    if n == 0:
        return (EMPTY,)
    out = []
    for p in _plane_classes(n - 1):
        out.extend(_plane_extensions(p))
    out.sort(key=lambda p: p.identity_key())
    return tuple(out)


def _avoiding_extensions(smaller, bad_keys, subset_size):
    """Key-sorted extensions of the smaller classes avoiding bad_keys.

    Every class of size n-1 already avoids them, so only subsets
    through the new top vertex need a look.
    """
    out = [
        q
        for p in smaller
        for q in _plane_extensions(p)
        if _new_vertex_avoids(q, bad_keys, subset_size)
    ]
    out.sort(key=lambda p: p.identity_key())
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _wn_classes(n):
    if n == 0:
        return (EMPTY,)
    return _avoiding_extensions(_wn_classes(n - 1), _forbidden_wn_keys(), 4)


@functools.lru_cache(maxsize=None)
def _forest_classes(n):
    if n == 0:
        return (EMPTY,)
    return _avoiding_extensions(
        _forest_classes(n - 1), _forbidden_forest_keys(), 3
    )


@functools.lru_cache(maxsize=None)
def _single_poset_classes(n):
    """Canonical unlabeled posets on n vertices, second order empty.

    Each (n-1)-class gains a new vertex above exactly the vertices
    outside one of its up-sets.  Deleting a maximal vertex of any poset
    leaves a smaller one, so every class is reached.
    """
    if n == 0:
        return (EMPTY,)
    top = 1 << (n - 1)
    seen = {}
    for p in _single_poset_classes(n - 1):
        for up in _upset_masks(p):
            ext = [r if up >> v & 1 else r | top for v, r in enumerate(p.up1)]
            canon, key = canonical_form(
                DoublePoset._from_rows(n, ext + [0], [0] * n)
            )
            seen.setdefault(key, canon)
    return tuple(seen[k] for k in sorted(seen))


@functools.lru_cache(maxsize=None)
def _dp_classes(n):
    # Every labeled single order is a relabeling of one class.
    labeled = {
        _permute_rows(q.up1, perm)
        for q in _single_poset_classes(n)
        for perm in itertools.permutations(range(n))
    }
    out = []
    seen = set()
    for q in _single_poset_classes(n):
        auts = list(_automorphisms(q))
        orbit_seen = set()
        for rows2 in labeled:
            rep = min(_permute_rows(rows2, perm) for perm in auts)
            if rep in orbit_seen:
                continue
            orbit_seen.add(rep)
            p = DoublePoset._from_rows(n, q.up1, rep)
            canon, key = canonical_form(p)
            if key in seen:
                raise AssertionError("duplicate isoclass from orbit transversal")
            seen.add(key)
            out.append(canon)
    out.sort(key=lambda p: p.identity_key())
    return tuple(out)


def enumerate_family(family, n):
    """Every isoclass of the family at size n, canonical, key-sorted."""
    family = PosetFamily(family)
    _check_budget(family, n)
    if family is PosetFamily.DP:
        return _dp_classes(n)
    if family is PosetFamily.PP:
        return _plane_classes(n)
    if family is PosetFamily.WNP:
        return _wn_classes(n)
    if family is PosetFamily.WNP_H:
        return tuple(p for p in _wn_classes(n) if is_connected(p, 1))
    if family is PosetFamily.WNP_R:
        return tuple(p for p in _wn_classes(n) if is_connected(p, 2))
    if family is PosetFamily.PF:
        return _forest_classes(n)
    raise AssertionError(family)


def count_family(family, n):
    return len(enumerate_family(family, n))


def schroeder_coefficients(n):
    """Coefficients 0..n of the h-connected WN series, by recurrence.

    (k+1) S_{k+1} = 3 (2k-1) S_k - (k-2) S_{k-1}, S_1 = S_2 = 1; the
    constant term is 0.  Exactness of the integer division is checked.
    """
    if n < 0:
        raise BudgetExceededError(f"negative size {n}")
    coeffs = [0, 1, 1]
    for k in range(2, n):
        s_k = coeffs[k]
        s_km1 = coeffs[k - 1]
        num = 3 * (2 * k - 1) * s_k - (k - 2) * s_km1
        if num % (k + 1):
            raise AssertionError("recurrence left a remainder")
        coeffs.append(num // (k + 1))
    return coeffs[: n + 1]


def catalan_numbers(n):
    """Catalan numbers C_0..C_n by the convolution recurrence."""
    if n < 0:
        raise BudgetExceededError(f"negative size {n}")
    cats = [1]
    for k in range(n):
        cats.append(sum(cats[i] * cats[k - i] for i in range(k + 1)))
    return cats


def wnp_reference_counts(n):
    """Expected WNP counts 0..n: 1, 1, then twice the Schroeder numbers."""
    s = schroeder_coefficients(n)
    out = []
    for k in range(n + 1):
        if k == 0 or k == 1:
            out.append(1)
        else:
            out.append(2 * s[k])
    return out


def _expected_counts(family, max_n):
    if family is PosetFamily.PP:
        out = [1]
        for k in range(1, max_n + 1):
            out.append(out[-1] * k)
        return out
    if family is PosetFamily.WNP:
        return wnp_reference_counts(max_n)
    if family in (PosetFamily.WNP_H, PosetFamily.WNP_R):
        s = schroeder_coefficients(max_n)
        return [0] + s[1 : max_n + 1]
    if family is PosetFamily.PF:
        return catalan_numbers(max_n)
    raise ValueError(f"no reference sequence for {family.value}")


@dataclass(frozen=True)
class SequenceReport:
    family: PosetFamily
    rows: tuple  # (n, counted, expected)
    ok: bool


def sequence_check(family, max_n):
    """Compare enumeration counts with the independent counting oracles."""
    family = PosetFamily(family)
    _check_budget(family, max_n)
    expected = _expected_counts(family, max_n)
    rows = []
    ok = True
    for n in range(max_n + 1):
        counted = count_family(family, n)
        rows.append((n, counted, expected[n]))
        if counted != expected[n]:
            ok = False
    return SequenceReport(family=family, rows=tuple(rows), ok=ok)
