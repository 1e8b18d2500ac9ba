from fractions import Fraction

import pytest

from doubleposets import (
    EMPTY,
    EmptyInputError,
    LinComb,
    TensorComb,
    canonical_form,
    compose_g,
    coproduct,
    deconcat_coproduct_g,
    extend_bilinear,
    ideals,
    induced_subposet,
    new_double_poset,
    reduced_coproduct,
)
from doubleposets.checks import random_double_poset
from doubleposets.enumeration import enumerate_family

O = new_double_poset(1)
HC2 = new_double_poset(2, gen1=[(1, 2)])
RC2 = new_double_poset(2, gen2=[(1, 2)])


def test_lincomb_drops_zero_coefficients():
    x = LinComb({O: Fraction(1, 2), HC2: 0})
    assert x.support() == {O}
    assert (x - x).is_zero()
    assert LinComb.zero() == LinComb()


def test_lincomb_arithmetic():
    x = LinComb.term(O, 2) + LinComb.term(HC2, -1)
    y = 3 * x
    assert y.coefficient(O) == 6
    assert y.coefficient(HC2) == -3
    assert (-y + y).is_zero()
    assert y - x == 2 * x
    assert x * Fraction(1, 2) == LinComb({O: 1, HC2: Fraction(-1, 2)})


def test_lincomb_map_and_filter():
    x = LinComb({O: 1, HC2: 2})
    doubled = x.map_keys(lambda k: LinComb.term(k, 2))
    assert doubled == 2 * x
    # key -> key images merge coefficients
    folded = x.map_keys(lambda k: O)
    assert folded == LinComb.term(O, 3)
    assert x.filter_keys(lambda k: k.n == 2) == LinComb.term(HC2, 2)


def test_extend_bilinear_matches_termwise_product():
    f = extend_bilinear(compose_g)
    x = LinComb({O: 2, HC2: 1})
    y = LinComb({O: Fraction(1, 3)})
    out = f(x, y)
    assert out.coefficient(compose_g(O, O)) == Fraction(2, 3)
    assert out.coefficient(compose_g(HC2, O)) == Fraction(1, 3)
    assert len(out) == 2


def test_tensorcomb_componentwise_and_map_pairs():
    t = TensorComb.term(O, HC2, 2) + TensorComb.term(HC2, O, -1)
    u = TensorComb.term(O, O)
    assert LinComb.zero() != TensorComb.zero()
    assert LinComb.term((O, O)) != u
    for result in (t + u, t - u, -t, 3 * t, t * Fraction(1, 2), u.filter_keys(bool)):
        assert type(result) is TensorComb
    assert t.terms() == (((O, HC2), 2), ((HC2, O), -1))
    with pytest.raises(TypeError):
        t + LinComb.term(O)
    prod = t.componentwise(compose_g, u)
    assert prod.coefficient(compose_g(O, O), compose_g(HC2, O)) == 2
    assert prod.coefficient(compose_g(HC2, O), compose_g(O, O)) == -1
    collapsed = t.map_pairs(compose_g)
    assert collapsed == LinComb.term(compose_g(O, HC2), 2) + LinComb.term(
        compose_g(HC2, O), -1
    )


def _upsets_bruteforce(p):
    """Every vertex subset closed upward in the first order."""
    out = []
    verts = list(range(1, p.n + 1))
    for mask in range(1 << p.n):
        s = {v for v in verts if (mask >> (v - 1)) & 1}
        if all(w in s for v in s for w in verts if p.lt1(v, w)):
            out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_ideals_match_subset_scan(rng):
    pool = [p for n in range(4) for p in enumerate_family("dp", n)]
    pool += [random_double_poset(rng, 5) for _ in range(10)]
    for p in pool:
        assert list(ideals(p)) == _upsets_bruteforce(p)


def test_coproduct_grading_and_trivial_terms(rng):
    for _ in range(25):
        p = canonical_form(random_double_poset(rng, rng.randint(0, 5)))[0]
        d = coproduct(p)
        assert all(a.n + b.n == p.n for (a, b), _ in d.terms())
        assert d.coefficient(p, EMPTY) >= 1
        assert d.coefficient(EMPTY, p) >= 1
        # counit on either side returns the poset itself
        left = sum(c for (a, b), c in d.terms() if a == EMPTY and b == p)
        right = sum(c for (a, b), c in d.terms() if b == EMPTY and a == p)
        if p.n:
            assert left == right == 1
        # total mass counts the up-closed subsets
        assert sum(c for _, c in d.terms()) == len(ideals(p))


def _triple(p, side):
    out = {}
    for (a, b), c1 in coproduct(p).terms():
        inner = coproduct(a if side == "left" else b)
        for (x, y), c2 in inner.terms():
            key = (x, y, b) if side == "left" else (a, x, y)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def test_coproduct_coassociative(rng):
    pool = list(enumerate_family("pp", 3))
    pool += [
        canonical_form(random_double_poset(rng, 4))[0] for _ in range(12)
    ]
    for p in pool:
        assert _triple(p, "left") == _triple(p, "right")


def test_coproduct_multiplicative_for_g():
    small = list(enumerate_family("dp", 2))
    for p in small:
        for q in small:
            lhs = coproduct(compose_g(p, q))
            rhs = coproduct(p).componentwise(compose_g, coproduct(q))
            assert lhs == rhs


def test_coproduct_linear_in_lincomb():
    x = LinComb({O: 2, HC2: Fraction(1, 2)})
    assert coproduct(x) == 2 * coproduct(O) + Fraction(1, 2) * coproduct(HC2)


def test_reduced_coproduct():
    # the h-chain has one proper up-set, the h-antichain has two
    assert reduced_coproduct(HC2) == TensorComb.term(O, O)
    assert reduced_coproduct(RC2) == TensorComb.term(O, O, 2)
    with pytest.raises(EmptyInputError):
        reduced_coproduct(EMPTY)


def test_reduced_coproduct_canonicalizes_input(rng):
    for _ in range(10):
        p = random_double_poset(rng, 4)
        assert reduced_coproduct(p) == reduced_coproduct(canonical_form(p)[0])


def _deconcat_bruteforce(p):
    """Splits P = A g B from subsets whose cross pairs all point r-only."""
    out = TensorComb.zero()
    verts = list(range(1, p.n + 1))
    for mask in range(1 << p.n):
        s = [v for v in verts if (mask >> (v - 1)) & 1]
        rest = [v for v in verts if not (mask >> (v - 1)) & 1]
        ok = all(
            p.lt2(a, b) and not p.lt1(a, b) and not p.lt1(b, a)
            for a in s
            for b in rest
        )
        if ok:
            left = canonical_form(induced_subposet(p, s))[0]
            right = canonical_form(induced_subposet(p, rest))[0]
            out = out + TensorComb.term(left, right)
    return out


def test_deconcat_matches_subset_scan(rng):
    pool = [p for n in range(4) for p in enumerate_family("dp", n)]
    pool += [random_double_poset(rng, 4) for _ in range(15)]
    for p in pool:
        assert deconcat_coproduct_g(p) == _deconcat_bruteforce(p)


def test_deconcat_terms_are_multiplicity_free(rng):
    for _ in range(20):
        p = random_double_poset(rng, rng.randint(0, 5))
        d = deconcat_coproduct_g(p)
        assert all(c == 1 for _, c in d.terms())
        assert all(a.n + b.n == p.n for (a, b), _ in d.terms())


def test_deconcat_coassociative(rng):
    def triple(p, side):
        out = {}
        for (a, b), c1 in deconcat_coproduct_g(p).terms():
            inner = deconcat_coproduct_g(a if side == "left" else b)
            for (x, y), c2 in inner.terms():
                key = (x, y, b) if side == "left" else (a, x, y)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    pool = list(enumerate_family("pp", 3))
    pool += [random_double_poset(rng, 4) for _ in range(10)]
    for p in pool:
        assert triple(p, "left") == triple(p, "right")
