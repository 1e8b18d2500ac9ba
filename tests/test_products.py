import itertools

import pytest

from doubleposets import (
    EMPTY,
    IndecomposabilityClass,
    canonical_form,
    classify,
    compose_g,
    compose_h,
    compose_many,
    evaluate_tree,
    factor_blocks,
    factorize,
    involution,
    is_plane,
    new_double_poset,
    relabel,
    twoas_decomposition_tree,
)
from doubleposets.checks import random_double_poset
from doubleposets.enumeration import enumerate_family

O = new_double_poset(1)
HC2 = new_double_poset(2, gen1=[(1, 2)])
RC2 = new_double_poset(2, gen2=[(1, 2)])


def test_compose_sizes_and_cross_relations():
    p = compose_g(HC2, O)
    assert p.n == 3
    # cross pairs sit in the second order only
    assert p.strict_pairs(2) == ((1, 3), (2, 3))
    q = compose_h(O, RC2)
    assert q.strict_pairs(1) == ((1, 2), (1, 3))
    assert q.strict_pairs(2) == ((2, 3),)


def test_compose_unit_and_associativity(rng):
    for op in (compose_g, compose_h):
        for _ in range(40):
            p = random_double_poset(rng, rng.randint(0, 4))
            q = random_double_poset(rng, rng.randint(0, 4))
            r = random_double_poset(rng, rng.randint(0, 3))
            assert op(p, EMPTY) == canonical_form(p)[0]
            assert op(EMPTY, p) == canonical_form(p)[0]
            assert op(op(p, q), r) == op(p, op(q, r))


def test_compose_many_matches_folding(rng):
    for op, name in ((compose_g, "g"), (compose_h, "h")):
        for _ in range(20):
            posets = [
                random_double_poset(rng, rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))
            ]
            folded = EMPTY
            for p in posets:
                folded = op(folded, p)
            assert compose_many(posets, name) == folded


def test_involution_exchanges_products(rng):
    for _ in range(40):
        p = random_double_poset(rng, rng.randint(0, 4))
        q = random_double_poset(rng, rng.randint(0, 4))
        assert involution(compose_g(p, q)) == compose_h(involution(p), involution(q))


def test_factor_blocks_of_an_explicit_product():
    # the r-chain tail splits further: it is itself a g product
    p = compose_g(HC2, compose_g(O, RC2))
    assert factor_blocks(p, "g") == ((1, 2), (3,), (4,), (5,))
    assert factor_blocks(p, "h") == ((1, 2, 3, 4, 5),)


def _split_oracle_blocks(p, op):
    """Blocks from every split, found by definition.

    A nonempty proper vertex set S splits p when every x in S and y
    outside S form a cross pair; the splits form a chain.
    """
    stack, other = (p.lt2, p.lt1) if op == "g" else (p.lt1, p.lt2)
    vertices = range(1, p.n + 1)

    def cross(x, y):
        return stack(x, y) and not (other(x, y) or other(y, x))

    splits = [
        set(s)
        for k in range(1, p.n)
        for s in itertools.combinations(vertices, k)
        if all(cross(x, y) for x in s for y in vertices if y not in s)
    ]
    chain = splits + [set(vertices)]
    blocks, prev = [], set()
    for s in chain:
        assert prev < s, "splits must form a chain"
        blocks.append(tuple(sorted(s - prev)))
        prev = s
    return tuple(blocks)


def test_factor_blocks_match_split_oracle(rng):
    samples = [p for n in (5, 6) for p in enumerate_family("pp", n)]
    samples += [random_double_poset(rng, rng.randint(5, 9)) for _ in range(200)]
    for _ in range(100):
        op = rng.choice("gh")
        sizes, left = [], rng.randint(5, 9)
        while left:
            sizes.append(rng.randint(1, min(left, 3)))
            left -= sizes[-1]
        parts = [random_double_poset(rng, k) for k in sizes]
        p = compose_many(parts, op)
        perm = list(range(1, p.n + 1))
        rng.shuffle(perm)
        samples.append(relabel(p, tuple(perm)))
    assert any(p.n >= 9 for p in samples)
    for p in samples:
        for op in ("g", "h"):
            assert factor_blocks(p, op) == _split_oracle_blocks(p, op)


def test_factorize_round_trip_exhaustive_n3():
    for n in range(4):
        for p in enumerate_family("dp", n):
            for op in ("g", "h"):
                result = factorize(p, op)
                assert result.operator == op
                assert compose_many(result.factors, op) == p
                for f in result.factors:
                    assert len(factor_blocks(f, op)) == 1


def test_product_factorizations_concatenate(rng):
    for _ in range(50):
        p = random_double_poset(rng, rng.randint(1, 3))
        q = random_double_poset(rng, rng.randint(1, 3))
        for op, compose in (("g", compose_g), ("h", compose_h)):
            got = factorize(compose(p, q), op).factors
            want = factorize(p, op).factors + factorize(q, op).factors
            assert got == want


def test_classify_trichotomy():
    assert classify(EMPTY) is IndecomposabilityClass.UNIT
    assert classify(O) is IndecomposabilityClass.BOTH_INDECOMPOSABLE
    assert classify(RC2) is IndecomposabilityClass.ONLY_2_INDECOMPOSABLE
    assert classify(HC2) is IndecomposabilityClass.ONLY_1_INDECOMPOSABLE
    for p in enumerate_family("dp", 3):
        cls = classify(p)
        g_blocks = len(factor_blocks(p, "g"))
        h_blocks = len(factor_blocks(p, "h"))
        if cls is IndecomposabilityClass.ONLY_2_INDECOMPOSABLE:
            assert g_blocks > 1 and h_blocks == 1
        elif cls is IndecomposabilityClass.ONLY_1_INDECOMPOSABLE:
            assert h_blocks > 1 and g_blocks == 1
        else:
            assert g_blocks == 1 and h_blocks == 1


def test_decomposition_tree_round_trip():
    for n in range(1, 5):
        for p in enumerate_family("pp", n):
            tree = twoas_decomposition_tree(p)
            assert evaluate_tree(tree) == p


def test_decomposition_tree_rejects_empty():
    from doubleposets import EmptyInputError

    with pytest.raises(EmptyInputError):
        twoas_decomposition_tree(EMPTY)


def test_decomposition_tree_rejects_nothing_plane():
    for p in enumerate_family("pp", 4):
        assert is_plane(evaluate_tree(twoas_decomposition_tree(p)))
