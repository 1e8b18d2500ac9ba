import random
from fractions import Fraction

import pytest

from doubleposets import (
    EMPTY,
    BasisNotIotaClosedError,
    SizeMismatchError,
    automorphism_count,
    canonical_form,
    comparability_counts,
    involution,
    new_double_poset,
    nondegeneracy_check,
    pairing_matrix,
    pictures_count,
    pictures_count_bruteforce,
    relabel,
    xy_order,
)
from doubleposets import pairing
from doubleposets.checks import random_double_poset
from doubleposets.enumeration import enumerate_family

O = new_double_poset(1)
HC2 = new_double_poset(2, gen1=[(1, 2)])


def test_pictures_count_basics():
    assert pictures_count(EMPTY, EMPTY) == 1
    assert pictures_count(O, EMPTY) == 0
    assert pictures_count(O, O) == 1
    assert pictures_count_bruteforce(O, EMPTY) == 0


def test_pictures_count_matches_bruteforce_exhaustive():
    basis = enumerate_family("dp", 3)
    for p in basis:
        for q in basis:
            assert pictures_count(p, q) == pictures_count_bruteforce(p, q)


def test_pictures_count_matches_bruteforce_sampled(rng):
    for _ in range(60):
        n = rng.randint(4, 6)
        p = random_double_poset(rng, n)
        q = random_double_poset(rng, n)
        assert pictures_count(p, q) == pictures_count_bruteforce(p, q)


def test_pictures_between_long_chains():
    # One picture, found without searching the assignments that leave
    # too few larger images for the rest of the chain.
    n = 64
    chain = [(i, i + 1) for i in range(1, n)]
    hchain = new_double_poset(n, gen1=chain)
    rchain = new_double_poset(n, gen2=chain)
    assert pictures_count(hchain, rchain) == 1
    assert pictures_count(rchain, hchain) == 1


def test_pairing_symmetric_and_relabel_invariant(rng):
    for _ in range(40):
        n = rng.randint(0, 4)
        p = random_double_poset(rng, n)
        q = random_double_poset(rng, n)
        v = pictures_count(p, q)
        assert v == pictures_count(q, p)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert v == pictures_count(relabel(p, perm), q)


def test_pairing_against_involution_counts_automorphisms():
    for p in enumerate_family("dp", 3):
        assert pictures_count(p, involution(p)) == automorphism_count(p)


def test_pairing_matrix_shape_and_size_guard():
    basis = enumerate_family("pp", 2)
    m = pairing_matrix(basis)
    assert m.basis == basis
    assert len(m.entries) == len(basis)
    assert all(len(row) == len(basis) for row in m.entries)
    with pytest.raises(SizeMismatchError):
        pairing_matrix([O, HC2])


def test_xy_order_sorts_by_comparability_gap():
    basis = enumerate_family("pp", 3)
    ordered = xy_order(basis)
    assert sorted(ordered, key=lambda p: p.sort_key()) == sorted(
        basis, key=lambda p: p.sort_key()
    )
    gaps = [y - x for x, y in map(comparability_counts, ordered)]
    assert gaps == sorted(gaps)
    with pytest.raises(SizeMismatchError):
        xy_order([O, HC2])


def test_xy_order_triangularity_against_involution_images():
    # matrix rows in xy order against involuted columns must vanish
    # strictly above the diagonal, and the diagonal counts automorphisms
    for fam, n in (("pp", 3), ("pp", 4), ("dp", 3)):
        rows = xy_order(enumerate_family(fam, n))
        cols = [involution(p) for p in rows]
        for i, p in enumerate(rows):
            assert pictures_count(p, cols[i]) == automorphism_count(p)
            for j in range(i + 1, len(rows)):
                assert pictures_count(p, cols[j]) == 0


def _rank_fraction_gauss(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_integer_matrix_rank_against_gauss(rng):
    from doubleposets import integer_matrix_rank

    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    assert integer_matrix_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    for _ in range(40):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5 and nr >= 2:
            # plant a dependent row
            m[-1] = [2 * a - b for a, b in zip(m[0], m[nr // 2])]
        assert integer_matrix_rank(m) == _rank_fraction_gauss(m)


def test_integer_matrix_rank_scales_fractions(rng):
    from doubleposets import integer_matrix_rank

    for _ in range(15):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert integer_matrix_rank(m) == _rank_fraction_gauss(m)


def test_integer_matrix_rank_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from doubleposets import integer_matrix_rank

    deficient = 0
    for _ in range(80):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        # A product through k inner columns has rank at most k.
        k = rng.randint(0, min(nr, nc))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        if rng.random() < 0.5:
            right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        else:
            right = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc)]
                for _ in range(k)
            ]
        m = [
            [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(nc)]
            for i in range(nr)
        ]
        want = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
        ).rank()
        assert integer_matrix_rank(m) == want
        deficient += want < min(nr, nc)
    assert deficient


def test_nondegeneracy_small_bases_use_elimination():
    for fam, n in (("pp", 3), ("wn", 4), ("dp", 2)):
        rep = nondegeneracy_check(enumerate_family(fam, n))
        assert rep.full_rank
        assert rep.rank == rep.size
        assert rep.method == "elimination"
    empty = nondegeneracy_check(())
    assert empty.full_rank and empty.size == 0 and empty.method == "empty"


def test_nondegeneracy_requires_involution_closure():
    with pytest.raises(BasisNotIotaClosedError):
        nondegeneracy_check([HC2])


def test_nondegeneracy_triangular_certificate(monkeypatch):
    monkeypatch.setattr(pairing, "_ELIMINATION_LIMIT", 4)
    rep = nondegeneracy_check(enumerate_family("pp", 3))
    assert rep.full_rank
    assert rep.method == "triangular"
    assert rep.rank == rep.size == 6


def test_nondegeneracy_triangular_falls_back_on_duplicates(monkeypatch):
    monkeypatch.setattr(pairing, "_ELIMINATION_LIMIT", 1)
    rep = nondegeneracy_check([O, O])
    assert not rep.full_rank
    assert rep.rank == 1
    assert rep.size == 2
    assert rep.method == "triangular"
