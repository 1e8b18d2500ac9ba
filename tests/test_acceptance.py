"""Acceptance gate: one test per shipped guarantee, all exact arithmetic.

c01  family counts at small sizes
c02  generating-function cross-check of the counts
c03  reduced coproduct fixture table
c04  pairing fixture matrices, symmetry, automorphism diagonal
c05  nondegeneracy ranks and the triangular certificate
c06  coalgebra axioms and both pairing adjunctions
c07  factorization identities and connectivity equivalences
c08  completion existence criteria
c09  dual product against the coproduct oracle; phi an iso of 2-As
c10  operad units, associativity, route agreement, brackets
"""

import itertools
from fractions import Fraction

from doubleposets import (
    automorphism_count,
    classify,
    compose_g,
    compose_h,
    compose_many,
    coproduct,
    count_family,
    crown_poset,
    enumerate_family,
    extend_bilinear,
    factor_blocks,
    factorize,
    indexed_poset,
    involution,
    is_connected,
    is_wn,
    new_double_poset,
    nondegeneracy_check,
    operad_compose,
    parse_double_poset,
    phi,
    pictures_count,
    plane_completions,
    reduced_coproduct,
    star,
    wn_completions,
    xy_order,
)
from doubleposets.checks import run_suite
from doubleposets.products import IndecomposabilityClass
from doubleposets.enumeration import _single_poset_classes
from doubleposets.hopf import LinComb
from doubleposets.pairing import integer_matrix_rank
from doubleposets.twoas import b_mn, binfty_bracket, compose_by_expansion
from doubleposets import fixtures

O = new_double_poset(1)


def test_c01_family_counts():
    assert [count_family("pp", n) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]
    wn = [count_family("wn", n) for n in range(8)]
    assert wn == [1, 1, 2, 6, 22, 90, 394, 1806]
    wnh = [count_family("wnh", n) for n in range(1, 8)]
    assert wnh == [1, 1, 3, 11, 45, 197, 903]
    assert [count_family("pf", n) for n in range(1, 5)] == [1, 2, 5, 14]
    for n in range(2, 8):
        assert 2 * count_family("wnh", n) == count_family("wn", n)


def test_c02_generating_function_cross_check():
    # sqrt(1 - 6x + x^2) by the first-order ODE its coefficients satisfy
    a = [Fraction(1), Fraction(-3)]
    for k in range(1, 8):
        a.append((3 * (2 * k - 1) * a[k] - (k - 2) * a[k - 1]) / (k + 1))
    connected = [Fraction(0), Fraction(1)] + [-v / 4 for v in a[2:8]]
    full = [Fraction(1), Fraction(1)] + [-v / 2 for v in a[2:8]]
    for n in range(8):
        assert full[n].denominator == 1
        assert full[n] == count_family("wn", n)
    for n in range(1, 8):
        assert connected[n].denominator == 1
        assert connected[n] == count_family("wnh", n)


def test_c03_reduced_coproduct_fixtures():
    table = fixtures.reduced_coproduct_table()
    assert len(table) == 17
    for p, want in table:
        assert reduced_coproduct(p) == want


def test_c04_pairing_fixtures_symmetry_automorphisms(dp_bases, dp4_gram):
    for n, (basis, rows) in sorted(fixtures.pairing_matrix_tables().items()):
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                assert pictures_count(p, q) == rows[i][j]
    for n in range(4):
        basis = dp_bases[n]
        for i, p in enumerate(basis):
            assert pictures_count(p, involution(p)) == automorphism_count(p)
            for q in basis[i + 1 :]:
                assert pictures_count(p, q) == pictures_count(q, p)
    basis4 = dp_bases[4]
    index = {p: i for i, p in enumerate(basis4)}
    for i in range(len(basis4)):
        for j in range(i + 1, len(basis4)):
            assert dp4_gram[i][j] == dp4_gram[j][i]
    for i, p in enumerate(basis4):
        assert dp4_gram[i][index[involution(p)]] == automorphism_count(p)


def test_c05_nondegeneracy_and_triangularity(dp_bases, dp4_gram):
    for family, top in (("pp", 5), ("wn", 5)):
        for n in range(top + 1):
            report = nondegeneracy_check(enumerate_family(family, n))
            assert report.full_rank, (family, n)
    for n in range(4):
        assert nondegeneracy_check(dp_bases[n]).full_rank

    def triangular(basis, entry):
        ordered = xy_order(basis)
        for i, p in enumerate(ordered):
            assert entry(p, involution(p)) == automorphism_count(p)
            for q in ordered[i + 1 :]:
                assert entry(p, involution(q)) == 0

    for family, top in (("pp", 5), ("wn", 5)):
        for n in range(top + 1):
            triangular(enumerate_family(family, n), pictures_count)
    for n in range(4):
        triangular(dp_bases[n], pictures_count)
    index = {p: i for i, p in enumerate(dp_bases[4])}
    triangular(dp_bases[4], lambda p, q: dp4_gram[index[p]][index[q]])


def test_c06_hopf_axioms_and_adjunctions():
    rows = run_suite("hopf", 5)
    named = {row.name: row for row in rows}
    for key in (
        "coassociativity",
        "coproduct multiplicative for g",
        "infinitesimal identity for h",
        "adjunction g/coproduct",
        "adjunction h/deconcatenation",
    ):
        matching = [row for name, row in named.items() if name.startswith(key)]
        assert matching, key
        assert all(row.ok for row in matching), key
        samples = int(matching[0].name.split("(")[1].split()[0])
        assert samples >= 150


def test_c07_factorization_and_connectivity(dp_bases):
    for op in ("g", "h"):
        for n in range(5):
            for p in dp_bases[n]:
                factors = factorize(p, op).factors
                assert compose_many(factors, op) == p
                for f in factors:
                    assert len(factor_blocks(f, op)) <= 1
        for np in range(5):
            for nq in range(5 - np):
                for p in dp_bases[np]:
                    for q in dp_bases[nq]:
                        assert (
                            factorize(compose_many([p, q], op), op).factors
                            == factorize(p, op).factors + factorize(q, op).factors
                        )
    for n in range(1, 5):
        for p in dp_bases[n]:
            got = classify(p)
            g_split = len(factor_blocks(p, "g")) > 1
            h_split = len(factor_blocks(p, "h")) > 1
            assert not (g_split and h_split)
            want = (
                IndecomposabilityClass.ONLY_2_INDECOMPOSABLE
                if g_split
                else IndecomposabilityClass.ONLY_1_INDECOMPOSABLE
                if h_split
                else IndecomposabilityClass.BOTH_INDECOMPOSABLE
            )
            assert got is want
    for n in range(1, 7):
        for p in enumerate_family("pp", n):
            assert (len(factor_blocks(p, "g")) == 1) == is_connected(p, 1)
            assert (len(factor_blocks(p, "h")) == 1) == is_connected(p, 2)
            assert is_connected(p, 1) or is_connected(p, 2)
    witness = parse_double_poset("dp 3 h{(1,3)} r{(1,2),(1,3),(2,3)}")
    assert len(factor_blocks(witness, "g")) == 1
    assert not is_connected(witness, 1)


def test_c08_completions():
    for n in (1, 2):
        assert plane_completions(crown_poset(n))
    for n in (3, 4):
        assert plane_completions(crown_poset(n)) == ()

    def has_induced_n(q):
        profile = {(1, 0), (2, 0), (0, 2), (0, 1)}
        for quad in itertools.combinations(range(q.n), 4):
            rel = [(a, b) for a in quad for b in quad if a != b and q.up1[a] >> b & 1]
            if len(rel) != 3:
                continue
            deg = {v: [0, 0] for v in quad}
            for x, y in rel:
                deg[x][0] += 1
                deg[y][1] += 1
            if {tuple(d) for d in deg.values()} == profile:
                return True
        return False

    for n in range(7):
        for q in _single_poset_classes(n):
            assert bool(wn_completions(q)) == (not has_induced_n(q))


def test_c09_star_and_phi():
    for p, q, want in fixtures.star_table():
        assert star(p, q) == want
    pools = {n: enumerate_family("pp", n) for n in range(6)}
    for np in range(6):
        for nq in range(6 - np):
            for p in pools[np]:
                for q in pools[nq]:
                    got = star(p, q)
                    oracle = LinComb.zero()
                    for r in pools[np + nq]:
                        c = coproduct(r).coefficient(p, q)
                        if c:
                            oracle = oracle + LinComb.term(r, c)
                    assert got == oracle

    star_lin = extend_bilinear(star)
    g_lin = extend_bilinear(compose_g)
    wn_pool = [p for n in range(1, 4) for p in enumerate_family("wn", n)]
    for x in wn_pool:
        for y in wn_pool:
            if x.n + y.n > 4:
                continue
            assert phi(compose_g(x, y)) == star_lin(phi(x), phi(y)).filter_keys(is_wn)
            assert phi(compose_h(x, y)) == g_lin(phi(x), phi(y))

    for n in range(6):
        basis = enumerate_family("wn", n)
        index = {p: i for i, p in enumerate(basis)}
        rows = []
        for p in basis:
            row = [0] * len(basis)
            for q, c in phi(p).terms():
                row[index[q]] = c
            rows.append(row)
        rank = integer_matrix_rank([list(r) for r in rows]) if basis else 0
        assert rank == len(basis)


def test_c10_operad():
    rows = run_suite("operad", 4)
    assert all(row.ok for row in rows), [r.name for r in rows if not r.ok]
    names = [row.name for row in rows]
    assert any(name.startswith("composition routes agree") for name in names)
    assert any(name.startswith("operad associativity") for name in names)

    one = indexed_poset(O, (1,))
    for n in (4, 5):
        for base in enumerate_family("wn", n)[:8]:
            ip = indexed_poset(base, tuple(range(1, n + 1)))
            assert operad_compose(ip, [one] * n) == LinComb.term(ip)
            assert operad_compose(one, [ip]) == LinComb.term(ip)

    for m in range(1, 4):
        for n in range(1, 4):
            base = b_mn(m, n).base
            covers = 0
            for x in range(1, base.n + 1):
                for y in range(1, base.n + 1):
                    if base.lt1(x, y) and not any(
                        base.lt1(x, z) and base.lt1(z, y)
                        for z in range(1, base.n + 1)
                    ):
                        covers += 1
            assert covers == m * n
            assert base == compose_h(
                compose_many([O] * m, "g"), compose_many([O] * n, "g")
            )

    for p in range(1, 4):
        for q in range(1, 4):
            got = binfty_bracket([O] * p, [O] * q)
            want = compose_h(compose_many([O] * p, "g"), compose_many([O] * q, "g"))
            assert got == LinComb.term(want)

    pat = indexed_poset(new_double_poset(2, gen1=[(1, 2)]), (1, 2))
    rc2 = indexed_poset(new_double_poset(2, gen2=[(1, 2)]), (1, 2))
    args = [one, indexed_poset(compose_g(O, compose_g(O, O)), (1, 2, 3))]
    assert operad_compose(pat, args) == compose_by_expansion(pat, args)
    assert operad_compose(pat, [rc2, rc2]) == compose_by_expansion(pat, [rc2, rc2])
