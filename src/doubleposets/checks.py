"""Batch verification suites behind the command line `check` subcommand.

Each suite returns CheckResult rows; a row compares a computed value
against fixture data or a structural identity.  Random instances are
drawn from a seeded generator so reruns are byte-identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import fixtures
from .core import (
    EMPTY,
    RangeError,
    automorphism_count,
    canonical_form,
    involution,
    is_connected,
    new_double_poset,
    relabel,
)
from .enumeration import (
    PosetFamily,
    count_family,
    enumerate_family,
    sequence_check,
)
from .hopf import (
    TensorComb,
    coproduct,
    deconcat_coproduct_g,
    reduced_coproduct,
)
from .pairing import nondegeneracy_check, pictures_count
from .products import compose_g, compose_h
from .twoas import (
    b_mn,
    compose_by_expansion,
    indexed_poset,
    operad_compose,
    star,
)
from .textio import format_double_poset


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _row(name, ok, detail=""):
    return CheckResult(name, bool(ok), "" if ok else detail)


def random_double_poset(rng, n):
    """Uniform-ish random double poset: random acyclic generators, relabeled."""
    if n == 0:
        return EMPTY
    gen1 = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < 0.4]
    gen2 = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < 0.4]
    p = new_double_poset(n, gen1, gen2)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(p, tuple(perm))


def suite_sequences(max_n=7):
    out = []
    tables = (
        (PosetFamily.PP, fixtures.PP_COUNTS, 0),
        (PosetFamily.WNP, fixtures.WNP_COUNTS, 0),
        (PosetFamily.WNP_H, fixtures.WNP_H_COUNTS, 1),
        (PosetFamily.PF, fixtures.PF_COUNTS, 1),
    )
    for family, counts, start in tables:
        for i, want in enumerate(counts):
            n = start + i
            if n > max_n:
                break
            got = count_family(family, n)
            out.append(
                _row(
                    f"count {family.value} n={n}",
                    got == want,
                    f"got {got}, fixture {want}",
                )
            )
    for n in range(2, max_n + 1):
        if n >= len(fixtures.WNP_COUNTS):
            break
        full = count_family(PosetFamily.WNP, n)
        half = count_family(PosetFamily.WNP_H, n)
        out.append(
            _row(
                f"count wnh=wn/2 n={n}",
                2 * half == full,
                f"2*{half} != {full}",
            )
        )
    for family in (PosetFamily.WNP, PosetFamily.WNP_H, PosetFamily.PF):
        report = sequence_check(family, max_n)
        out.append(
            _row(
                f"recurrence {family.value} n<={report.rows[-1][0] if report.rows else max_n}",
                report.ok,
                f"rows {report.rows}",
            )
        )
    return out


def suite_hopf(max_n=5, samples=160, seed=20240901):
    out = []
    table = fixtures.reduced_coproduct_table()
    bad = None
    for p, want in table:
        got = reduced_coproduct(p)
        if got != want:
            bad = (p, got, want)
            break
    out.append(
        _row(
            f"reduced coproduct table ({len(table)} entries)",
            bad is None,
            "" if bad is None else f"first mismatch at {format_double_poset(bad[0])}",
        )
    )
    rng = random.Random(seed)
    size = min(max_n, 5)
    coass = mult = infin = adj_g = adj_h = True
    coass_w = mult_w = infin_w = adj_g_w = adj_h_w = ""
    for _ in range(samples):
        p = random_double_poset(rng, rng.randint(0, size))
        c = coproduct(p)
        # iterated coproducts compared as flattened three-leg tensors
        lhs = {}
        rhs = {}
        for (a, b), coeff in c.terms():
            for (a1, a2), c2 in coproduct(a).terms():
                key = (a1, a2, b)
                lhs[key] = lhs.get(key, 0) + coeff * c2
            for (b1, b2), c2 in coproduct(b).terms():
                key = (a, b1, b2)
                rhs[key] = rhs.get(key, 0) + coeff * c2
        lhs = {k: c for k, c in lhs.items() if c}
        rhs = {k: c for k, c in rhs.items() if c}
        if lhs != rhs and coass:
            coass, coass_w = False, format_double_poset(p)
        q = random_double_poset(rng, rng.randint(0, size))
        if coproduct(compose_g(p, q)) != coproduct(p).componentwise(compose_g, coproduct(q)):
            if mult:
                mult, mult_w = False, f"{format_double_poset(p)} ; {format_double_poset(q)}"
        if p.n and q.n:
            lhs_t = coproduct(compose_h(p, q))
            # the bare p (x) q term bypasses canonicalizing operations
            rhs_t = (
                TensorComb.term(p, EMPTY).componentwise(compose_h, coproduct(q))
                + coproduct(p).componentwise(compose_h, TensorComb.term(EMPTY, q))
                - TensorComb.term(canonical_form(p)[0], canonical_form(q)[0])
            )
            if lhs_t != rhs_t and infin:
                infin, infin_w = False, f"{format_double_poset(p)} ; {format_double_poset(q)}"
        r = random_double_poset(rng, p.n + q.n)
        lhs_v = pictures_count(compose_g(p, q), r)
        rhs_v = sum(
            coeff * pictures_count(p, a) * pictures_count(q, b)
            for (a, b), coeff in coproduct(r).terms()
        )
        if lhs_v != rhs_v and adj_g:
            adj_g, adj_g_w = False, format_double_poset(r)
        lhs_v = pictures_count(compose_h(p, q), r)
        rhs_v = sum(
            coeff * pictures_count(p, a) * pictures_count(q, b)
            for (a, b), coeff in deconcat_coproduct_g(r).terms()
        )
        if lhs_v != rhs_v and adj_h:
            adj_h, adj_h_w = False, format_double_poset(r)
    out.append(_row(f"coassociativity ({samples} random)", coass, coass_w))
    out.append(_row(f"coproduct multiplicative for g ({samples} random)", mult, mult_w))
    out.append(_row(f"infinitesimal identity for h ({samples} random)", infin, infin_w))
    out.append(_row(f"adjunction g/coproduct ({samples} random)", adj_g, adj_g_w))
    out.append(_row(f"adjunction h/deconcatenation ({samples} random)", adj_h, adj_h_w))
    return out


def suite_pairing(max_n=5):
    out = []
    for n, (basis, rows) in sorted(fixtures.pairing_matrix_tables().items()):
        if n > max_n:
            continue
        ok = True
        detail = ""
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                got = pictures_count(p, q)
                if got != rows[i][j]:
                    ok = False
                    detail = f"entry ({i},{j}) got {got}, fixture {rows[i][j]}"
                    break
            if not ok:
                break
        out.append(_row(f"pairing matrix n={n}", ok, detail))
    for n in range(0, min(max_n, 3) + 1):
        basis = enumerate_family(PosetFamily.DP, n)
        sym = True
        auts = True
        detail_s = detail_a = ""
        for p in basis:
            ip = involution(p)
            got = pictures_count(p, ip)
            want = automorphism_count(p)
            if got != want:
                auts = False
                detail_a = f"{format_double_poset(p)}: got {got}, aut {want}"
            for q in basis:
                if pictures_count(p, q) != pictures_count(q, p):
                    sym = False
                    detail_s = f"{format_double_poset(p)} vs {format_double_poset(q)}"
                    break
            if not sym:
                break
        out.append(_row(f"pairing symmetric on dp n={n}", sym, detail_s))
        out.append(_row(f"pairing with involuted self counts automorphisms n={n}", auts, detail_a))
    for family in ("pp", "wn"):
        for n in range(0, min(max_n, 5) + 1):
            basis = enumerate_family(family, n)
            report = nondegeneracy_check(basis)
            out.append(
                _row(
                    f"nondegenerate {family} n={n}",
                    report.full_rank,
                    f"rank {report.rank} of {report.size}",
                )
            )
    return out


def suite_operad(max_n=4):
    out = []
    for p, q, want in fixtures.star_table():
        got = star(p, q)
        out.append(
            _row(
                f"star expansion {format_double_poset(p)} ; {format_double_poset(q)}",
                got == want,
                "first mismatch "
                + next(
                    (
                        format_double_poset(k)
                        for k, c in (got - want).terms()
                    ),
                    "",
                ),
            )
        )
    for n in range(1, min(max_n, 3) + 1):
        ok = True
        detail = ""
        for base in enumerate_family(PosetFamily.WNP, n):
            ip = indexed_poset(base, tuple(range(1, n + 1)))
            got = operad_compose(ip, [indexed_poset(new_double_poset(1), (1,))] * n)
            if got.terms() != ((ip, 1),):
                ok = False
                detail = format_double_poset(base)
                break
        out.append(_row(f"operad unit laws n={n}", ok, detail))
    for m in range(1, 3):
        for n in range(1, 3):
            ip = b_mn(m, n)
            base = ip.base
            covers = 0
            for x in range(1, base.n + 1):
                for y in range(1, base.n + 1):
                    if base.lt1(x, y) and not any(
                        base.lt1(x, z) and base.lt1(z, y) for z in range(1, base.n + 1)
                    ):
                        covers += 1
            out.append(
                _row(
                    f"bracket poset ({m},{n}) complete bipartite",
                    covers == m * n,
                    f"{covers} covering pairs, expected {m * n}",
                )
            )
    one = indexed_poset(new_double_poset(1), (1,))
    c2 = indexed_poset(fixtures.HC2, (1, 2))
    got = operad_compose(b_mn(1, 1), [one, c2])
    ok = len(got) == 3 and all(c == 1 for _, c in got.terms())
    out.append(_row("composition on a chain block", ok, f"{len(got)} terms"))

    pools = {n: enumerate_family(PosetFamily.WNP, n) for n in (1, 2, 3)}
    labeled = {
        n: [
            indexed_poset(b, perm)
            for b in pools[n]
            for perm in itertools.permutations(range(1, n + 1))
        ]
        for n in pools
    }
    runs = 0
    bad = ""
    for kpat in (1, 2, 3):
        for pat in labeled[kpat]:
            for sizes in itertools.product((1, 2), repeat=kpat):
                if sum(sizes) > max(max_n, 4):
                    continue
                choices = [
                    [indexed_poset(b, tuple(range(1, s + 1))) for b in pools[s]]
                    for s in sizes
                ]
                for args in itertools.product(*choices):
                    runs += 1
                    if operad_compose(pat, list(args)) != compose_by_expansion(
                        pat, list(args)
                    ):
                        bad = bad or f"pattern {pat!r} args {args!r}"
    out.append(_row(f"composition routes agree ({runs} cases)", not bad, bad))

    rng = random.Random(0xD0C5E7)
    fails = ""
    trials = 0
    small = labeled[1] + labeled[2]
    for _ in range(24):
        q = rng.choice(labeled[2])
        ps = [rng.choice(small), rng.choice(small)]
        rss = [
            [rng.choice(labeled[1] + labeled[2]) for _ in range(p.base.n)]
            for p in ps
        ]
        while sum(r.base.n for rs in rss for r in rs) > 5:
            rss = [[one] * p.base.n for p in ps]
        inner = operad_compose(q, ps)
        flat = [r for rs in rss for r in rs]
        lhs = {}
        for mid, c in inner.terms():
            for key, c2 in operad_compose(mid, flat).terms():
                lhs[key] = lhs.get(key, 0) + c * c2
        lhs = {k: v for k, v in lhs.items() if v}
        mids = [operad_compose(ps[i], rss[i]) for i in range(2)]
        rhs = {}
        for ipa, ca in mids[0].terms():
            for ipb, cb in mids[1].terms():
                for key, c2 in operad_compose(q, [ipa, ipb]).terms():
                    rhs[key] = rhs.get(key, 0) + ca * cb * c2
        rhs = {k: v for k, v in rhs.items() if v}
        trials += 1
        if lhs != rhs:
            fails = fails or f"pattern {q!r}"
    out.append(_row(f"operad associativity ({trials} random)", not fails, fails))

    hconn = [
        indexed_poset(b, tuple(range(1, n + 1)))
        for n in (1, 2, 3)
        for b in pools[n]
        if is_connected(b, 1)
    ]
    closed = True
    culprit = ""
    for pat in hconn:
        if pat.base.n == 1:
            continue
        for args in itertools.product(hconn, repeat=pat.base.n):
            if sum(a.base.n for a in args) > 5:
                continue
            for term, _c in operad_compose(pat, list(args)).terms():
                if not is_connected(term.base, 1):
                    closed = False
                    culprit = culprit or f"{term!r}"
    out.append(_row("connected posets closed under composition", closed, culprit))
    return out


SUITES = {
    "sequences": suite_sequences,
    "hopf": suite_hopf,
    "pairing": suite_pairing,
    "operad": suite_operad,
}


def run_suite(name, max_n):
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n < 0:
        raise RangeError(f"negative size bound {max_n}")
    return fn(max_n)
