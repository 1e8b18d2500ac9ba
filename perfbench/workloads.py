"""The four workloads: seeded inputs, timed items, and their checks.

Each workload function takes a size table and a seeded random source
and returns the round's items split into parts; every part runs in a
fresh interpreter.  An item's run() is the timed library work; its
check(output) runs after the timed phase and compares the output
against a route that does not go through the code being timed.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import doubleposets as D
from doubleposets import cli
from doubleposets.hopf import LinComb, TensorComb

import oracles as O

DP_COUNTS = (1, 1, 5, 65, 2098)


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def dp(n, h, r):
    return D.new_double_poset(n, sorted(h), sorted(r))


def pairs_of(p):
    return p.n, set(p.strict_pairs(1)), set(p.strict_pairs(2))


# gram: pairing matrices and the triangularity certificate (c04/c05).

def iota_closed_sample(basis, index, size, rng):
    """Basis positions of a random sample closed under the involution.

    Returns {position: position of its involution image}.
    """
    iota = {}
    for i in rng.sample(range(len(basis)), len(basis)):
        if len(iota) >= size:
            break
        if i not in iota:
            j = index[D.involution(basis[i])]
            iota[i], iota[j] = j, i
    return iota


def gram(sz, rng):
    bases = {}

    def basis(family, n):
        if (family, n) not in bases:
            b = D.enumerate_family(family, n)
            bases[family, n] = b, {p: i for i, p in enumerate(b)}
        return bases[family, n]

    dp_basis, dp_index = basis("dp", sz["dp_n"])
    iota = iota_closed_sample(dp_basis, dp_index, sz["matrix"], rng)
    picked = sorted(iota)
    sample = [dp_basis[i] for i in picked]
    where = {i: k for k, i in enumerate(picked)}
    image = [where[iota[i]] for i in picked]
    brute = [(rng.randrange(len(sample)), rng.randrange(len(sample))) for _ in range(sz["brute"])]

    def check_matrix(mat):
        e = mat.entries
        m = len(sample)
        return (
            all(e[i][j] == e[j][i] for i in range(m) for j in range(i))
            and all(e[k][image[k]] == D.automorphism_count(p) for k, p in enumerate(sample))
            and all(e[i][j] == D.pictures_count_bruteforce(sample[i], sample[j]) for i, j in brute)
        )

    items = [Item("matrix", lambda: D.pairing_matrix(sample), check_matrix)]

    cert = {}

    def row(k):
        def run():
            if k == 0:
                cert["order"] = D.xy_order(sample)
            order = cert["order"]
            return [D.pictures_count(order[k], D.involution(q)) for q in order[k:]]

        def check(values):
            # Triangularity lemma: automorphisms on the diagonal, zeros after it.
            return values[0] == D.automorphism_count(cert["order"][k]) and not any(values[1:])

        return Item("cert_row", run, check)

    items += [row(k) for k in range(len(sample))]

    for family, n, size in sz["nondeg"]:
        b, index = basis(family, n)
        sub = [b[i] for i in sorted(iota_closed_sample(b, index, size, rng))]

        def check(rep, size=len(sub)):
            # Any involution-closed subset of a graded basis has full rank.
            return rep.full_rank and rep.rank == rep.size == size

        items.append(Item(f"nondeg_{family}{n}", lambda sub=sub: D.nondegeneracy_check(sub), check))
    return [items]


# enumerate: cold enumeration per family, then completion queries (c01/c08).

def expected_count(family, n):
    if family == "pf":
        return D.catalan_numbers(n)[n]
    if family == "wn":
        return 1 if n < 2 else 2 * D.schroeder_coefficients(n)[n]
    if family == "wnh":
        return D.schroeder_coefficients(n)[n]
    if family == "pp":
        return math.factorial(n)
    return DP_COUNTS[n]


def enumerate_(sz, rng):
    enumerations = []
    for family, n in sz["families"]:
        def check(got, family=family, n=n):
            return len(got) == expected_count(family, n) and len(set(got)) == len(got)

        enumerations.append(Item(f"enum_{family}", lambda f=family, n=n: D.enumerate_family(f, n), check))

    # Random orders cycle through the sizes.  The fixed wide orders (few
    # relations, so many incomparable pairs) are where the completion
    # search is largest; they keep their labeling because the search
    # cost depends on it, and the 6-point antichain comes eight times so
    # that the tail latency falls inside that block.  Crowns of size 3
    # and more have no completion.
    queries = []
    lo, hi = sz["posets"]
    for i in range(sz["queries"]):
        # n - 2 random generator pairs per order: a fixed count keeps the
        # spread of search costs, and so the median latency, steady.
        n = lo + i % (hi - lo + 1)
        pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
        rel, _ = O.relabeled(n, O.closure(n, rng.sample(pairs, n - 2)), set(), rng)
        queries.append((D.new_single_poset(n, sorted(rel)), rel, None))
    for n, gens in sz["wide"]:
        queries.append((D.new_single_poset(n, gens), O.closure(n, gens), None))
    for k in range(1, sz["crowns"] + 1):
        q = D.crown_poset(k)
        queries.append((q, set(q.strict_pairs()), k))

    completion_items = []
    for q, rel, crown in queries:
        n = q.n

        def shaped(c, n=n, rel=rel):
            key = D.canonical_key(D.new_double_poset(n, sorted(rel)))
            return D.canonical_key(D.new_double_poset(n, c.strict_pairs(1))) == key

        def check(got, n=n, rel=rel, crown=crown, shaped=shaped):
            plane, wn = got
            if crown is not None and bool(plane) != (crown <= 2):
                return False
            # c08: a WN completion exists iff the order has no induced N.
            return (
                bool(wn) == (not O.has_induced_n(n, rel))
                and len(set(plane)) == len(plane)
                and set(wn) <= set(plane)
                and all(O.is_plane(*pairs_of(c)) and shaped(c) for c in plane)
                and all(O.is_wn(*pairs_of(c)) for c in wn)
            )

        completion_items.append(
            Item("completions", lambda q=q: (D.plane_completions(q), D.wn_completions(q)), check)
        )
    rng.shuffle(completion_items)
    # Each enumeration and each share of the queries gets its own fresh
    # interpreter; alternating them spreads the queries over the run, and
    # no query shares a heap with the enumeration caches.  Several shares
    # per enumeration average out how fast each interpreter happens to be.
    k = len(enumerations) * sz["shares"]
    shares = [completion_items[i::k] for i in range(k)]
    return [part for i, item in enumerate(enumerations)
            for part in [[item]] + shares[i * sz["shares"]:(i + 1) * sz["shares"]]]


# algebra: Hopf identities, star against its coproduct dual, operad routes.

def drop_zero(d):
    return {k: c for k, c in d.items() if c}


def iterated(delta, x):
    """(delta x id) delta x and (id x delta) delta x as three-leg dicts."""
    lhs, rhs = {}, {}
    first = delta(x)
    for (a, b), c in first.terms():
        for (a1, a2), c2 in delta(a).terms():
            lhs[a1, a2, b] = lhs.get((a1, a2, b), 0) + c * c2
        for (b1, b2), c2 in delta(b).terms():
            rhs[a, b1, b2] = rhs.get((a, b1, b2), 0) + c * c2
    return first, drop_zero(lhs), drop_zero(rhs)


def random_wn_indexed(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return D.indexed_poset(dp(*O.random_wn(rng, n)), tuple(labels))


def operad_inputs(rng, sz):
    k = rng.randint(2, sz["operad_k"])
    while True:
        sizes = [rng.randint(1, 2) for _ in range(k)]
        if sum(sizes) <= sz["operad_total"]:
            break
    return random_wn_indexed(rng, k), [random_wn_indexed(rng, s) for s in sizes]


def algebra(sz, rng):
    items = []
    lo, hi = sz["coassoc_n"]
    for _ in range(sz["coassoc"]):
        raw = O.random_dp(rng, rng.randint(lo, hi))
        p = dp(*raw)

        def check(out, raw=raw):
            first, lhs, rhs = out
            return lhs == rhs and sum(c for _, c in first.terms()) == O.count_upsets(raw[0], raw[1])

        items.append(Item("coassoc", lambda p=p: iterated(D.coproduct, p), check))

    def lincomb(n_hi):
        return LinComb({dp(*O.random_dp(rng, rng.randint(1, n_hi))): rng.choice((-2, -1, 1, 3)) for _ in range(2)})

    for _ in range(sz["mult_g"]):
        x, y = lincomb(sz["factor_n"]), lincomb(sz["factor_n"])

        def run(x=x, y=y):
            lhs = D.coproduct(D.extend_bilinear(D.compose_g)(x, y))
            return lhs, D.coproduct(x).componentwise(D.compose_g, D.coproduct(y))

        items.append(Item("mult_g", run, lambda out: out[0] == out[1]))

    empty = D.new_double_poset(0)
    for _ in range(sz["infin_h"]):
        p = dp(*O.random_dp(rng, rng.randint(1, sz["factor_n"])))
        q = dp(*O.random_dp(rng, rng.randint(1, sz["factor_n"])))

        def run(p=p, q=q):
            lhs = D.coproduct(D.compose_h(p, q))
            rhs = (
                TensorComb.term(p, empty).componentwise(D.compose_h, D.coproduct(q))
                + D.coproduct(p).componentwise(D.compose_h, TensorComb.term(empty, q))
                - TensorComb.term(D.canonical_form(p)[0], D.canonical_form(q)[0])
            )
            return lhs, rhs

        items.append(Item("infin_h", run, lambda out: out[0] == out[1]))

    for _ in range(sz["deconcat"]):
        parts = [O.random_dp(rng, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        raw = O.compose(parts, "g")
        raw = (raw[0],) + O.relabeled(*raw, rng)
        r = dp(*raw)

        def check(out, raw=raw):
            first, lhs, rhs = out
            return lhs == rhs and len(first) == O.count_splits(*raw, "g") + 2

        items.append(Item("deconcat", lambda r=r: iterated(D.deconcat_coproduct_g, r), check))

    dual = {}

    def dual_table(n):
        """(left, right) -> {plane r: coefficient of left (x) right in delta(r)}."""
        if n not in dual:
            table = {}
            for big in D.enumerate_family("pp", n):
                for (a, b), c in D.coproduct(big).terms():
                    table.setdefault((a, b), {})[big] = c
            dual[n] = table
        return dual[n]

    for _ in range(sz["star"]):
        total = rng.randint(3, sz["star_total"])
        a = rng.randint(1, total - 1)
        p, q = dp(*O.random_plane(rng, a)), dp(*O.random_plane(rng, total - a))

        def check(got, p=p, q=q, total=total):
            key = (D.canonical_form(p)[0], D.canonical_form(q)[0])
            return dict(got.terms()) == dual_table(total).get(key, {})

        items.append(Item("star", lambda p=p, q=q: D.star(p, q), check))

    for _ in range(sz["operad"]):
        pattern, args = operad_inputs(rng, sz)

        def run(pattern=pattern, args=args):
            return D.operad_compose(pattern, args), D.compose_by_expansion(pattern, args)

        items.append(Item("operad", run, lambda out: out[0] == out[1] and not out[0].is_zero()))
    rng.shuffle(items)
    return [items]


# oneshot: single command line calls on fresh text, some of it malformed.

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_terms(text, parse):
    """'c * X' lines (or 'c * X (x) Y') into (coefficient, parsed, ...) tuples."""
    out = []
    for line in text.splitlines():
        coeff, rest = line.split(" * ", 1)
        out.append((int(coeff), *(parse(t) for t in rest.split(" (x) "))))
    return out


def canonical(p):
    return D.canonical_key(p) == p.identity_key()


def split_key(n, h, r, inside):
    def restrict(vs):
        pos = {v: i + 1 for i, v in enumerate(vs)}

        def keep(rel):
            return {(pos[a], pos[b]) for a, b in rel if a in pos and b in pos}

        return D.canonical_key(dp(len(vs), keep(h), keep(r)))

    outside = [v for v in range(1, n + 1) if v not in inside]
    return restrict(outside), restrict(sorted(inside))


def coproduct_bruteforce(n, h, r):
    counts = {}
    for mask in range(1 << n):
        inside = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
        if all(b in inside for a, b in h if a in inside):
            k = split_key(n, h, r, inside)
            counts[k] = counts.get(k, 0) + 1
    return counts


def flags(n, h, r):
    def f(v):
        return "true" if v else "false"

    return (
        f"plane={f(O.is_plane(n, h, r))} wn={f(O.is_wn(n, h, r))}"
        f" forest={f(O.is_forest(n, h, r))} h-connected={f(O.is_connected(n, h))}\n"
    )


def malformed(rng, kind):
    n = rng.randint(3, 6)
    if kind == "cycle":
        ring = list(range(1, n + 1))
        rng.shuffle(ring)
        h = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
        return ["classify", O.poset_text(n, h, [])]
    if kind == "range":
        text = O.poset_text(n, [(rng.randint(1, n), n + rng.randint(1, 3))], [])
        return ["product", "--op", rng.choice("gh"), text, O.poset_text(1, [], [])]
    if kind == "nonplane":
        return ["star", O.poset_text(n, [], []), O.poset_text(2, [], [])]
    return ["coproduct", O.poset_text(n, [(1, 2)], [])[:-1]]


def oneshot(sz, rng):
    items = []

    def add(kind, argv, check, code=0):
        items.append(Item(kind, lambda: call(argv), lambda out: out[0] == code and check(out[1], out[2])))

    lo, hi = sz["classify_n"]
    for i in range(sz["classify"]):
        n = rng.randint(lo, hi)
        maker = (O.random_wn, O.random_plane, O.random_dp)[i % 3]
        n, h, r = maker(rng, n)
        h, r = O.relabeled(n, h, r, rng)
        add("classify", ["classify", O.poset_text(n, h, r)],
            lambda out, err, want=flags(n, h, r): out == want)

    for i in range(sz["coproduct"]):
        # First order a disjoint union of chains, so the number of up-sets
        # (and with it the work) is fixed by the chain lengths.
        n, h, r = O.chains_dp(rng, sz["coproduct_chains"][i % len(sz["coproduct_chains"])])

        def check(out, err, n=n, h=h, r=r, brute=i % 2 == 0):
            terms = parse_terms(out, D.parse_double_poset)
            if sum(c for c, _, _ in terms) != O.count_upsets(n, h):
                return False
            if not all(a.n + b.n == n and canonical(a) and canonical(b) for _, a, b in terms):
                return False
            got = {(a.identity_key(), b.identity_key()): c for c, a, b in terms}
            return not brute or got == coproduct_bruteforce(n, h, r)

        add("coproduct", ["coproduct", O.poset_text(n, h, r)], check)

    lo, hi = sz["pairing_n"]
    for i in range(sz["pairing"]):
        n, h, r = O.random_dp(rng, rng.randint(lo, hi))
        if i % 2:
            # Against a relabeled involution image there is always a picture.
            other = (n,) + O.relabeled(n, r, h, rng)
        else:
            other = O.random_dp(rng, n)

        def check(out, err, p=(n, h, r), q=other):
            got = int(out)
            if p[0] <= sz["brute_pairing_n"]:
                return got == D.pictures_count_bruteforce(dp(*p), dp(*q))
            return got == D.pictures_count(dp(*q), dp(*p))

        add("pairing", ["pairing", O.poset_text(n, h, r), O.poset_text(*other)], check)

    for _ in range(sz["star"]):
        total = rng.randint(3, sz["star_total"])
        a = rng.randint(1, total - 1)
        p, q = O.random_plane(rng, a), O.random_plane(rng, total - a)
        p, q = (a,) + O.relabeled(*p, rng), (total - a,) + O.relabeled(*q, rng)

        def check(out, err, p=p, q=q):
            terms = parse_terms(out, D.parse_double_poset)
            want = {}
            for ext in O.cross_extensions(p, q):
                k = D.canonical_key(dp(*ext))
                want[k] = want.get(k, 0) + 1
            return all(canonical(x) for _, x in terms) and {
                x.identity_key(): c for c, x in terms
            } == want

        add("star", ["star", O.poset_text(*p), O.poset_text(*q)], check)

    lo, hi = sz["product_n"]
    for _ in range(sz["product"]):
        op = rng.choice("gh")
        p, q = O.random_dp(rng, rng.randint(lo, hi)), O.random_dp(rng, rng.randint(lo, hi))
        want = D.canonical_key(dp(*O.compose([p, q], op)))

        def check(out, err, want=want):
            got = D.parse_double_poset(out)
            return canonical(got) and got.identity_key() == want

        add("product", ["product", "--op", op, O.poset_text(*p), O.poset_text(*q)], check)

    for _ in range(sz["factor"]):
        op = rng.choice("gh")
        parts = [O.random_dp(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        n, h, r = O.compose(parts, op)
        h, r = O.relabeled(n, h, r, rng)
        want = D.canonical_key(dp(n, h, r))

        def check(out, err, op=op, want=want, splits=O.count_splits(n, h, r, op)):
            factors = [pairs_of(D.parse_double_poset(t)) for t in out.splitlines()]
            return (
                len(factors) == splits + 1
                and all(O.count_splits(*f, op) == 0 for f in factors)
                and D.canonical_key(dp(*O.compose(factors, op))) == want
            )

        add("factor", ["factor", "--op", op, O.poset_text(n, h, r)], check)

    for _ in range(sz["operad"]):
        pattern, args = operad_inputs(rng, sz)
        texts = [
            O.indexed_text(*pairs_of(ip.base), ip.labels) for ip in [pattern] + args
        ]

        def check(out, err, pattern=pattern, args=args):
            got = {ip: c for c, ip in parse_terms(out, D.parse_indexed_poset)}
            return got == dict(D.compose_by_expansion(pattern, args).terms())

        add("operad-compose", ["operad-compose", texts[0], "--args", "; ".join(texts[1:])], check)

    lo, hi = sz["export_n"]
    for i in range(sz["export"]):
        n, h, r = O.random_dp(rng, rng.randint(lo, hi))
        if i % 2:
            def check(out, err, n=n, h=h, r=r):
                doc = json.loads(out)
                return (
                    doc["n"] == n
                    and {tuple(x) for x in doc["h"]} == h
                    and {tuple(x) for x in doc["r"]} == r
                )

            add("export", ["export", "--format", "json", O.poset_text(n, h, r)], check)
        else:
            def check(out, err, n=n, h=h):
                edges = [x for x in out.splitlines() if "->" in x and "invis" not in x]
                return out.startswith("digraph poset {") and len(edges) == O.hasse_cover_count(n, h)

            add("export", ["export", "--format", "dot", O.poset_text(n, h, r)], check)

    for i in range(sz["malformed"]):
        kind = ("cycle", "range", "nonplane", "grammar")[i % 4]
        add(f"malformed_{kind}", malformed(rng, kind),
            lambda out, err: out == "" and err.startswith("error:"), code=2)
    rng.shuffle(items)
    return [items]


WORKLOADS = {"gram": gram, "enumerate": enumerate_, "algebra": algebra, "oneshot": oneshot}

# Full sizes are the benchmark's workload definitions; "smoke" shrinks
# every workload so the benchmark's own test runs in seconds.
SIZES = {
    "gram": {
        "full": {
            "dp_n": 4,
            "matrix": 64,
            "brute": 24,
            "nondeg": (("wn", 5, 32), ("pp", 5, 32), ("wn", 6, 32), ("pp", 6, 32), ("dp", 4, 132)),
        },
        "smoke": {"dp_n": 3, "matrix": 10, "brute": 4, "nondeg": (("wn", 4, 6), ("dp", 3, 8))},
    },
    "enumerate": {
        "full": {
            "families": (("pf", 9), ("wn", 7), ("wnh", 7), ("pp", 7), ("dp", 4)),
            "posets": (5, 7),
            "queries": 720,
            "shares": 2,
            "wide": ((7, ()), (7, ((1, 2),))) + ((6, ()),) * 8,
            "crowns": 4,
        },
        "smoke": {
            "families": (("pf", 5), ("wn", 4), ("wnh", 4), ("pp", 4), ("dp", 2)),
            "posets": (3, 4),
            "queries": 3,
            "shares": 1,
            "wide": ((4, ()),),
            "crowns": 3,
        },
    },
    "algebra": {
        "full": {
            "coassoc": 16, "coassoc_n": (3, 5), "mult_g": 10, "infin_h": 12, "factor_n": 3,
            "deconcat": 12, "star": 16, "star_total": 5, "operad": 16, "operad_k": 3,
            "operad_total": 4,
        },
        "smoke": {
            "coassoc": 2, "coassoc_n": (2, 3), "mult_g": 2, "infin_h": 2, "factor_n": 2,
            "deconcat": 2, "star": 2, "star_total": 3, "operad": 2, "operad_k": 2,
            "operad_total": 3,
        },
    },
    "oneshot": {
        "full": {
            "classify": 24, "classify_n": (8, 12), "coproduct": 12,
            "coproduct_chains": ((3, 2, 2), (3, 3, 2), (3, 3, 3)),
            "pairing": 16, "pairing_n": (6, 8), "brute_pairing_n": 6, "star": 12,
            "star_total": 5, "product": 12, "product_n": (3, 5), "factor": 10, "operad": 12,
            "operad_k": 3, "operad_total": 4, "export": 12, "export_n": (4, 8), "malformed": 16,
        },
        "smoke": {
            "classify": 3, "classify_n": (4, 5), "coproduct": 2, "coproduct_chains": ((2, 1),),
            "pairing": 2, "pairing_n": (3, 4), "brute_pairing_n": 4, "star": 2,
            "star_total": 3, "product": 2, "product_n": (1, 2), "factor": 2, "operad": 2,
            "operad_k": 2, "operad_total": 3, "export": 2, "export_n": (2, 3), "malformed": 4,
        },
    },
}
