import os
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest

import doubleposets
from doubleposets import (
    EMPTY,
    EmptyListError,
    LabelError,
    LinComb,
    NotHConnectedError,
    NotPlaneError,
    NotWNError,
    RangeError,
    SizeMismatchError,
    b_mn,
    binfty_bracket,
    canonical_form,
    compose_by_expansion,
    compose_g,
    compose_h,
    compose_many,
    coproduct,
    extend_bilinear,
    indexed_poset,
    is_connected,
    is_wn,
    n_shape_completions,
    new_double_poset,
    operad_compose,
    phi,
    relabel,
    shift_labels,
    star,
)
from doubleposets.enumeration import enumerate_family

O = new_double_poset(1)
HC2 = new_double_poset(2, gen1=[(1, 2)])
RC2 = new_double_poset(2, gen2=[(1, 2)])
LAMBDA = canonical_form(
    new_double_poset(3, gen1=[(1, 3), (2, 3)], gen2=[(1, 2)])
)[0]
VEE = canonical_form(
    new_double_poset(3, gen1=[(1, 2), (1, 3)], gen2=[(2, 3)])
)[0]


def test_indexed_poset_canonicalizes_consistently():
    a = indexed_poset(HC2, (10, 20))
    # same decorated object presented through a relabeling
    b = indexed_poset(relabel(HC2, [2, 1]), (20, 10))
    assert a == b
    assert hash(a) == hash(b)
    assert a.n == 2
    assert a != indexed_poset(HC2, (20, 10))


def test_indexed_poset_rejects_bad_input():
    bad = n_shape_completions()[0]
    with pytest.raises(NotWNError):
        indexed_poset(bad, (1, 2, 3, 4))
    with pytest.raises(LabelError):
        indexed_poset(HC2, (1, 1))
    with pytest.raises(LabelError):
        indexed_poset(HC2, (1,))


def test_shift_labels():
    a = indexed_poset(RC2, (1, 2))
    s = shift_labels(a, 10)
    assert s.base == a.base
    assert s.labels == (11, 12)
    assert s != a


def test_b_mn_shape():
    ip = b_mn(2, 3)
    base = ip.base
    assert ip.labels == (1, 2, 3, 4, 5)
    expected = new_double_poset(
        5,
        gen1=[(i, j) for i in (1, 2) for j in (3, 4, 5)],
        gen2=[(1, 2), (3, 4), (4, 5)],
    )
    assert base == canonical_form(expected)[0]
    assert is_wn(base) and is_connected(base, 1)
    # the bracket poset stacks the two r-chains under the h-product
    a2 = compose_many([O, O], "g")
    a3 = compose_many([O, O, O], "g")
    assert base == compose_h(a2, a3)
    with pytest.raises(RangeError):
        b_mn(0, 1)
    with pytest.raises(RangeError):
        b_mn(1, 0)


def test_star_unit_and_grading():
    assert star(EMPTY, HC2) == LinComb.term(HC2)
    assert star(HC2, EMPTY) == LinComb.term(HC2)
    s = star(O, O)
    assert s == LinComb.term(HC2) + LinComb.term(RC2, 2)
    assert all(k.n == 2 for k, _ in s.terms())


def test_star_rejects_non_plane():
    flat = new_double_poset(2)
    with pytest.raises(NotPlaneError):
        star(flat, O)


def _shuffled(rng, p):
    perm = list(range(1, p.n + 1))
    rng.shuffle(perm)
    return relabel(p, tuple(perm))


def test_star_is_dual_to_the_coproduct(rng):
    pools = {n: enumerate_family("pp", n) for n in range(5)}
    for np in range(3):
        for nq in range(3):
            for p in pools[np]:
                for q in pools[nq]:
                    for s in (
                        star(p, q),
                        star(_shuffled(rng, p), _shuffled(rng, q)),
                    ):
                        for r in pools[np + nq]:
                            assert s.coefficient(r) == coproduct(r).coefficient(p, q)


def test_phi_values():
    assert phi(EMPTY) == LinComb.term(EMPTY)
    assert phi(O) == LinComb.term(O)
    assert phi(HC2) == LinComb.term(RC2)
    assert phi(RC2) == LinComb.term(HC2) + LinComb.term(RC2, 2)
    with pytest.raises(NotWNError):
        phi(n_shape_completions()[0])


def test_phi_intertwines_the_two_products():
    star_lin = extend_bilinear(star)
    g_lin = extend_bilinear(compose_g)
    pool = [p for n in (1, 2) for p in enumerate_family("wn", n)]
    for x in pool:
        for y in pool:
            assert phi(compose_g(x, y)) == star_lin(phi(x), phi(y)).filter_keys(
                is_wn
            )
            assert phi(compose_h(x, y)) == g_lin(phi(x), phi(y))


def test_bracket_small_values():
    assert binfty_bracket([O], [O]) == LinComb.term(HC2)
    assert binfty_bracket([O, O], [O]) == LinComb.term(LAMBDA)
    assert binfty_bracket([O], [O, O]) == LinComb.term(VEE)
    assert binfty_bracket([O, O], [O, O]) == LinComb.term(b_mn(2, 2).base)


def test_bracket_rejects_bad_arguments():
    with pytest.raises(EmptyListError):
        binfty_bracket([], [O])
    with pytest.raises(EmptyListError):
        binfty_bracket([O], ())
    with pytest.raises(NotWNError):
        binfty_bracket([n_shape_completions()[0]], [O])
    with pytest.raises(NotHConnectedError):
        binfty_bracket([RC2], [O])


def test_operad_units():
    unit = indexed_poset(O, (1,))
    x = indexed_poset(LAMBDA, (2, 3, 1))
    assert operad_compose(unit, [x]) == LinComb.term(x)
    pat = indexed_poset(HC2, (2, 1))
    assert operad_compose(pat, [unit, unit]) == LinComb.term(pat)


def test_operad_argument_validation():
    pat = indexed_poset(HC2, (1, 2))
    with pytest.raises(SizeMismatchError):
        operad_compose(pat, [indexed_poset(O, (1,))])
    with pytest.raises(LabelError):
        operad_compose(pat, [indexed_poset(O, (1,)), indexed_poset(O, (2,))])
    with pytest.raises(LabelError):
        operad_compose(
            indexed_poset(HC2, (1, 3)),
            [indexed_poset(O, (1,)), indexed_poset(O, (1,))],
        )


_DROP_OWN_STAR_TERM = """
import doubleposets.twoas as T
from doubleposets import indexed_poset, new_double_poset

if __debug__:
    raise SystemExit("expected to run under python -O")
star_indexed = T._star_indexed


def without_own_term(a, b):
    own = T.IndexedWNPoset._from_raw(
        T._compose_raw(a.base, b.base, "h"), a.labels + b.labels
    )
    out = star_indexed(a, b)
    del out[own]
    return out


T._star_indexed = without_own_term
unit = indexed_poset(new_double_poset(1), (1,))
pattern = indexed_poset(new_double_poset(2, gen1=[(1, 2)]), (1, 2))
try:
    T.operad_compose(pattern, [unit, unit])
except AssertionError as exc:
    print("raised:", exc)
else:
    raise SystemExit("operad_compose accepted a star without its own term")
"""


def test_operad_invariant_holds_under_optimize():
    src = Path(doubleposets.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_OWN_STAR_TERM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: poset must appear once in its own star\n"


def _compose_lin(pat_lin, arg_lins):
    out = LinComb.zero()
    for pat, cp in pat_lin.terms():
        for combo in iproduct(*[a.terms() for a in arg_lins]):
            coeff = cp
            args = []
            for t, c in combo:
                args.append(t)
                coeff = coeff * c
            out = out + coeff * operad_compose(pat, args)
    return out


def test_operad_associativity_instance():
    pat = indexed_poset(HC2, (1, 2))
    q1 = indexed_poset(O, (1,))
    q2 = indexed_poset(RC2, (2, 1))
    mid = operad_compose(pat, [q1, q2])
    r1 = indexed_poset(RC2, (1, 2))
    r2 = indexed_poset(O, (1,))
    r3 = indexed_poset(O, (1,))
    lhs = _compose_lin(mid, [LinComb.term(r1), LinComb.term(r2), LinComb.term(r3)])
    # argument slices follow the label blocks of q1 and q2
    inner1 = operad_compose(q1, [r1])
    inner2 = operad_compose(q2, [r2, r3])
    rhs = _compose_lin(LinComb.term(pat), [inner1, inner2])
    assert lhs == rhs
    assert not lhs.is_zero()


def test_expansion_oracle_agrees_with_direct_composition():
    unit = indexed_poset(O, (1,))
    patterns = [
        indexed_poset(HC2, (1, 2)),
        indexed_poset(RC2, (2, 1)),
        indexed_poset(LAMBDA, (1, 2, 3)),
        indexed_poset(VEE, (3, 1, 2)),
    ]
    argpools = {
        1: [unit],
        2: [indexed_poset(HC2, (1, 2)), indexed_poset(RC2, (1, 2))],
        3: [indexed_poset(LAMBDA, (2, 1, 3))],
    }
    for pat in patterns:
        k = pat.base.n
        for sizes in iproduct(*[range(1, 3)] * k):
            if sum(sizes) > 4:
                continue
            for args in iproduct(*[argpools[s] for s in sizes]):
                direct = operad_compose(pat, list(args))
                expanded = compose_by_expansion(pat, list(args))
                assert direct == expanded, (pat, args)
