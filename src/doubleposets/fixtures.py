"""Hand-checked small-degree values used by the check suites and tests.

Everything here is data: named small posets, the reduced-coproduct
table, the involution table, the degree 1..3 pairing matrices, the
degree <= 4 dual-product expansions, and the counting sequences.
"""

from __future__ import annotations

from .core import (
    canonical_form,
    involution,
    new_double_poset,
    n_shape_completions,
)
from .hopf import LinComb, TensorComb
from .products import compose_many


def _g(*xs):
    return compose_many(xs, "g")


def _h(*xs):
    return compose_many(xs, "h")


O = new_double_poset(1)
HC2 = _h(O, O)
HC3 = _h(O, O, O)
HC4 = _h(O, O, O, O)
RC2 = _g(O, O)
RC3 = _g(O, O, O)
RC4 = _g(O, O, O, O)
VEE = _h(O, RC2)
WEDGE = _h(RC2, O)

T41 = _h(O, RC3)
T42 = _h(O, _g(HC2, O))
T43 = _h(O, _g(O, HC2))
T44 = _h(O, O, RC2)
P41 = _h(RC3, O)
P42 = _h(_g(HC2, O), O)
P43 = _h(_g(O, HC2), O)
P44 = _h(RC2, O, O)
P47 = _h(RC2, RC2)
P48 = _h(O, RC2, O)

# The two plane posets on 4 vertices that are not WN: the same first
# order with the two possible second orders.
N1 = canonical_form(
    new_double_poset(
        4, gen1=[(1, 3), (2, 3), (2, 4)], gen2=[(2, 1), (4, 3), (4, 1)]
    )
)[0]
N2 = canonical_form(
    new_double_poset(
        4, gen1=[(1, 3), (2, 3), (2, 4)], gen2=[(1, 2), (3, 4), (1, 4)]
    )
)[0]

if set(n_shape_completions()) != {N1, N2}:
    raise AssertionError("N1, N2 are not the two zigzag completions")
if involution(N1) != N2:
    raise AssertionError("the involution does not swap N1 and N2")

NAMED = {
    "o": O,
    "hc2": HC2,
    "hc3": HC3,
    "hc4": HC4,
    "rc2": RC2,
    "rc3": RC3,
    "vee": VEE,
    "wedge": WEDGE,
}


def _tens(*entries):
    out = TensorComb.zero()
    for coeff, a, b in entries:
        out = out + coeff * TensorComb.term(a, b)
    return out


def reduced_coproduct_table():
    """All hand-checked reduced-coproduct values on 2..4 vertices."""
    return (
        (HC2, _tens((1, O, O))),
        (VEE, _tens((2, HC2, O), (1, O, RC2))),
        (HC3, _tens((1, O, HC2), (1, HC2, O))),
        (WEDGE, _tens((1, RC2, O), (2, O, HC2))),
        (
            T41,
            _tens((1, O, RC3), (3, HC2, RC2), (3, VEE, O)),
        ),
        (
            T42,
            _tens(
                (1, HC3, O),
                (1, VEE, O),
                (1, HC2, HC2),
                (1, HC2, RC2),
                (1, O, _g(HC2, O)),
            ),
        ),
        (
            T43,
            _tens(
                (1, HC3, O),
                (1, VEE, O),
                (1, HC2, HC2),
                (1, HC2, RC2),
                (1, O, _g(O, HC2)),
            ),
        ),
        (T44, _tens((2, HC3, O), (1, O, VEE), (1, HC2, RC2))),
        (HC4, _tens((1, O, HC3), (1, HC2, HC2), (1, HC3, O))),
        (
            P41,
            _tens((1, RC3, O), (3, RC2, HC2), (3, O, WEDGE)),
        ),
        (
            P42,
            _tens(
                (1, O, HC3),
                (1, O, WEDGE),
                (1, HC2, HC2),
                (1, RC2, HC2),
                (1, _g(HC2, O), O),
            ),
        ),
        (
            P43,
            _tens(
                (1, O, HC3),
                (1, O, WEDGE),
                (1, HC2, HC2),
                (1, RC2, HC2),
                (1, _g(O, HC2), O),
            ),
        ),
        (P44, _tens((2, O, HC3), (1, WEDGE, O), (1, RC2, HC2))),
        (
            N1,
            _tens(
                (1, _g(HC2, O), O),
                (1, WEDGE, O),
                (1, HC2, HC2),
                (1, RC2, RC2),
                (1, O, _g(O, HC2)),
                (1, O, VEE),
            ),
        ),
        (
            N2,
            _tens(
                (1, _g(O, HC2), O),
                (1, WEDGE, O),
                (1, HC2, HC2),
                (1, RC2, RC2),
                (1, O, _g(HC2, O)),
                (1, O, VEE),
            ),
        ),
        (P47, _tens((2, WEDGE, O), (2, O, VEE), (1, RC2, RC2))),
        (P48, _tens((1, VEE, O), (2, HC2, HC2), (1, O, WEDGE))),
    )


def involution_table():
    """Hand-checked involution pairs on 1..4 vertices."""
    return (
        (O, O),
        (RC2, HC2),
        (RC3, HC3),
        (_g(O, HC2), VEE),
        (_g(HC2, O), WEDGE),
        (RC4, HC4),
        (_g(O, O, HC2), T44),
        (_g(O, HC2, O), P48),
        (_g(O, WEDGE), T42),
        (_g(O, VEE), T43),
        (_g(O, HC3), T41),
        (_g(HC2, O, O), P44),
        (_g(HC2, HC2), P47),
        (_g(WEDGE, O), P42),
        (P41, _g(HC3, O)),
        (N2, N1),
        (P43, _g(VEE, O)),
    )


def pairing_matrix_tables():
    """Displayed pairing matrices on 1..3 vertex plane bases."""
    return {
        1: ((O,), ((1,),)),
        2: ((HC2, RC2), ((0, 1), (1, 2))),
        3: (
            (HC3, VEE, WEDGE, _g(HC2, O), _g(O, HC2), RC3),
            (
                (0, 0, 0, 0, 0, 1),
                (0, 0, 0, 0, 1, 2),
                (0, 0, 0, 1, 0, 2),
                (0, 0, 1, 1, 1, 3),
                (0, 1, 0, 1, 1, 3),
                (1, 2, 2, 3, 3, 6),
            ),
        ),
    }


def _lin(*entries):
    out = LinComb.zero()
    for coeff, key in entries:
        out = out + coeff * LinComb.term(key)
    return out


def star_table():
    """Hand-checked dual-product expansions."""
    return (
        (
            O,
            HC2,
            _lin((1, _g(O, HC2)), (1, _g(HC2, O)), (2, WEDGE), (1, HC3)),
        ),
        (
            HC2,
            O,
            _lin((1, _g(O, HC2)), (1, _g(HC2, O)), (2, VEE), (1, HC3)),
        ),
        (
            HC2,
            HC2,
            _lin(
                (2, _g(HC2, HC2)),
                (1, N2),
                (1, N1),
                (1, P42),
                (1, P43),
                (1, T42),
                (1, T43),
                (2, P48),
                (1, HC4),
            ),
        ),
    )


PP_COUNTS = (1, 1, 2, 6, 24, 120, 720)
WNP_COUNTS = (1, 1, 2, 6, 22, 90, 394, 1806)
WNP_H_COUNTS = (1, 1, 3, 11, 45, 197, 903)  # n = 1..7
PF_COUNTS = (1, 2, 5, 14)  # n = 1..4
