"""Linear combinations and the two coproducts.

coproduct splits a poset along its up-closed subsets of the first
order; deconcat_coproduct_g splits along the g-factorization.  LinComb
holds exact rational coefficients keyed by canonical representatives,
and its subclass TensorComb keys them by (left, right) pairs; no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    EMPTY,
    EmptyInputError,
    canonical_form,
    induced_subposet,
    _bits,
    _upset_masks,
)
from .products import compose_many, factorize


def _add_scaled(acc, img, c):
    """acc += c * img, where img is a basis key or a LinComb."""
    if isinstance(img, LinComb):
        for k, ck in img._terms.items():
            acc[k] = acc.get(k, 0) + c * ck
    else:
        acc[img] = acc.get(img, 0) + c


class LinComb:
    """Immutable linear combination with exact rational coefficients.

    Keys are canonical basis objects exposing sort_key(); zero
    coefficients are never stored.  The algebra layers always insert
    canonical representatives, so key equality is isoclass equality.
    Arithmetic keeps the operands' type, and combinations of different
    types never compare equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    d[k] = c
        self._terms = d

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def term(cls, key, coeff=1):
        return cls({key: coeff})

    @staticmethod
    def _sort_key(k):
        return k.sort_key()

    def terms(self):
        """Sorted (key, coefficient) pairs."""
        return tuple(
            (k, self._terms[k]) for k in sorted(self._terms, key=self._sort_key)
        )

    def coefficient(self, key):
        return self._terms.get(key, Fraction(0))

    def is_zero(self):
        return not self._terms

    def support(self):
        return frozenset(self._terms)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self._terms)
        for k, c in other._terms.items():
            d[k] = d.get(k, 0) + c
        return type(self)(d)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return type(self)({k: -c for k, c in self._terms.items()})

    def __rmul__(self, scalar):
        c = Fraction(scalar)
        return type(self)({k: c * v for k, v in self._terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return type(self) is type(other) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def map_keys(self, f):
        """Linear extension of a basis map key -> key or key -> LinComb."""
        out = {}
        for k, c in self._terms.items():
            _add_scaled(out, f(k), c)
        return LinComb(out)

    def filter_keys(self, pred):
        return type(self)({k: c for k, c in self._terms.items() if pred(k)})

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"
        bits = ", ".join(f"{c}*{k!r}" for k, c in self.terms())
        return f"LinComb({bits})"


def extend_bilinear(f):
    """Lift a bilinear basis operation to LinComb x LinComb.

    f(a, b) may return a basis key or a LinComb.
    """

    def lifted(x, y):
        out = {}
        for a, ca in x._terms.items():
            for b, cb in y._terms.items():
                _add_scaled(out, f(a, b), ca * cb)
        return LinComb(out)

    return lifted


class TensorComb(LinComb):
    """LinComb keyed by ordered tensor pairs (left, right)."""

    __slots__ = ()

    @classmethod
    def term(cls, left, right, coeff=1):
        return cls({(left, right): coeff})

    @staticmethod
    def _sort_key(k):
        return (k[0].sort_key(), k[1].sort_key())

    def coefficient(self, left, right):
        return self._terms.get((left, right), Fraction(0))

    def componentwise(self, op, other):
        """(a1 (x) a2) . (b1 (x) b2) = (a1 op b1) (x) (a2 op b2)."""
        out = {}
        for (a1, a2), ca in self._terms.items():
            for (b1, b2), cb in other._terms.items():
                k = (op(a1, b1), op(a2, b2))
                out[k] = out.get(k, 0) + ca * cb
        return TensorComb(out)

    def map_pairs(self, f):
        """Linear extension of (left, right) -> value into a LinComb."""
        out = {}
        for (a, b), c in self._terms.items():
            _add_scaled(out, f(a, b), c)
        return LinComb(out)

    def __repr__(self):
        if not self._terms:
            return "TensorComb(0)"
        bits = ", ".join(f"{c}*({a!r} (x) {b!r})" for (a, b), c in self.terms())
        return f"TensorComb({bits})"


def _extend_linearly(f, x):
    """Sum of c * f(p) over the terms c * p of a LinComb, as a TensorComb."""
    out = {}
    for p, c in x._terms.items():
        _add_scaled(out, f(p), c)
    return TensorComb(out)


def ideals(p):
    """All up-closed subsets of the first order, as frozensets of vertices."""
    sets = [frozenset(b + 1 for b in _bits(m)) for m in _upset_masks(p)]
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


def _split(p, mask):
    """(rest, part) canonical pair for an up-set given as a bitmask."""
    inside = [b + 1 for b in _bits(mask)]
    outside = [v for v in range(1, p.n + 1) if not (mask >> (v - 1)) & 1]
    left = canonical_form(induced_subposet(p, outside))[0]
    right = canonical_form(induced_subposet(p, inside))[0]
    return left, right


def coproduct(x):
    """Sum of (P minus I) tensor I over up-closed I; linear in LinComb input."""
    if isinstance(x, LinComb):
        return _extend_linearly(coproduct, x)
    acc = {}
    for mask in _upset_masks(x):
        k = _split(x, mask)
        acc[k] = acc.get(k, 0) + 1
    return TensorComb(acc)


def reduced_coproduct(x):
    """coproduct minus the two trivial terms; rejects the empty poset."""
    if isinstance(x, LinComb):
        return _extend_linearly(reduced_coproduct, x)
    if x.n == 0:
        raise EmptyInputError("reduced coproduct needs a nonempty poset")
    p = canonical_form(x)[0]
    return (
        coproduct(p)
        - TensorComb.term(p, EMPTY)
        - TensorComb.term(EMPTY, p)
    )


def deconcat_coproduct_g(x):
    """Deconcatenation along the g-factorization.

    With P = P1 g ... g Pr this is the sum over i of
    (P1 g ... g Pi) tensor (P(i+1) g ... g Pr), including both trivial
    splits.  The left sizes grow strictly with i, so no two splits
    share a key.
    """
    if isinstance(x, LinComb):
        return _extend_linearly(deconcat_coproduct_g, x)
    factors = factorize(x, "g").factors
    return TensorComb(
        {
            (compose_many(factors[:i], "g"), compose_many(factors[i:], "g")): 1
            for i in range(len(factors) + 1)
        }
    )
