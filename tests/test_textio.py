import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleposets import (
    ParseError,
    enumerate_family,
    format_double_poset,
    format_indexed_poset,
    format_lincomb,
    format_single_poset,
    format_tensorcomb,
    indexed_poset,
    new_double_poset,
    new_single_poset,
    parse_double_poset,
    parse_indexed_poset,
    parse_single_poset,
    to_dot,
    to_json,
)
from doubleposets.hopf import LinComb, TensorComb
from doubleposets.textio import MAX_VERTICES

O = new_double_poset(1)
HC2 = new_double_poset(2, gen1=[(1, 2)])
RC2 = new_double_poset(2, gen2=[(1, 2)])


def ascending_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@st.composite
def double_posets(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = ascending_pairs(n)
    gen1 = draw(st.sets(st.sampled_from(pool))) if pool else set()
    gen2 = draw(st.sets(st.sampled_from(pool))) if pool else set()
    return new_double_poset(n, sorted(gen1), sorted(gen2))


@st.composite
def single_posets(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = ascending_pairs(n)
    gens = draw(st.sets(st.sampled_from(pool))) if pool else set()
    return new_single_poset(n, sorted(gens))


@st.composite
def indexed_posets(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    base = draw(st.sampled_from(enumerate_family("wn", n)))
    labels = draw(st.permutations(range(1, n + 1)))
    return indexed_poset(base, tuple(labels))


@given(double_posets())
@settings(max_examples=200, deadline=None)
def test_double_poset_round_trip(p):
    assert parse_double_poset(format_double_poset(p)) == p


@given(single_posets())
@settings(max_examples=200, deadline=None)
def test_single_poset_round_trip(q):
    assert parse_single_poset(format_single_poset(q)) == q


@given(indexed_posets())
@settings(max_examples=150, deadline=None)
def test_indexed_poset_round_trip(ip):
    assert parse_indexed_poset(format_indexed_poset(ip)) == ip


@given(double_posets())
@settings(max_examples=100, deadline=None)
def test_parsing_ignores_whitespace(p):
    text = format_double_poset(p)
    spaced = text.replace(",", " , ").replace("{", " {  ")
    assert parse_double_poset(spaced) == p


@given(double_posets(max_n=4))
@settings(max_examples=100, deadline=None)
def test_json_export_carries_the_full_relations(p):
    doc = json.loads(to_json(p))
    assert doc["n"] == p.n
    rebuilt = new_double_poset(
        doc["n"],
        [tuple(e) for e in doc["h"]],
        [tuple(e) for e in doc["r"]],
    )
    assert rebuilt == p


def test_parse_error_names_the_production():
    with pytest.raises(ParseError, match="poset"):
        parse_double_poset("dp two h{} r{}")
    with pytest.raises(ParseError, match=r"h\{\.\.\.\}"):
        parse_double_poset("dp 2 h[(1,2)] r{}")
    with pytest.raises(ParseError, match="trailing input"):
        parse_double_poset("dp 1 h{} r{} extra")
    with pytest.raises(ParseError, match="single poset"):
        parse_single_poset("sp 2 le{(1,2}")
    with pytest.raises(ParseError, match=r"lab\{i:l,\.\.\.\}"):
        parse_indexed_poset("idp dp 1 h{} r{} lab{1;1}")


def test_vertex_count_is_capped():
    assert parse_double_poset(f"dp {MAX_VERTICES} h{{}} r{{}}").n == MAX_VERTICES
    too_many = MAX_VERTICES + 1
    with pytest.raises(ParseError, match="vertex count"):
        parse_double_poset(f"dp {too_many} h{{}} r{{}}")
    with pytest.raises(ParseError, match="vertex count"):
        parse_single_poset(f"sp {too_many} le{{}}")
    with pytest.raises(ParseError, match="vertex count"):
        parse_indexed_poset(f"idp dp {too_many} h{{}} r{{}} lab{{1:1}}")


def test_parse_indexed_poset_label_constraints():
    with pytest.raises(ParseError, match="labeled twice"):
        parse_indexed_poset("idp dp 2 h{(1,2)} r{} lab{1:1,1:2}")
    with pytest.raises(ParseError, match="exactly once"):
        parse_indexed_poset("idp dp 2 h{(1,2)} r{} lab{1:1}")
    with pytest.raises(ParseError, match="exactly once"):
        parse_indexed_poset("idp dp 2 h{(1,2)} r{} lab{1:1,3:2}")


def test_format_prints_full_strict_relations():
    chain = new_double_poset(3, gen1=[(1, 2), (2, 3)])
    assert format_double_poset(chain) == "dp 3 h{(1,2),(1,3),(2,3)} r{}"
    assert format_double_poset(new_double_poset(0)) == "dp 0 h{} r{}"
    assert format_single_poset(new_single_poset(2, [(2, 1)])) == "sp 2 le{(2,1)}"


def test_format_lincomb_sorted_and_stable():
    x = LinComb.term(RC2, 3) + LinComb.term(HC2)
    text = format_lincomb(x)
    assert text == "3 * dp 2 h{} r{(1,2)}\n1 * dp 2 h{(1,2)} r{}"
    assert format_lincomb(LinComb.zero()) == "0"
    assert format_lincomb(x) == text


def test_format_tensorcomb():
    t = TensorComb.term(O, HC2, 2)
    assert format_tensorcomb(t) == "2 * dp 1 h{} r{} (x) dp 2 h{(1,2)} r{}"
    assert format_tensorcomb(TensorComb.zero()) == "0"


def test_dot_output_is_deterministic_and_ranked():
    lam = new_double_poset(3, gen1=[(1, 3), (2, 3)], gen2=[(1, 2)])
    text = to_dot(lam)
    assert text == to_dot(lam)
    assert text.splitlines()[0] == "digraph poset {"
    assert "v1 -> v3;" in text and "v2 -> v3;" in text
    assert "v1 -> v2 [style=invis];" in text
    assert "rank=same" in text


def test_dot_handles_non_plane_posets():
    flat = new_double_poset(2)
    text = to_dot(flat)
    assert "invis" not in text
    assert "{ rank=same; v1; v2; }" in text
