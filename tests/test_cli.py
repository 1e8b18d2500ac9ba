from types import SimpleNamespace

import pytest

from doubleposets import cli

O_TEXT = "dp 1 h{} r{}"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lists_canonical_forms(capsys):
    code, out, err = run(capsys, "enumerate", "--class", "wn", "--n", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines == sorted(lines) or len(set(lines)) == 6


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "wn", "--n", "4", "--count-only")
    assert code == 0
    assert out == "22\n"


def test_classify_exact_line(capsys):
    code, out, _ = run(capsys, "classify", "dp 2 h{(1,2)} r{}")
    assert code == 0
    assert out == "plane=true wn=true forest=true h-connected=true\n"
    code, out, _ = run(capsys, "classify", "dp 2 h{} r{}")
    assert out == "plane=false wn=false forest=false h-connected=false\n"


def test_product_both_operations(capsys):
    _, out_g, _ = run(capsys, "product", "--op", "g", O_TEXT, O_TEXT)
    assert out_g == "dp 2 h{} r{(1,2)}\n"
    _, out_h, _ = run(capsys, "product", "--op", "h", O_TEXT, O_TEXT)
    assert out_h == "dp 2 h{(1,2)} r{}\n"


def test_factor_splits_a_chain(capsys):
    code, out, _ = run(capsys, "factor", "--op", "g", "dp 2 h{} r{(1,2)}")
    assert code == 0
    assert out.splitlines() == [O_TEXT, O_TEXT]


def test_coproduct_reduced(capsys):
    code, out, _ = run(capsys, "coproduct", "--reduced", "dp 2 h{(1,2)} r{}")
    assert code == 0
    assert out == f"1 * {O_TEXT} (x) {O_TEXT}\n"


def test_coproduct_full_has_trivial_terms(capsys):
    code, out, _ = run(capsys, "coproduct", O_TEXT)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2
    assert f"1 * dp 0 h{{}} r{{}} (x) {O_TEXT}" in lines
    assert f"1 * {O_TEXT} (x) dp 0 h{{}} r{{}}" in lines


def test_deconcat_three_terms(capsys):
    code, out, _ = run(capsys, "deconcat", "dp 2 h{} r{(1,2)}")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_pairing_singletons(capsys):
    code, out, _ = run(capsys, "pairing", O_TEXT, O_TEXT)
    assert code == 0
    assert out == "1\n"


def test_pairing_matrix_shape(capsys):
    code, out, _ = run(capsys, "pairing-matrix", "--class", "pp", "--n", "2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4
    assert all(v.lstrip("-").isdigit() for row in lines[2:] for v in row.split())


def test_pairing_matrix_xy_order_triangular(capsys):
    code, out, _ = run(
        capsys, "pairing-matrix", "--class", "pp", "--n", "3", "--xy-order"
    )
    lines = out.splitlines()
    assert code == 0 and len(lines) == 12
    rows = [[int(v) for v in line.split()] for line in lines[6:]]
    perm = []
    for j in range(6):
        col = [i for i in range(6) if rows[i][j]]
        assert col, "every column must hit the diagonal transversal"
        perm.append(min(col))
    assert sorted(perm) == list(range(6))


def test_nondegenerate_verdict_line(capsys):
    code, out, _ = run(capsys, "nondegenerate", "--class", "pp", "--n", "3")
    assert code == 0
    assert out == "full-rank=true rank=6 size=6 method=elimination\n"


def test_nondegenerate_failure_exit(capsys, monkeypatch):
    fake = SimpleNamespace(full_rank=False, rank=1, size=2, method="elimination")
    monkeypatch.setattr(cli, "nondegeneracy_check", lambda basis: fake)
    code, out, _ = run(capsys, "nondegenerate", "--class", "pp", "--n", "2")
    assert code == 1
    assert out == "full-rank=false rank=1 size=2 method=elimination\n"


def test_star_output(capsys):
    code, out, _ = run(capsys, "star", O_TEXT, O_TEXT)
    assert code == 0
    assert out == "2 * dp 2 h{} r{(1,2)}\n1 * dp 2 h{(1,2)} r{}\n"


def test_phi_output(capsys):
    code, out, _ = run(capsys, "phi", "dp 2 h{(1,2)} r{}")
    assert code == 0
    assert out == "1 * dp 2 h{} r{(1,2)}\n"


def test_binfty_singleton_bracket(capsys):
    code, out, _ = run(capsys, "binfty", "--left", O_TEXT, "--right", O_TEXT)
    assert code == 0
    assert out == "1 * dp 2 h{(1,2)} r{}\n"


def test_binfty_rejects_empty_list(capsys):
    code, out, err = run(capsys, "binfty", "--left", " ; ", "--right", O_TEXT)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--left" in err


def test_operad_compose_unit(capsys):
    code, out, _ = run(
        capsys,
        "operad-compose",
        "idp dp 1 h{} r{} lab{1:1}",
        "--args",
        "idp dp 2 h{(1,2)} r{} lab{1:1,2:2}",
    )
    assert code == 0
    assert out == "1 * idp dp 2 h{(1,2)} r{} lab{1:1,2:2}\n"


def test_operad_compose_block(capsys):
    code, out, _ = run(
        capsys,
        "operad-compose",
        "idp dp 2 h{(1,2)} r{} lab{1:1,2:2}",
        "--args",
        f"idp {O_TEXT} lab{{1:1}}; idp {O_TEXT} lab{{1:1}}",
    )
    assert code == 0
    assert out == "1 * idp dp 2 h{(1,2)} r{} lab{1:1,2:2}\n"


def test_complete_plane_two_antichain(capsys):
    code, out, _ = run(capsys, "complete", "--target", "plane", "sp 2 le{}")
    assert code == 0
    assert out.splitlines() == ["dp 2 h{} r{(1,2)}"]


def test_complete_plane_two_long_chains(capsys):
    # Two disjoint 50-chains: far more incomparable pairs than the
    # interpreter's recursion limit allows frames.
    chains = ",".join(
        f"({i},{i + 1})" for i in list(range(1, 50)) + list(range(51, 100))
    )
    code, out, err = run(capsys, "complete", "--target", "plane", f"sp 100 le{{{chains}}}")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1


def test_complete_plane_wide_antichain(capsys):
    # Interchangeable vertices are placed in one union order only, so a
    # 40-point antichain walks one pair of linear orders instead of 40!.
    code, out, err = run(capsys, "complete", "--target", "plane", "sp 40 le{}")
    chain = ",".join(f"({i},{j})" for i in range(1, 41) for j in range(i + 1, 41))
    assert code == 0 and err == ""
    assert out == f"dp 40 h{{}} r{{{chain}}}\n"


def test_complete_wn_filters(capsys):
    code, out, _ = run(capsys, "complete", "--target", "wn", "sp 1 le{}")
    assert code == 0
    assert out == O_TEXT + "\n"


def test_crown_poset_text(capsys):
    code, out, _ = run(capsys, "crown", "2")
    assert code == 0
    assert out == "sp 4 le{(1,3),(1,4),(2,3),(2,4)}\n"


def test_crown_size_cap(capsys):
    code, out, _ = run(capsys, "crown", "256")
    assert code == 0
    assert out.startswith("sp 512 le{(1,257),(1,258),")
    for n in ("257", "100000000"):
        code, out, err = run(capsys, "crown", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "512" in err


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "sequences", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("passed, 0 failed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_check_suite_failure_exit(capsys, monkeypatch):
    rows = [
        SimpleNamespace(ok=True, name="good", detail=""),
        SimpleNamespace(ok=False, name="bad", detail="mismatch at n=2"),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda name, max_n: rows)
    code, out, _ = run(capsys, "check", "--suite", "hopf", "--max-n", "2")
    assert code == 1
    assert out == "PASS good\nFAIL bad: mismatch at n=2\n1 passed, 1 failed\n"


@pytest.mark.parametrize("suite", ["hopf", "operad", "pairing", "sequences"])
def test_check_negative_max_n_exits_two(capsys, suite):
    code, out, err = run(capsys, "check", "--suite", suite, "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "-1" in err


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "--format", "json", O_TEXT)
    assert code == 0
    assert out == '{"n":1,"h":[],"r":[]}\n'


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--format", "dot", "dp 2 h{(1,2)} r{}")
    assert code == 0
    assert out.startswith("digraph poset {\n")
    assert "v1 -> v2;" in out


def test_bad_grammar_exits_two(capsys):
    code, out, err = run(capsys, "classify", "dp x h{} r{}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "integer" in err


@pytest.mark.parametrize(
    "text",
    [
        "dp 99999999999999999999 h{} r{}",
        "dp 1 h{(1," + "9" * 5000 + ")} r{}",
    ],
)
def test_oversized_integer_exits_two(capsys, text):
    code, out, err = run(capsys, "classify", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "dp 100000000 h{} r{}"),
        ("pairing", "dp 1100 h{} r{}", "dp 1100 h{} r{}"),
    ],
)
def test_oversized_vertex_count_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "vertex count" in err


def test_usage_error_exits_two(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "command" in out


def test_reruns_are_byte_identical(capsys):
    first = run(capsys, "star", "dp 2 h{(1,2)} r{}", "dp 2 h{} r{(1,2)}")
    second = run(capsys, "star", "dp 2 h{(1,2)} r{}", "dp 2 h{} r{(1,2)}")
    assert first == second
    third = run(capsys, "enumerate", "--class", "dp", "--n", "3")
    fourth = run(capsys, "enumerate", "--class", "dp", "--n", "3")
    assert third == fourth


def test_json_round_trip_through_cli(capsys):
    import json as _json

    from doubleposets import enumerate_family, format_double_poset, new_double_poset

    for n in range(1, 5):
        for p in enumerate_family("wn", n):
            code, out, _ = run(capsys, "export", "--format", "json", format_double_poset(p))
            assert code == 0
            doc = _json.loads(out)
            rebuilt = new_double_poset(
                doc["n"],
                [tuple(e) for e in doc["h"]],
                [tuple(e) for e in doc["r"]],
            )
            assert rebuilt == p
