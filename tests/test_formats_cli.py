import json
import random

import pytest

from sailfree.cli import main
from sailfree.constructions import ConstructionSpec, build, transversal_design
from sailfree.core import Triple, make_system
from sailfree.errors import LinearityViolation, ParseError, RoleShapeMismatch
from sailfree.formats import parse_system, serialize_system, system_to_json
from sailfree.verify import formula_value, infer_k, table, verify_report

from conftest import SAIL7_EDGES, random_linear_system


# --- formats ---------------------------------------------------------------


def test_parse_minimal():
    s = parse_system("3 1\n0 1 2\n")
    assert s.edges == (Triple(0, 1, 2),)


def test_parse_rejects_nonlinear():
    with pytest.raises(LinearityViolation):
        parse_system("4 2\n0 1 2\n0 1 3\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_system("3 1\n0 1 x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_system("")
    with pytest.raises(ParseError):
        parse_system("5 2\n0 1 2\n")  # promised two edges


def test_roundtrip_text_and_json():
    rng = random.Random(6)
    corpus = [build(ConstructionSpec(v, 3)) for v in ("c1", "c2", "c3", "c4")]
    corpus += [transversal_design(3), make_system(5, [])]
    corpus += [random_linear_system(9, rng) for _ in range(20)]
    for s in corpus:
        assert parse_system(serialize_system(s)) == s
        assert parse_system(system_to_json(s)) == s


def test_serialize_normalizes():
    text = "# noise\n\n6 2\n4 2 0\n1 3 5\n"
    s = parse_system(text)
    assert serialize_system(s) == "6 2\n0 2 4\n1 3 5\n"


def test_comments_survive_parsing():
    s = build(ConstructionSpec("td", 2))
    text = serialize_system(s, ("alpha", "beta"))
    assert text.startswith("# alpha\n# beta\n")
    assert parse_system(text) == s


# --- verify ----------------------------------------------------------------


def test_formula_values():
    assert formula_value(9) == (9, "k^2 (k=3)")
    assert formula_value(10) == (10, "k^2+1 (k=3)")
    assert formula_value(8) == (6, "k^2+k (k=2)")
    assert formula_value(7)[0] is None
    assert "k<3" in formula_value(4)[1]


def test_infer_k():
    assert infer_k(10, "extremal-3k+1") == 3
    assert infer_k(9, "td") == 3
    assert infer_k(8, "truncated") == 2
    assert infer_k(11) == 3
    with pytest.raises(RoleShapeMismatch):
        infer_k(9, "extremal-3k+1")


def test_verify_report_extremal_pass():
    s = build(ConstructionSpec("c2", 3))
    rep = verify_report(s, role="extremal-3k+1")
    assert rep.role_pass and rep.passed
    assert rep.k == 3 and rep.max_degree == 3 and rep.deficiency_total == 0


def test_verify_report_td_and_truncated():
    rep = verify_report(transversal_design(3), role="td")
    assert rep.role_pass and rep.m == 9
    from sailfree.constructions import truncated_design
    rep = verify_report(truncated_design(2), role="truncated")
    assert rep.role_pass and rep.m == 6


def test_verify_report_sail_fails():
    s = make_system(7, SAIL7_EDGES)
    rep = verify_report(s)
    assert rep.sail_witness is not None and not rep.passed
    with pytest.raises(RoleShapeMismatch):
        verify_report(s, role="td")


def test_verify_report_wrong_size_fails_role():
    rep = verify_report(transversal_design(3), role="extremal-3k+1", k=3)
    assert rep.role_pass is False


def test_table_rows():
    rows = table(4, 6)
    assert [(r.n, r.max_edges, r.verdict) for r in rows] == [
        (4, 1, "no formula"),
        (5, 2, "match"),
        (6, 4, "match"),
    ]
    assert all(r.exhausted for r in rows)
    with pytest.raises(ValueError):
        table(3, 5)


# --- cli -------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_construct_check_roundtrip(tmp_path, capsys):
    for variant, k in [("c1", "3"), ("c2", "3"), ("c3", "3"), ("c4", "3"),
                       ("td", "3"), ("truncated", "2")]:
        out = tmp_path / f"{variant}.txt"
        assert run_cli("construct", "--type", variant, "--k", k,
                       "--out", str(out)) == 0
        role = {"c1": "extremal-3k+1", "c2": "extremal-3k+1", "c3": "extremal-3k+1",
                "c4": "extremal-3k+1", "td": "td", "truncated": "truncated"}[variant]
        assert run_cli("check", str(out), "--role", role) == 0
        capsys.readouterr()


def test_cli_construct_is_reproducible_from_header(tmp_path):
    out = tmp_path / "c1.txt"
    assert run_cli("construct", "--type", "c1", "--k", "4", "--seed", "9",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("#")
    reparsed = parse_system(text)
    again = build(ConstructionSpec("c1", 4, seed=9))
    assert reparsed == again


def test_cli_check_sail_fixture_exits_1(tmp_path, capsys):
    f = tmp_path / "sail.txt"
    f.write_text(serialize_system(make_system(7, SAIL7_EDGES)))
    code = run_cli("check", str(f))
    captured = capsys.readouterr()
    assert code == 1
    assert "apex 0" in captured.out
    assert "(1, 3, 5)" in captured.out


def test_cli_check_nonlinear_file_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("4 2\n0 1 2\n0 1 3\n")
    assert run_cli("check", str(f)) == 1
    assert "share" in capsys.readouterr().out
    # wrongly typed JSON is a parse failure, not a traceback
    for text in ('{"n": "10", "edges": []}', '{"n": 4, "edges": [[0, 1.5, 2]]}',
                 '{"n": 4, "edges": 5}'):
        f.write_text(text)
        assert run_cli("check", str(f)) == 1, text
        assert "FAIL" in capsys.readouterr().out


def test_cli_check_json(tmp_path, capsys):
    f = tmp_path / "td.txt"
    f.write_text(serialize_system(transversal_design(3)))
    assert run_cli("check", str(f), "--role", "td", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["m"] == 9


def test_cli_search_and_json(capsys):
    assert run_cli("search", "--n", "6", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_edges"] == 4 and payload["exhausted"]


def test_cli_search_limit_exit_code(capsys):
    # n=8 needs a full exploration (the degree bound 7 is not attained),
    # so a tiny node budget must surface as exit code 3
    assert run_cli("search", "--n", "8", "--node-limit", "3") == 3
    # a negative budget is a usage error, not an unproven maximum
    assert run_cli("search", "--n", "8", "--node-limit", "-5") == 2
    assert run_cli("search", "--n", "8", "--time-limit", "-1") == 2
    capsys.readouterr()


def test_cli_search_enumerate(capsys):
    assert run_cli("search", "--n", "6", "--target", "4", "--enumerate") == 0
    out = capsys.readouterr().out
    assert "1 isomorphism classes" in out


def test_cli_canon_and_iso(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(serialize_system(transversal_design(3)))
    b.write_text(serialize_system(transversal_design(3, seed=5)))
    assert run_cli("canon", str(a)) == 0
    first = capsys.readouterr().out
    assert run_cli("canon", str(b)) == 0
    second = capsys.readouterr().out
    strip = lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("#"))
    assert strip(first) == strip(second)
    assert run_cli("iso", str(a), str(b)) == 0
    capsys.readouterr()
    c = tmp_path / "c.txt"
    c.write_text(serialize_system(make_system(9, [(0, 1, 2)])))
    assert run_cli("iso", str(a), str(c)) == 1
    capsys.readouterr()


def test_cli_table(capsys):
    assert run_cli("table", "--from", "4", "--to", "6") == 0
    out = capsys.readouterr().out
    assert "match" in out and "no formula" in out


def test_cli_construct_parameter_flags(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert run_cli("construct", "--type", "c1", "--k", "3",
                   "--sigma", "0,1,2", "--tau", "1,2,0",
                   "--special-edges", "1,4", "--out", str(out)) == 0
    direct = build(ConstructionSpec(
        "c1", 3, two_factor=__import__("sailfree").TwoFactorSpec(3, (0, 1, 2), (1, 2, 0)),
        special_edge_offsets=(1, 4)))
    assert parse_system(out.read_text()) == direct
    assert run_cli("construct", "--type", "c3", "--k", "3",
                   "--triangle-perms", "bca,cab", "--out", str(out)) == 0
    assert parse_system(out.read_text()) == build(
        ConstructionSpec("c3", 3, triangle_perms=("bca", "cab")))
    assert run_cli("construct", "--type", "c4", "--k", "3",
                   "--mv-variant", "2", "--out", str(out)) == 0
    assert parse_system(out.read_text()) == build(ConstructionSpec("c4", 3, mv_variant=2))
    assert run_cli("construct", "--type", "td", "--k", "2",
                   "--latin", "1,0;0,1", "--out", str(out)) == 0
    assert parse_system(out.read_text()) == transversal_design(2, latin=((1, 0), (0, 1)))
    capsys.readouterr()


def test_cli_construct_json_output(capsys):
    assert run_cli("construct", "--type", "td", "--k", "2", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6 and len(payload["edges"]) == 4
    assert payload["params"]["variant"] == "td"
    # the JSON body itself parses back into the same system
    from sailfree.formats import parse_system as ps
    assert ps(json.dumps(payload)) == transversal_design(2)


def test_cli_usage_error_exit_code(capsys):
    assert run_cli("construct", "--type", "c2", "--k", "4") == 2  # 3 | k violated
    capsys.readouterr()


def test_cli_invalid_file_content_is_verification_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1 2\n0 1 3\n")
    assert run_cli("canon", str(bad)) == 1
    good = tmp_path / "good.txt"
    good.write_text("4 1\n0 1 2\n")
    assert run_cli("iso", str(good), str(bad)) == 1
    capsys.readouterr()


def test_cli_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("SAILFREE_THREADS", "2")
    from sailfree.cli import _default_threads
    assert _default_threads() == 2
    monkeypatch.setenv("SAILFREE_THREADS", "junk")
    assert _default_threads() == 1
