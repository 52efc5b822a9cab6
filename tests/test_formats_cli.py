import io
import json
import random
import time

import pytest

from sailfree import cli, verify
from sailfree.canon import canonical_form
from sailfree.cli import main
from sailfree.constructions import ConstructionSpec, build, transversal_design
from sailfree.core import Triple, make_system
from sailfree.errors import (
    DegenerateEdge,
    LinearityViolation,
    ParseError,
    RoleShapeMismatch,
    TripleSystemError,
)
from sailfree.formats import parse_system, serialize_system, system_to_json
from sailfree.search import SearchOptions, max_sail_free
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


def test_parse_rejects_repeated_vertex():
    for text in ("3 1\n0 0 1\n", '{"n": 3, "edges": [[0, 0, 1]]}'):
        with pytest.raises(DegenerateEdge):
            parse_system(text)
    # callers that catch ValueError keep working
    with pytest.raises(ValueError):
        Triple.of((2, 2, 2))


def _mutations(text, rng):
    """Seeded damaged copies of a serialized system."""
    tokens = text.split()
    lines = text.splitlines()
    yield text[: rng.randrange(len(text))]  # truncated anywhere
    cut = lines[:]
    i = rng.randrange(len(cut))
    cut[i] = cut[i][: rng.randrange(len(cut[i]) + 1)]  # one truncated line
    yield "\n".join(cut)
    swapped = tokens[:]
    i, j = rng.randrange(len(swapped)), rng.randrange(len(swapped))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield " ".join(swapped)
    yield "\n".join(lines[:1] + lines[2:] + lines[1:2])  # edge moved to the end
    dup = tokens[:]
    i = rng.randrange(len(dup))
    dup[i] = rng.choice(["-1", "x", "1.5", "[]", "null", "true", "9" * 5000,
                         str(rng.randrange(60, 10**6)), str(rng.randrange(12)),
                         dup[rng.randrange(len(dup))]])
    yield " ".join(dup)
    yield '{"n": ' + "[" * 50_000 + "]" * 50_000 + "}"  # nested past the decoder's depth
    yield text.replace("0", "0 0", 1)


def test_parser_fuzz_raises_only_package_errors():
    rng = random.Random(2024)
    seeds = [build(ConstructionSpec("c1", 3)), transversal_design(3), make_system(5, []),
             make_system(7, SAIL7_EDGES)]
    seeds += [random_linear_system(rng.randrange(4, 12), rng) for _ in range(6)]
    json_edits = [
        lambda p: p.update(n=p["n"] * 10**6),
        lambda p: p.update(n=str(p["n"])),
        lambda p: p.update(n=True),
        lambda p: p.update(n=-p["n"]),
        lambda p: p.update(edges={"0": p["edges"]}),
        lambda p: p.update(edges=p["edges"] + [[0, 0, 1]]),
        lambda p: p.update(edges=p["edges"] + [p["edges"][0]] if p["edges"] else []),
        lambda p: p.update(edges=[e[:2] for e in p["edges"]] or [[0]]),
        lambda p: p.update(edges=[[str(v) for v in e] for e in p["edges"]] or [["0"]]),
        lambda p: p.update(edges=[[v + 0.0 for v in e] for e in p["edges"]] or [[0.0]]),
        lambda p: p.pop("edges"),
    ]
    outcomes = set()
    for s in seeds:
        text, doc = serialize_system(s), system_to_json(s)
        inputs = [raw for _ in range(8) for raw in (*_mutations(text, rng),
                                                      *_mutations(doc, rng))]
        for edit in json_edits:
            payload = json.loads(doc)
            edit(payload)
            inputs.append(json.dumps(payload))
        for raw in inputs:
            try:
                parse_system(raw)
                outcomes.add("parsed")
            except TripleSystemError as exc:
                outcomes.add(type(exc).__name__)
    # the corpus reaches every validation path, not only the JSON decoder
    assert {"parsed", "ParseError", "DegenerateEdge", "VertexOutOfRange",
            "UnsupportedSize", "LinearityViolation", "DuplicateEdge"} <= outcomes


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
    for n in range(65):
        k, r = divmod(n, 3)
        if r == 1 and k < 3:
            want = (None, "formula out of range (k<3)")
        else:
            value, label = {0: (k * k, "k^2"), 1: (k * k + 1, "k^2+1"),
                            2: (k * k + k, "k^2+k")}[r]
            want = (value, f"{label} (k={k})")
        assert formula_value(n) == want, n


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
    with pytest.raises(RoleShapeMismatch, match="unknown role"):
        verify_report(transversal_design(3), role="nope")


def test_table_rows(monkeypatch):
    rows = table(4, 6)
    assert [(r.n, r.max_edges, r.verdict, r.proof) for r in rows] == [
        (4, 1, "no formula", "bound"),
        (5, 2, "match", "bound"),
        (6, 4, "match", "bound"),
    ]
    assert all(r.exhausted for r in rows)
    # a row the search proves below the bound, and one it does not prove
    monkeypatch.setattr(verify, "upper_bound", lambda n: 100)
    assert [r.proof for r in table(5, 5)] == ["search"]
    assert [r.proof for r in table(19, 19, SearchOptions(time_limit=0))] == ["-"]
    with pytest.raises(ValueError):
        table(3, 5)


def test_table_limits_cover_all_rows(monkeypatch):
    # each row gets what the earlier rows left of the limits
    seen = []

    def record(n, opts):
        report = max_sail_free(n, opts)
        seen.append((opts, report))
        return report

    monkeypatch.setattr(verify, "max_sail_free", record)
    nodes, seconds = 1000, 60.0
    table(6, 8, SearchOptions(node_limit=nodes, time_limit=seconds))
    for opts, report in seen:
        assert (opts.node_limit, opts.time_limit) == (nodes, seconds)
        nodes -= report.nodes_explored
        seconds -= report.elapsed
    # n = 6, 7, 8: only n=7 is not proven at its start
    assert [r.nodes_explored for _, r in seen] == [0, 2, 0]


def test_table_matches_the_paper_to_15():
    # every value proven; n=13 = 17 is the paper's k^2+1 case at k=4
    rows = table(4, 15)
    assert [r.n for r in rows] == list(range(4, 16))
    assert all(r.exhausted and r.proof == "bound" for r in rows)
    assert {r.n for r in rows if r.verdict != "match"} == {4, 7}
    assert [r.max_edges for r in rows] == [1, 2, 4, 4, 6, 9, 10, 12, 16, 17, 20, 25]


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


def _header(text):
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line[0] == "#")


def test_cli_construct_is_reproducible_from_header(tmp_path):
    out = tmp_path / "c1.txt"
    again = tmp_path / "again.txt"
    assert run_cli("construct", "--type", "c1", "--k", "4", "--seed", "9",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("#")
    reparsed = parse_system(text)
    assert reparsed == build(ConstructionSpec("c1", 4, seed=9))
    # a seeded build's header names its seed, which rebuilds it: the c1 and
    # c2 choices it resolves (cycle phases, colorings, matchings) have no flag
    for variant, k, seed in (("c1", 5, 3), ("c2", 6, 4)):
        assert run_cli("construct", "--type", variant, "--k", str(k), "--seed", str(seed),
                       "--out", str(out)) == 0
        text = out.read_text()
        header = _header(text)
        assert run_cli("construct", "--type", header["variant"], "--k", header["k"],
                       "--seed", header["seed"], "--out", str(again)) == 0
        assert parse_system(again.read_text()) == parse_system(text)
    # a seeded design's header names its Latin square, which rebuilds it with
    # no seed: through --latin for td, through the (k+1) design for truncated
    for variant, k in (("td", 3), ("truncated", 3)):
        assert run_cli("construct", "--type", variant, "--k", str(k), "--seed", "5",
                       "--out", str(out)) == 0
        text = out.read_text()
        latin = json.loads(_header(text)["latin"])
        if variant == "td":
            rows = ";".join(",".join(map(str, row)) for row in latin)
            assert run_cli("construct", "--type", "td", "--k", str(k), "--latin", rows,
                           "--out", str(again)) == 0
            assert parse_system(again.read_text()) == parse_system(text)
        else:
            design = transversal_design(k + 1, latin=latin)
            gone = 3 * k + 2
            kept = [e for e in design.edges if gone not in e]
            assert parse_system(text) == make_system(gone, kept)


def test_cli_check_sail_fixture_exits_1(tmp_path, capsys):
    f = tmp_path / "sail.txt"
    f.write_text(serialize_system(make_system(7, SAIL7_EDGES)))
    code = run_cli("check", str(f))
    captured = capsys.readouterr()
    assert code == 1
    assert "apex 0" in captured.out
    assert "(1, 3, 5)" in captured.out
    assert run_cli("check", str(f), "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "n": 7,
        "m": 4,
        "is_linear": True,
        "sail": {"apex": 0, "fans": [[0, 1, 2], [0, 3, 4], [0, 5, 6]], "crossbar": [1, 3, 5]},
        "degree_sequence": [1, 1, 1, 2, 2, 2, 3],
        "max_degree": 3,
        "k": 2,
        "deficiency_total": 2,
        "role": None,
        "role_pass": None,
        "pass": False,
    }


def test_cli_check_nonlinear_file_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("4 2\n0 1 2\n0 1 3\n")
    assert run_cli("check", str(f)) == 1
    assert "share" in capsys.readouterr().out
    # wrongly typed JSON is a parse failure, not a traceback
    for text in ('{"n": "10", "edges": []}', '{"n": 4, "edges": [[0, 1.5, 2]]}',
                 '{"n": 4, "edges": 5}', '{"n": 3, "edges": [[0, 0, 1]]}', "3 1\n0 0 1\n",
                 "65 1\n0 1 2\n"):
        f.write_text(text)
        assert run_cli("check", str(f)) == 1, text
        assert "FAIL" in capsys.readouterr().out
    # so are bytes that are not UTF-8
    f.write_bytes(b"\xff\xfe")
    assert run_cli("check", str(f)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_check_json_names_linearity_only_for_a_linearity_fault(tmp_path, capsys):
    # a size fault or a repeated edge fails the parse before linearity is
    # checked, so is_linear is null; only a shared pair makes it false
    f = tmp_path / "bad.txt"
    for text, linear in (("4 2\n0 1 2\n0 1 3\n", False), ("65 1\n0 1 2\n", None),
                         ("4 2\n0 1 2\n0 1 2\n", None)):
        f.write_text(text)
        assert run_cli("check", str(f), "--json") == 1, text
        payload = json.loads(capsys.readouterr().out)
        assert (payload["is_linear"], payload["pass"]) == (linear, False), text
    # bytes that are not UTF-8 leave linearity unknown too
    f.write_bytes(b"\xff\xfe")
    assert run_cli("check", str(f), "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["is_linear"], payload["pass"]) == (None, False)


def test_cli_file_that_is_not_utf8_exits_1(tmp_path, monkeypatch, capsys):
    # every subcommand that reads a file fails it, from a path or from "-"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    good = tmp_path / "good.txt"
    good.write_text(serialize_system(transversal_design(3)))
    for argv in (("canon", str(bad)), ("iso", str(bad), str(good)), ("iso", str(good), str(bad))):
        assert run_cli(*argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv
    # stdin is read as UTF-8 bytes, whatever error handler its text layer
    # has: a surrogateescape locale would pass the bad bytes on as text
    for argv in (("check", "-"), ("canon", "-")):
        for errors in ("strict", "surrogateescape"):
            stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors=errors)
            monkeypatch.setattr("sys.stdin", stdin)
            assert run_cli(*argv) == 1, (argv, errors)
            out, err = capsys.readouterr()
            assert "codec can't decode" in out + err, (argv, errors)  # check reports on stdout


def test_cli_check_json(tmp_path, capsys):
    f = tmp_path / "td.txt"
    f.write_text(serialize_system(transversal_design(3)))
    assert run_cli("check", str(f), "--role", "td", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["m"] == 9
    # a file of the wrong shape for its role fails the role, with or without --k
    f.write_text(serialize_system(build(ConstructionSpec("c1", 3))))
    assert run_cli("check", str(f), "--role", "td") == 1
    assert "FAIL: role td needs n = 3k+0, got n=10" in capsys.readouterr().out
    assert run_cli("check", str(f), "--role", "td", "--k", "3") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    assert run_cli("check", str(f), "--role", "td", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False and "3k+0" in payload["error"]


def test_cli_search_and_json(capsys):
    assert run_cli("search", "--n", "6", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_edges"] == 4 and payload["exhausted"]


def test_cli_search_limit_exit_code(capsys):
    # n=19 needs a full exploration (its bound 38 is not attained), so a
    # tiny node budget must surface as exit code 3; the best is c1's 37
    assert run_cli("search", "--n", "19", "--node-limit", "3") == 3
    assert "size 37 (not exhausted)" in capsys.readouterr().out
    # an enumeration its budget cuts: with a target, through main's
    # LimitExceeded; without one, the maximum already ends unproven
    assert run_cli("search", "--n", "9", "--enumerate", "--target", "8",
                   "--node-limit", "10") == 3
    assert "limit exceeded" in capsys.readouterr().err
    assert run_cli("search", "--n", "19", "--enumerate", "--node-limit", "5") == 3
    assert "maximum not proven" in capsys.readouterr().err
    assert run_cli("table", "--from", "19", "--to", "19", "--node-limit", "5") == 3
    capsys.readouterr()
    # n=7 reaches its bound 4 in 2 pushes: proven, though past the limit
    assert run_cli("search", "--n", "7", "--node-limit", "1") == 0
    # n=8 starts at its bound 6: proven with no push
    assert run_cli("search", "--n", "8", "--node-limit", "3") == 0
    # a negative budget is a usage error, not an unproven maximum
    assert run_cli("search", "--n", "8", "--node-limit", "-5") == 2
    assert run_cli("search", "--n", "8", "--time-limit", "-1") == 2
    assert run_cli("search", "--n", "8", "--time-limit", "nan") == 2
    # so is a target below one edge
    assert run_cli("search", "--n", "8", "--target", "0") == 2
    # and an n outside 3..64, before any search runs
    assert run_cli("search", "--n", "2") == 2
    assert run_cli("search", "--n", "65", "--enumerate") == 2
    assert run_cli("table", "--from", "4", "--to", "65") == 2
    assert run_cli("table", "--from", "5", "--to", "4") == 2
    assert "outside supported range 3..64" in capsys.readouterr().err


def test_cli_search_enumerate(capsys):
    assert run_cli("search", "--n", "6", "--target", "4", "--enumerate") == 0
    out = capsys.readouterr().out
    assert "1 isomorphism classes" in out
    # without --target the maximum comes first; JSON lists each class's edges
    assert run_cli("search", "--n", "6", "--enumerate", "--json") == 0
    td = canonical_form(transversal_design(2))
    assert json.loads(capsys.readouterr().out) == {
        "n": 6, "m": 4, "classes": [[list(e) for e in td.edges]]}


def test_cli_search_enumerate_limits_cover_both_searches(monkeypatch, capsys):
    # without --target the maximum runs first; the enumeration gets what it left
    seen = []

    def record(n, m, opts):
        seen.append(opts)
        return set()

    monkeypatch.setattr(cli, "enumerate_extremal", record)
    assert run_cli("search", "--n", "7", "--threads", "1", "--enumerate",
                   "--node-limit", "100000", "--time-limit", "60") == 0
    (opts,) = seen
    assert opts.node_limit == 100000 - 2  # n=7 takes 2 pushes
    assert opts.time_limit < 60
    assert "0 isomorphism classes" in capsys.readouterr().out


def test_cli_canon_and_iso(tmp_path, capsys, monkeypatch):
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
    # "-" reads the system from stdin
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b.read_bytes()), encoding="utf-8"))
    assert run_cli("canon", "-", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == [list(e) for e in parse_system(first).edges]
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
    assert out.splitlines()[0].split()[3] == "proof"
    assert all(line.split()[3] == "bound" for line in out.splitlines()[1:])
    assert run_cli("table", "--from", "4", "--to", "4", "--json") == 0
    assert json.loads(capsys.readouterr().out)[0]["proof"] == "bound"


def test_cli_table_mismatch_exits_1(monkeypatch, capsys):
    # a proven value that differs from its formula is a verification failure
    monkeypatch.setattr(verify, "formula_value", lambda n: (n, "n"))
    assert run_cli("table", "--from", "5", "--to", "6") == 1
    assert capsys.readouterr().out.count("MISMATCH") == 2


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


def test_cli_usage_error_exit_code(tmp_path, capsys):
    assert run_cli("construct", "--type", "c2", "--k", "4") == 2  # 3 | k violated
    capsys.readouterr()
    # a k whose n exceeds 64 is at fault, not a verification failure
    assert run_cli("construct", "--type", "td", "--k", "30") == 2
    assert "n=90 outside supported range 3..64" in capsys.readouterr().err
    # the spec rejects it before any build: a c1 build at k=1000 would
    # recurse past the interpreter's limit, one at k=200 take seconds
    start = time.monotonic()
    assert run_cli("construct", "--type", "c1", "--k", "1000") == 2
    assert time.monotonic() - start < 1
    assert "n=3001 outside supported range 3..64" in capsys.readouterr().err
    for offsets in ("0", "0,3,5"):
        assert run_cli("construct", "--type", "c1", "--k", "3",
                       "--special-edges", offsets) == 2, offsets
        assert "needs two cycle positions" in capsys.readouterr().err
    assert run_cli("construct", "--type", "c3", "--k", "3", "--triangle-perms", "abc") == 2
    assert "needs two triangle permutations" in capsys.readouterr().err
    assert run_cli("construct", "--type", "c1", "--k", "3", "--sigma", "0,1,2") == 2
    assert "--sigma and --tau must be given together" in capsys.readouterr().err
    # no system has k < 1, as n = 3k+r >= 3
    f = tmp_path / "one.txt"
    f.write_text("4 1\n0 1 2\n")
    for k in ("-1", "0"):
        assert run_cli("check", str(f), "--k", k) == 2, k
        assert "k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, args", [
    ("--sigma", ("--type", "c1", "--k", "3", "--sigma", "0,x,2", "--tau", "1,2,0")),
    ("--tau", ("--type", "c1", "--k", "3", "--sigma", "0,1,2", "--tau", "1,2,x")),
    ("--special-edges", ("--type", "c1", "--k", "3", "--special-edges", "0,x")),
    ("--latin", ("--type", "td", "--k", "2", "--latin", "0,1;1,x")),
])
def test_cli_construct_malformed_flag_is_named(flag, args, capsys):
    # argparse rejects the value itself, so the usage error names the flag
    try:
        code = run_cli("construct", *args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated integers" in err
    assert "Traceback" not in err


def test_cli_invalid_file_content_is_verification_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1 2\n0 1 3\n")
    assert run_cli("canon", str(bad)) == 1
    degenerate = tmp_path / "degenerate.txt"
    for text in ("3 1\n0 0 1\n", '{"n": 3, "edges": [[0, 0, 1]]}'):
        degenerate.write_text(text)
        assert run_cli("canon", str(degenerate)) == 1, text
    good = tmp_path / "good.txt"
    good.write_text("4 1\n0 1 2\n")
    assert run_cli("iso", str(good), str(bad)) == 1
    # a vertex count outside 3..64 and a repeated edge, in either iso slot
    for text in ("65 1\n0 1 2\n", "4 2\n0 1 2\n0 1 2\n"):
        bad.write_text(text)
        assert run_cli("canon", str(bad)) == 1, text
        assert run_cli("iso", str(good), str(bad)) == 1, text
        assert run_cli("iso", str(bad), str(good)) == 1, text
    capsys.readouterr()


def test_cli_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("SAILFREE_THREADS", "2")
    from sailfree.cli import _default_threads
    assert _default_threads() == 2
    monkeypatch.setenv("SAILFREE_THREADS", "junk")
    assert _default_threads() == 1
