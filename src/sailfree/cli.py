"""Command-line interface.

Every subcommand is a thin wrapper over library operations.  Exit codes:
0 success/pass, 1 verification failure, 2 usage error, 3 search limit
exceeded.  A file whose content fails to decode, parse or validate is a
verification failure in every subcommand; any other package error is a
usage error.  SAILFREE_THREADS sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .canon import canonical_form, is_isomorphic
from .constructions import ConstructionSpec, TwoFactorSpec, build_resolved
from .errors import LimitExceeded, LinearityViolation, RoleShapeMismatch, TripleSystemError
from .formats import parse_system, serialize_system, system_to_json
from .search import SearchOptions, _remaining, enumerate_extremal, max_sail_free
from .verify import ROLES, table, verify_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _default_threads() -> int:
    raw = os.environ.get("SAILFREE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _ints(text: str) -> tuple[int, ...]:
    """A flag's comma-separated integers; a malformed value is argparse's usage error."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _rows(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(row) for row in text.split(";"))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _BadFile(Exception):
    """A file whose content fails to decode as UTF-8, parse or validate;
    main exits 1."""


def _load(path: str):
    try:
        return parse_system(_read(path))
    except (TripleSystemError, UnicodeDecodeError) as exc:
        raise _BadFile(exc) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _search_opts(args) -> SearchOptions:
    return SearchOptions(
        target_edges=getattr(args, "target", None),
        worker_count=args.threads,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )


def cmd_construct(args) -> int:
    two_factor = None
    if args.sigma or args.tau:
        if not (args.sigma and args.tau):
            print("--sigma and --tau must be given together", file=sys.stderr)
            return EXIT_USAGE
        two_factor = TwoFactorSpec(args.k, args.sigma, args.tau)
    spec = ConstructionSpec(
        variant=args.type,
        k=args.k,
        two_factor=two_factor,
        special_edge_offsets=args.special_edges,
        triangle_perms=args.triangle_perms,
        mv_variant=args.mv_variant,
        latin=args.latin,
        seed=args.seed,
    )
    system, details = build_resolved(spec)
    if args.json:
        _emit(system_to_json(system, params=details), args.out)
    else:
        comments = tuple(f"{key}={value}" for key, value in details.items())
        _emit(serialize_system(system, comments), args.out)
    return EXIT_OK


def _check_failed(args, exc, linear: bool | None) -> int:
    if args.json:
        print(json.dumps({"is_linear": linear, "pass": False, "error": str(exc)}))
    else:
        print(f"FAIL: {exc}")
    return EXIT_FAIL


def cmd_check(args) -> int:
    try:
        system = _load(args.file)
    except _BadFile as exc:
        # only a linearity fault settles linearity; any other leaves it unknown
        linear = False if isinstance(exc.__cause__, LinearityViolation) else None
        return _check_failed(args, exc, linear=linear)
    try:
        report = verify_report(system, role=args.role, k=args.k)
    except RoleShapeMismatch as exc:
        # the wrong shape for the role fails the role, as it does under --k
        return _check_failed(args, exc, linear=True)
    if args.json:
        payload = {
            "n": report.n,
            "m": report.m,
            "is_linear": True,
            "sail": None if report.sail_witness is None else asdict(report.sail_witness),
            "degree_sequence": list(report.degree_sequence),
            "max_degree": report.max_degree,
            "k": report.k,
            "deficiency_total": report.deficiency_total,
            "role": report.role,
            "role_pass": report.role_pass,
            "pass": report.passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={report.n} m={report.m} linear=yes max_degree={report.max_degree} "
              f"k={report.k} deficiency={report.deficiency_total}")
        if report.sail_witness is None:
            print("sail: none")
        else:
            w = report.sail_witness
            print(f"sail: apex {w.apex}, fans {[tuple(f) for f in w.fans]}, "
                  f"crossbar {tuple(w.crossbar)}")
        if report.role is not None:
            print(f"role {report.role}: {'pass' if report.role_pass else 'fail'}")
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_search(args) -> int:
    opts = _search_opts(args)
    if args.enumerate:
        target = args.target
        if target is None:
            report = max_sail_free(args.n, opts)
            if not report.exhausted:
                print("maximum not proven under the given limits", file=sys.stderr)
                return EXIT_LIMIT
            target = report.max_edges
            opts = _remaining(opts, report)
        forms = sorted(enumerate_extremal(args.n, target, opts), key=lambda f: f.to_bytes())
        if args.json:
            print(json.dumps({
                "n": args.n,
                "m": target,
                "classes": [[list(e) for e in f.edges] for f in forms],
            }, indent=2))
        else:
            print(f"n={args.n} m={target}: {len(forms)} isomorphism classes")
            for i, f in enumerate(forms):
                print(f"class {i}: {[tuple(e) for e in f.edges]}")
        return EXIT_OK

    report = max_sail_free(args.n, opts)
    if args.json:
        print(json.dumps({
            "n": report.n,
            "max_edges": report.max_edges,
            "exhausted": report.exhausted,
            "nodes": report.nodes_explored,
            "elapsed": report.elapsed,
            "witness": [list(e) for e in report.witness.edges],
        }, indent=2))
    else:
        star = "" if report.exhausted else " (not exhausted)"
        print(f"n={report.n}: max sail-free size {report.max_edges}{star} "
              f"[nodes={report.nodes_explored}, {report.elapsed:.2f}s]")
        print("witness:", [tuple(e) for e in report.witness.edges])
    return EXIT_OK if report.exhausted else EXIT_LIMIT


def cmd_canon(args) -> int:
    system = _load(args.file)
    form = canonical_form(system)
    if args.json:
        print(json.dumps({
            "n": form.n,
            "edges": [list(e) for e in form.edges],
            "bytes": form.to_bytes().hex(),
        }, indent=2))
    else:
        _emit(serialize_system(form.system(), (f"canonical bytes {form.to_bytes().hex()}",)),
              None)
    return EXIT_OK


def cmd_iso(args) -> int:
    h1 = _load(args.file1)
    h2 = _load(args.file2)
    same = is_isomorphic(h1, h2)
    print("isomorphic" if same else "not isomorphic")
    return EXIT_OK if same else EXIT_FAIL


def cmd_table(args) -> int:
    rows = table(args.start, args.end, _search_opts(args))
    if args.json:
        print(json.dumps([{
            "n": r.n, "max_edges": r.max_edges, "exhausted": r.exhausted, "proof": r.proof,
            "formula": r.formula, "formula_label": r.formula_label, "verdict": r.verdict,
        } for r in rows], indent=2))
    else:
        print(f"{'n':>3} {'max':>4} {'exhausted':>9} {'proof':>6}  {'formula':>8}  verdict")
        for r in rows:
            formula = "-" if r.formula is None else str(r.formula)
            label = f" [{r.formula_label}]"
            print(f"{r.n:>3} {r.max_edges:>4} {str(r.exhausted):>9} {r.proof:>6}  {formula:>8}  "
                  f"{r.verdict}{label}")
    if any(not r.exhausted for r in rows):
        return EXIT_LIMIT
    if any(r.verdict == "MISMATCH" for r in rows):
        return EXIT_FAIL
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sailfree",
        description="Construct, verify, search and classify sail-free linear triple systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--threads", type=int, default=_default_threads())
    limits.add_argument("--node-limit", type=int, help="guard pushes, for the whole command")
    limits.add_argument("--time-limit", type=float, help="seconds, for the whole command")

    p = sub.add_parser("construct", help="run one of the generators")
    p.add_argument("--type", required=True, choices=list(ConstructionSpec._ALLOWED))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma", type=_ints, help="comma-separated permutation for the 2-factor")
    p.add_argument("--tau", type=_ints, help="comma-separated permutation for the 2-factor")
    p.add_argument("--special-edges", type=_ints, help="two cycle positions, e.g. 0,3")
    p.add_argument("--triangle-perms", type=lambda text: tuple(text.split(",")),
                   help="two abc-permutations, e.g. abc,bca")
    p.add_argument("--mv-variant", type=int, choices=[1, 2, 3])
    p.add_argument("--latin", type=_rows, help="rows like 0,1,2;1,2,0;2,0,1")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="verify a system file")
    p.add_argument("file")
    p.add_argument("--role", choices=list(ROLES))
    p.add_argument("--k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", parents=[limits], help="exact maximum or enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", type=int)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("canon", help="canonical form of a system file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", help="isomorphism test between two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("table", parents=[limits], help="computed maxima against the formulas")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except _BadFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (TripleSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
