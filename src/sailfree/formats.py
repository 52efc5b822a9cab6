"""Text and JSON serialization of triple systems.

Text format: optional '#' comment lines, then a header line "n m",
then m lines "a b c" with 0-based vertex indices.  The JSON alternative
is {"n": ..., "edges": [[a, b, c], ...]}; unknown keys are ignored so
tools may attach metadata.
"""

from __future__ import annotations

import json

from .core import LinearTripleSystem, make_system
from .errors import ParseError


def serialize_system(system: LinearTripleSystem, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{system.n} {system.m}")
    lines.extend(f"{a} {b} {c}" for (a, b, c) in system.edges)
    return "\n".join(lines) + "\n"


def system_to_json(system: LinearTripleSystem, **extra) -> str:
    payload = {"n": system.n, "edges": [list(e) for e in system.edges]}
    payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_system(text: str) -> LinearTripleSystem:
    """Parse either format; validation errors from make_system propagate.

    Wrongly typed JSON values raise ParseError.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and integers too long to convert;
            # RecursionError, arrays nested too deep for the decoder
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
            raise ParseError('JSON needs keys "n" and "edges"')
        n, edges = payload["n"], payload["edges"]
        if not _is_int(n):
            raise ParseError('"n" must be an integer')
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 3 and all(map(_is_int, e)) for e in edges):
            raise ParseError('"edges" must be a list of [a, b, c] integer lists')
        return make_system(n, edges)

    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"non-integer token in {line!r}", lineno) from exc
        if header is None:
            if len(nums) != 2:
                raise ParseError('header must be "n m"', lineno)
            header = nums
        else:
            if len(nums) != 3:
                raise ParseError('edge lines must be "a b c"', lineno)
            edges.append(nums)
    if header is None:
        raise ParseError("empty input")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, found {len(edges)}")
    return make_system(n, edges)
