"""Parameterized generators for the extremal families.

Four generators produce sail-free linear systems with k^2+1 edges on
3k+1 vertices; two baseline generators produce the transversal design
(k^2 edges on 3k vertices) and the truncated design (k^2+k edges on
3k+2 vertices).

Vertex layout, fixed so outputs are reproducible:

* general family (c1, c2), n = 3k+1:
  x_1..x_k -> 0..k-1, y_1..y_k -> k..2k-1, z_1..z_{k-2} -> 2k..3k-3,
  a -> 3k-2, b -> 3k-1, c -> 3k.
* small family (c3, c4), n = 10:
  x_1..x_3 -> 0..2, y_1..y_3 -> 3..5, a -> 6, b -> 7, c -> 8, v -> 9.
* transversal design, n = 3k: groups 0..k-1, k..2k-1, 2k..3k-1, with
  the edge (i, k+j, 2k+L[i][j]) for a Latin square L.
* truncated design, n = 3k+2: the design on 3k+3 vertices less vertex 3k+2.

A seed randomizes every free choice that the parameters leave open (the
2-factor, special edges, colorings of short cycles, matching extraction
order, Latin square).  Every such choice follows one rule, `_pick`: an
explicitly supplied parameter wins, else a draw from the seeded generator,
else a fixed default (for the designs, the cyclic square).  All six
builders sit in one table, and each returns its system with the choices
it resolved, the designs' Latin square included (the truncated design
records the square of the design it cuts down), and a seeded build adds
its seed, so any output can be rebuilt from its details.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import LinearTripleSystem, make_system
from .errors import (
    BadColorAssignment,
    BadCycleLengths,
    BadSpecialEdges,
    BadVariant,
    ColoringInfeasible,
    DerangementViolation,
    DivisibilityViolation,
    InvalidLatinSquare,
    KTooSmall,
    NoLongCycle,
)


def _pick(explicit, rng: Optional[random.Random], draw, default):
    """The explicit value if given, else draw(rng) when seeded, else the default."""
    if explicit is not None:
        return explicit
    return default if rng is None else draw(rng)


@dataclass(frozen=True)
class TwoFactorSpec:
    """A 2-factor of K_{k,k} given as two disjoint perfect matchings.

    Matching one joins x_i to y_{sigma(i)}, matching two joins x_i to
    y_{tau(i)}; sigma(i) != tau(i) keeps the union 2-regular.
    """

    k: int
    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def __post_init__(self):
        for name, perm in (("sigma", self.sigma), ("tau", self.tau)):
            if sorted(perm) != list(range(self.k)):
                raise ValueError(f"{name} is not a permutation of 0..{self.k - 1}")
        if any(s == t for s, t in zip(self.sigma, self.tau)):
            raise DerangementViolation("sigma and tau agree at some index")

    def edge_set(self) -> set[tuple[int, int]]:
        """All (i, j) pairs, meaning x_i adjacent to y_j."""
        return {(i, self.sigma[i]) for i in range(self.k)} | {
            (i, self.tau[i]) for i in range(self.k)
        }


def hamiltonian_two_factor(k: int) -> TwoFactorSpec:
    """Identity plus cyclic shift: a single cycle through all 2k vertices."""
    return TwoFactorSpec(k, tuple(range(k)), tuple((i + 1) % k for i in range(k)))


def two_factor(spec: TwoFactorSpec) -> list[list[int]]:
    """Cycles of the 2-factor, as global vertex sequences.

    Each cycle alternates x- and y-vertices (x_i -> i, y_j -> k+j), starts
    at its smallest x-vertex and is traversed via sigma first.  Consecutive
    entries, cyclically, are exactly the edges of the 2-factor.
    """
    k = spec.k
    tau_inv = [0] * k
    for i, t in enumerate(spec.tau):
        tau_inv[t] = i
    seen = [False] * k
    cycles = []
    for start in range(k):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            cyc.append(k + spec.sigma[i])
            i = tau_inv[spec.sigma[i]]
        cycles.append(cyc)
    return cycles


def _random_two_factor(k: int, rng: random.Random, part_sizes: Iterable[int]) -> TwoFactorSpec:
    """Random (sigma, tau) whose quotient permutation has the given cycle type."""
    verts = list(range(k))
    rng.shuffle(verts)
    delta = [0] * k
    pos = 0
    for size in part_sizes:
        block = verts[pos:pos + size]
        for i, v in enumerate(block):
            delta[v] = block[(i + 1) % size]
        pos += size
    sigma = list(range(k))
    rng.shuffle(sigma)
    tau = tuple(sigma[delta[i]] for i in range(k))
    return TwoFactorSpec(k, tuple(sigma), tau)


def _random_parts(k: int, rng: random.Random, allowed, need_one_of=None) -> list[int]:
    """Random composition of k from the allowed part sizes.

    No draw is stuck: for c1's parts 2..k, s = left is an option, as left
    never reaches 1; for c2's parts 3, 6, 9 with 3 | k, s = 3 is, as left
    stays a multiple of 3.
    """
    allowed = sorted(set(allowed))
    smallest = allowed[0]
    while True:
        parts = []
        left = k
        while left:
            options = [s for s in allowed if s <= left and (left - s == 0 or left - s >= smallest)]
            s = rng.choice(options)
            parts.append(s)
            left -= s
        if need_one_of is None or any(p in need_one_of for p in parts):
            return parts


def _kuhn_matching(adj: list[list[int]], k: int) -> list[int]:
    match_x = [-1] * k
    match_y = [-1] * k

    def augment(x: int, visited: set[int]) -> bool:
        for y in adj[x]:
            if y in visited:
                continue
            visited.add(y)
            if match_y[y] == -1 or augment(match_y[y], visited):
                match_x[x] = y
                match_y[y] = x
                return True
        return False

    for x in range(k):
        if not augment(x, set()):
            raise ColoringInfeasible("regular bipartite remainder had no perfect matching")
    return match_x


def matching_decomposition(
    k: int, forbidden: TwoFactorSpec, rng: Optional[random.Random] = None
) -> list[list[tuple[int, int]]]:
    """k-2 pairwise disjoint perfect matchings covering K_{k,k} minus the 2-factor.

    Pairs are local: (i, j) means x_i matched to y_j.  The remainder is
    (k-2)-regular, so repeated augmenting-path extraction always succeeds.
    """
    banned = forbidden.edge_set()
    adj = [[j for j in range(k) if (i, j) not in banned] for i in range(k)]
    if rng is not None:
        for row in adj:
            rng.shuffle(row)
    matchings = []
    for _ in range(max(k - 2, 0)):
        mx = _kuhn_matching(adj, k)
        matchings.append(sorted((i, mx[i]) for i in range(k)))
        for i in range(k):
            adj[i].remove(mx[i])
    return matchings


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters selecting one generator plus all of its free choices."""

    variant: str  # c1 | c2 | c3 | c4 | td | truncated
    k: int
    two_factor: Optional[TwoFactorSpec] = None
    special_edge_offsets: Optional[tuple[int, int]] = None
    triangle_perms: Optional[tuple[str, str]] = None
    mv_variant: Optional[int] = None
    latin: Optional[tuple[tuple[int, ...], ...]] = None
    seed: Optional[int] = None

    _ALLOWED = {
        "c1": ("two_factor", "special_edge_offsets"),
        "c2": ("two_factor",),
        "c3": ("triangle_perms",),
        "c4": ("mv_variant",),
        "td": ("latin",),
        "truncated": (),
    }
    # the 3k+1 constructions reach k^2+1 edges from k = 3, the designs exist from k = 1
    _LEAST_K = {"c1": 3, "c2": 3, "c3": 3, "c4": 3, "td": 1, "truncated": 1}

    def __post_init__(self):
        if self.variant not in self._ALLOWED:
            raise ValueError(f"unknown construction variant {self.variant!r}")
        allowed = self._ALLOWED[self.variant]
        for name in ("two_factor", "special_edge_offsets", "triangle_perms", "mv_variant", "latin"):
            if getattr(self, name) is not None and name not in allowed:
                raise ValueError(f"parameter {name} does not apply to variant {self.variant}")
        if self.variant in ("c3", "c4") and self.k != 3:
            raise ValueError(f"variant {self.variant} is defined only for k=3")
        least = self._LEAST_K[self.variant]
        if self.k < least:
            raise KTooSmall(f"construction {self.variant} needs k >= {least}, got {self.k}")
        for name, error, what in (("special_edge_offsets", BadSpecialEdges, "cycle positions"),
                                  ("triangle_perms", BadColorAssignment, "triangle permutations")):
            value = getattr(self, name)
            if value is not None and len(value) != 2:
                raise error(f"{name} needs two {what}, got {value!r}")


# --- general family -------------------------------------------------------


def _edge(cycle: list[int], r: int) -> tuple[int, int]:
    """The edge at position r of a cycle: cycle[r] and its successor."""
    return cycle[r], cycle[(r + 1) % len(cycle)]


def _oriented(cycle: list[int], r: int, k: int) -> tuple[int, int]:
    """The edge at position r as (x-vertex, y-vertex)."""
    u, w = _edge(cycle, r)
    return (u, w) if u < k else (w, u)


def _long_cycle_offsets(cycle: list[int], k: int) -> list[tuple[int, int]]:
    """All valid (a'c' position, x'y' position) pairs on the given cycle.

    The two edges are disjoint and neither a'y' nor c'x' is a cycle edge.
    """
    ends = [_oriented(cycle, r, k) for r in range(len(cycle))]
    cycle_edges = {frozenset(e) for e in ends}
    return [
        (p, q)
        for p, (ap, cp) in enumerate(ends)
        for q, (xp, yp) in enumerate(ends)
        if not {ap, cp} & {xp, yp}
        and frozenset((ap, yp)) not in cycle_edges
        and frozenset((cp, xp)) not in cycle_edges
    ]


def _color_long_cycle(cycle: list[int], p: int, q: int, a_prime: int):
    """Anchored proper 2-coloring of the long cycle minus its special edges.

    Removing the edges at positions p (a'c') and q (x'y') leaves two paths;
    the path end at a' is colored 'a', the path end at c' is colored 'c',
    alternating inward.  Returns {position: color}.
    """
    length = len(cycle)
    arc1 = [r % length for r in range(p + 1, p + 1 + (q - p - 1) % length)]
    arc2 = [r % length for r in range(q + 1, q + 1 + (p - q - 1) % length)]
    first, second = ("a", "c") if cycle[(p + 1) % length] == a_prime else ("c", "a")
    colors: dict[int, str] = {}
    for pair, arc in (((first, second), arc1), ((second, first), reversed(arc2))):
        for i, r in enumerate(arc):
            colors[r] = pair[i % 2]
    return colors


def _resolve_two_factor(
    spec: ConstructionSpec, rng: Optional[random.Random], allowed, need_one_of=None
) -> TwoFactorSpec:
    """The 2-factor chosen by `_pick`; a seeded one has cycle parts from `allowed`."""
    k = spec.k
    if spec.two_factor is not None and spec.two_factor.k != k:
        raise ValueError("two_factor.k disagrees with spec.k")
    draw = lambda r: _random_two_factor(k, r, _random_parts(k, r, allowed, need_one_of))
    return _pick(spec.two_factor, rng, draw, hamiltonian_two_factor(k))


def _assemble(variant: str, k: int, tf: TwoFactorSpec, cycles, colored, extra, rng, choices):
    """What c1 and c2 share: the color vertices, the matchings, the system, the details.

    `colored` holds (u, w, color) for the 2-factor edges and `extra` the
    remaining edges; in both the letters 'a', 'b', 'c' stand for the color
    vertices 3k-2, 3k-1, 3k.  The variant's own `choices` go into the
    details between the cycles and the coloring.
    """
    abc = {"a": 3 * k - 2, "b": 3 * k - 1, "c": 3 * k}
    matchings = matching_decomposition(k, tf, rng)
    edges = [[abc.get(v, v) for v in e] for e in colored + extra]
    edges += [(i, k + j, 2 * k + zi) for zi, mt in enumerate(matchings) for i, j in mt]
    details = {
        "variant": variant,
        "k": k,
        "sigma": list(tf.sigma),
        "tau": list(tf.tau),
        "cycles": cycles,
        **choices,
        "coloring": [list(e) for e in colored],
        "matchings": [[[i, k + j] for (i, j) in mt] for mt in matchings],
        "abc": list(abc.values()),
    }
    return make_system(3 * k + 1, edges), details


def _build_c1(spec: ConstructionSpec, rng: Optional[random.Random]):
    k = spec.k
    tf = _resolve_two_factor(spec, rng, range(2, k + 1), need_one_of=range(3, k + 1))
    cycles = two_factor(tf)
    eligible = [i for i, c in enumerate(cycles) if len(c) >= 6]
    if not eligible:
        raise NoLongCycle("no cycle of the 2-factor has length >= 6")
    # explicit offsets are positions on the designated cycle, so the
    # designation must not depend on the seed then
    pinned = eligible[0] if spec.special_edge_offsets is not None else None
    long_idx = _pick(pinned, rng, lambda r: r.choice(eligible), eligible[0])
    cyc = cycles[long_idx]
    valid = _long_cycle_offsets(cyc, k)
    offsets = _pick(spec.special_edge_offsets, rng, lambda r: r.choice(valid), (0, 3))
    p, q = offsets
    if (p, q) not in valid:
        raise BadSpecialEdges(
            f"offsets {offsets} are not two disjoint edges of the {len(cyc)}-cycle "
            "that meet the chord conditions"
        )
    a_pr, c_pr = _oriented(cyc, p, k)
    x_pr, y_pr = _oriented(cyc, q, k)

    colored = [(*_edge(cyc, r), col) for r, col in _color_long_cycle(cyc, p, q, a_pr).items()]
    colored.append((x_pr, y_pr, "b"))
    # every other cycle alternates a and c from its phase
    for other in cycles[:long_idx] + cycles[long_idx + 1:]:
        phase = _pick(None, rng, lambda r: r.randrange(2), 0)
        colored += [(*_edge(other, r), "ac"[(r + phase) % 2]) for r in range(len(other))]
    choices = {
        "long_cycle_index": long_idx,
        "special_edge_offsets": list(offsets),
        "a_prime": a_pr,
        "c_prime": c_pr,
        "x_prime": x_pr,
        "y_prime": y_pr,
    }
    extra = [(a_pr, "b", "c"), (c_pr, "a", "b")]
    return _assemble("c1", k, tf, cycles, colored, extra, rng, choices)


def _build_c2(spec: ConstructionSpec, rng: Optional[random.Random], colorings=None):
    k = spec.k
    if k % 3:
        raise DivisibilityViolation(f"construction c2 needs 3 | k, got k={k}")
    tf = _resolve_two_factor(spec, rng, [s for s in (3, 6, 9) if s <= k])
    cycles = two_factor(tf)
    if any(len(c) % 6 for c in cycles):
        raise BadCycleLengths("every 2-factor cycle must have length divisible by 6")

    # each cycle reads abcabc... (or acbacb... when flipped), rotated by rot
    draw = lambda r: [(r.randrange(3), bool(r.randrange(2))) for _ in cycles]
    colorings = _pick(colorings, rng, draw, [(0, False)] * len(cycles))
    colored = []
    for cyc, (rot, flip) in zip(cycles, colorings):
        seq = "acb" if flip else "abc"
        colored += [(*_edge(cyc, r), seq[(r + rot) % 3]) for r in range(len(cyc))]
    choices = {"cycle_colorings": [list(t) for t in colorings]}
    return _assemble("c2", k, tf, cycles, colored, [("a", "b", "c")], rng, choices)


# --- small family (k = 3) -------------------------------------------------

_X1, _X2, _X3, _Y1, _Y2, _Y3, _A, _B, _C, _V = range(10)
_X_TRIANGLE = ((_X1, _X2), (_X2, _X3), (_X3, _X1))
_Y_TRIANGLE = ((_Y1, _Y2), (_Y2, _Y3), (_Y3, _Y1))


def _build_c3(spec: ConstructionSpec, rng: Optional[random.Random]):
    draw = lambda r: tuple("".join(r.sample("abc", 3)) for _ in range(2))
    px, py = _pick(spec.triangle_perms, rng, draw, ("abc", "abc"))
    for perm in (px, py):
        if sorted(perm) != ["a", "b", "c"]:
            raise BadColorAssignment(f"{perm!r} is not a permutation of 'abc'")

    color_vertex = {"a": _A, "b": _B, "c": _C}
    edges = [(_X1, _Y1, _V), (_X2, _Y2, _V), (_X3, _Y3, _V), (_A, _B, _C)]
    for triangle, perm in ((_X_TRIANGLE, px), (_Y_TRIANGLE, py)):
        edges += [(u, w, color_vertex[col]) for (u, w), col in zip(triangle, perm)]
    return make_system(10, edges), {"variant": "c3", "k": 3, "triangle_perms": [px, py]}


_MV_VARIANTS = {
    1: ((_X1, _Y1), (_X2, _Y2), (_X3, _Y3)),
    2: ((_X1, _Y2), (_X2, _Y1), (_X3, _Y3)),
    3: ((_X1, _Y3), (_X3, _Y1), (_X2, _Y2)),
}


def _build_c4(spec: ConstructionSpec, rng: Optional[random.Random]):
    variant = _pick(spec.mv_variant, rng, lambda r: r.choice((1, 2, 3)), 1)
    if variant not in _MV_VARIANTS:
        raise BadVariant(f"mv_variant must be 1, 2 or 3, got {variant}")

    edges = [
        (_Y1, _Y2, _A), (_X1, _X2, _A),
        (_X2, _X3, _B),
        (_Y1, _Y3, _C), (_X1, _X3, _C),
        (_A, _B, _Y3), (_B, _C, _Y2),
    ]
    edges += [(u, w, _V) for (u, w) in _MV_VARIANTS[variant]]
    return make_system(10, edges), {"variant": "c4", "k": 3, "mv_variant": variant}


# --- design baselines -----------------------------------------------------


def _cyclic_latin(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % k for j in range(k)) for i in range(k))


def _random_latin(k: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    base = _cyclic_latin(k)
    rows = list(range(k))
    cols = list(range(k))
    syms = list(range(k))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    return tuple(tuple(syms[base[i][j]] for j in cols) for i in rows)


def _check_latin(latin, k: int) -> None:
    if len(latin) != k or any(len(row) != k for row in latin):
        raise InvalidLatinSquare(f"expected a {k}x{k} square")
    want = list(range(k))
    for row in latin:
        if sorted(row) != want:
            raise InvalidLatinSquare(f"row {list(row)} is not a permutation")
    for j in range(k):
        if sorted(row[j] for row in latin) != want:
            raise InvalidLatinSquare(f"column {j} is not a permutation")


def _build_td(spec: ConstructionSpec, rng: Optional[random.Random]):
    k = spec.k
    latin = _pick(spec.latin, rng, lambda r: _random_latin(k, r), _cyclic_latin(k))
    _check_latin(latin, k)
    edges = [(i, k + j, 2 * k + latin[i][j]) for i in range(k) for j in range(k)]
    return make_system(3 * k, edges), {"variant": "td", "k": k, "latin": [list(r) for r in latin]}


def _build_truncated(spec: ConstructionSpec, rng: Optional[random.Random]):
    # the (k+1) design draws from rng exactly as a seeded td build of k+1 does
    k = spec.k
    td, details = _build_td(ConstructionSpec("td", k + 1), rng)
    gone = 3 * k + 2
    kept = [e for e in td.edges if gone not in e]
    return make_system(3 * k + 2, kept), {**details, "variant": "truncated", "k": k}


def transversal_design(k: int, latin=None, seed: Optional[int] = None) -> LinearTripleSystem:
    """T(3k, 3): groups X, Y, Z of size k; every cross-group pair covered once."""
    return build(ConstructionSpec("td", k, latin=latin, seed=seed))


def truncated_design(k: int, seed: Optional[int] = None) -> LinearTripleSystem:
    """Transversal design on 3k+3 vertices with the last vertex deleted."""
    return build(ConstructionSpec("truncated", k, seed=seed))


# --- dispatch -------------------------------------------------------------

_BUILDERS = {"c1": _build_c1, "c2": _build_c2, "c3": _build_c3, "c4": _build_c4,
             "td": _build_td, "truncated": _build_truncated}


def build(spec: ConstructionSpec) -> LinearTripleSystem:
    return build_resolved(spec)[0]


def build_resolved(spec: ConstructionSpec):
    """Build a system and return it with the fully resolved parameter
    choices, and the seed when one is given."""
    rng = None if spec.seed is None else random.Random(spec.seed)
    system, details = _BUILDERS[spec.variant](spec, rng)
    return system, details if rng is None else {**details, "seed": spec.seed}


# The residue table, the paper's result: at n = 3k + r (r = n mod 3), the
# variant that reaches the maximum, the maximum as a function of k, its label,
# and the least k the row holds for (at n = 4 and 7 the maximum falls short of
# k^2+1, so residue 1 starts at k = 3).
FORMULAS = {
    0: ("td", lambda k: k * k, "k^2", 0),
    1: ("c1", lambda k: k * k + 1, "k^2+1", 3),
    2: ("truncated", lambda k: k * k + k, "k^2+k", 0),
}


def formula_construction(n: int) -> Optional[LinearTripleSystem]:
    """The sail-free system of formula size on n vertices, the variant of
    n's row in FORMULAS built with defaults, or None below the row's least k."""
    k, residue = divmod(n, 3)
    variant, _, _, least_k = FORMULAS[residue]
    return None if k < least_k else build(ConstructionSpec(variant, k))


# --- parameter sweeps -----------------------------------------------------


def _derangement_pairs(k: int):
    for sigma in itertools.permutations(range(k)):
        for tau in itertools.permutations(range(k)):
            if all(s != t for s, t in zip(sigma, tau)):
                yield TwoFactorSpec(k, sigma, tau)


def k3_full_sweep() -> list[tuple[str, LinearTripleSystem]]:
    """Every parameter choice of the four generators at k = 3.

    At k = 3 the matching decomposition is unique (the remainder is itself
    a perfect matching) and the long-cycle coloring of c1 is forced by its
    anchors, so the free choices are exactly: the 2-factor and the special
    edges for c1; the 2-factor and the cycle coloring for c2; the two
    triangle colorings for c3; the crossing-matching variant for c4.
    """
    out = []
    for tf in _derangement_pairs(3):
        cyc = two_factor(tf)[0]
        for offsets in _long_cycle_offsets(cyc, 3):
            spec = ConstructionSpec("c1", 3, two_factor=tf, special_edge_offsets=offsets)
            out.append((f"c1 sigma={tf.sigma} tau={tf.tau} offsets={offsets}", build(spec)))
        for rot in range(3):
            for flip in (False, True):
                spec = ConstructionSpec("c2", 3, two_factor=tf)
                system, _ = _build_c2(spec, None, colorings=[(rot, flip)])
                out.append((f"c2 sigma={tf.sigma} tau={tf.tau} rot={rot} flip={flip}", system))
    for px in itertools.permutations("abc"):
        for py in itertools.permutations("abc"):
            spec = ConstructionSpec("c3", 3, triangle_perms=("".join(px), "".join(py)))
            out.append((f"c3 perms={px}{py}", build(spec)))
    for variant in (1, 2, 3):
        spec = ConstructionSpec("c4", 3, mv_variant=variant)
        out.append((f"c4 variant={variant}", build(spec)))
    return out


def c1_offset_sweep(k: int) -> list[tuple[tuple[int, int], LinearTripleSystem]]:
    """c1 on the default Hamiltonian 2-factor, one build per valid special-edge pair."""
    tf = hamiltonian_two_factor(k)
    cyc = two_factor(tf)[0]
    out = []
    for offsets in _long_cycle_offsets(cyc, k):
        spec = ConstructionSpec("c1", k, two_factor=tf, special_edge_offsets=offsets)
        out.append((offsets, build(spec)))
    return out
