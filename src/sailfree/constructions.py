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
* transversal design, n = 3k: groups 0..k-1, k..2k-1, 2k..3k-1.

A seed randomizes every free choice that the parameters leave open (the
2-factor, special edges, colorings of short cycles, matching extraction
order, Latin square).  Explicitly supplied parameters always win over the
seed.
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
    """Random composition of k from the allowed part sizes."""
    allowed = sorted(set(allowed))
    smallest = allowed[0]
    while True:
        parts = []
        left = k
        while left:
            options = [s for s in allowed if s <= left and (left - s == 0 or left - s >= smallest)]
            if not options:
                break
            s = rng.choice(options)
            parts.append(s)
            left -= s
        if left == 0 and (need_one_of is None or any(p in need_one_of for p in parts)):
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

    def __post_init__(self):
        if self.variant not in self._ALLOWED:
            raise ValueError(f"unknown construction variant {self.variant!r}")
        allowed = self._ALLOWED[self.variant]
        for name in ("two_factor", "special_edge_offsets", "triangle_perms", "mv_variant", "latin"):
            if getattr(self, name) is not None and name not in allowed:
                raise ValueError(f"parameter {name} does not apply to variant {self.variant}")
        if self.variant in ("c3", "c4") and self.k != 3:
            raise ValueError(f"variant {self.variant} is defined only for k=3")


# --- general family -------------------------------------------------------


def _long_cycle_offsets(cycle: list[int], k: int) -> list[tuple[int, int]]:
    """All valid (a'c' position, x'y' position) pairs on the given cycle."""
    length = len(cycle)
    edge_at = lambda p: (cycle[p], cycle[(p + 1) % length])
    cycle_edges = {frozenset(edge_at(p)) for p in range(length)}
    out = []
    for p in range(length):
        ap, cp = edge_at(p)
        if ap >= k:
            ap, cp = cp, ap
        for q in range(length):
            u, w = edge_at(q)
            if {u, w} & set(edge_at(p)):
                continue
            xp, yp = (u, w) if u < k else (w, u)
            if frozenset((ap, yp)) in cycle_edges or frozenset((cp, xp)) in cycle_edges:
                continue
            out.append((p, q))
    return out


def _special_vertices(cycle: list[int], offsets: tuple[int, int], k: int):
    """Resolve (a', c', x', y') from edge positions, validating the choice."""
    length = len(cycle)
    p, q = offsets
    if not (0 <= p < length and 0 <= q < length):
        raise BadSpecialEdges(f"offsets {offsets} outside cycle of length {length}")
    if (p, q) not in _long_cycle_offsets(cycle, k):
        raise BadSpecialEdges(
            f"offsets {offsets} violate disjointness or the chord conditions"
        )
    ap, cp = cycle[p], cycle[(p + 1) % length]
    if ap >= k:
        ap, cp = cp, ap
    u, w = cycle[q], cycle[(q + 1) % length]
    xp, yp = (u, w) if u < k else (w, u)
    return ap, cp, xp, yp


def _color_long_cycle(cycle: list[int], p: int, q: int, a_prime: int):
    """Anchored proper 2-coloring of the long cycle minus its special edges.

    Removing the edges at positions p (a'c') and q (x'y') leaves two paths;
    the path end at a' is colored 'a', the path end at c' is colored 'c',
    alternating inward.  Returns {position: color}.
    """
    length = len(cycle)
    arc1 = [r % length for r in range(p + 1, p + 1 + (q - p - 1) % length)]
    arc2 = [r % length for r in range(q + 1, q + 1 + (p - q - 1) % length)]
    colors: dict[int, str] = {}
    if cycle[(p + 1) % length] == a_prime:
        starts = (("a", arc1), ("c", list(reversed(arc2))))
    else:
        starts = (("c", arc1), ("a", list(reversed(arc2))))
    for anchor, arc in starts:
        flip = {"a": "c", "c": "a"}
        col = anchor
        for r in arc:
            colors[r] = col
            col = flip[col]
    return colors


def _resolve_two_factor(
    spec: ConstructionSpec, rng: Optional[random.Random], for_c2: bool
) -> TwoFactorSpec:
    k = spec.k
    if spec.two_factor is not None:
        if spec.two_factor.k != k:
            raise ValueError("two_factor.k disagrees with spec.k")
        return spec.two_factor
    if rng is None:
        return hamiltonian_two_factor(k)
    if for_c2:
        parts = _random_parts(k, rng, [s for s in (3, 6, 9) if s <= k])
    else:
        parts = _random_parts(k, rng, range(2, k + 1), need_one_of=range(3, k + 1))
    return _random_two_factor(k, rng, parts)


def _build_c1(spec: ConstructionSpec):
    k = spec.k
    if k < 3:
        raise KTooSmall(f"construction c1 needs k >= 3, got {k}")
    rng = random.Random(spec.seed) if spec.seed is not None else None
    tf = _resolve_two_factor(spec, rng, for_c2=False)
    cycles = two_factor(tf)
    eligible = [i for i, c in enumerate(cycles) if len(c) >= 6]
    if not eligible:
        raise NoLongCycle("no cycle of the 2-factor has length >= 6")
    # explicit offsets are positions on the designated cycle, so the
    # designation must not depend on the seed then
    if rng is not None and spec.special_edge_offsets is None:
        long_idx = rng.choice(eligible)
    else:
        long_idx = eligible[0]
    cyc = cycles[long_idx]
    length = len(cyc)

    if spec.special_edge_offsets is not None:
        offsets = spec.special_edge_offsets
    elif rng is not None:
        offsets = rng.choice(_long_cycle_offsets(cyc, k))
    else:
        offsets = (0, 3)
    a_pr, c_pr, x_pr, y_pr = _special_vertices(cyc, offsets, k)
    p, q = offsets

    za, zb, zc = 3 * k - 2, 3 * k - 1, 3 * k
    color_vertex = {"a": za, "b": zb, "c": zc}
    colored: list[tuple[int, int, str]] = []

    long_colors = _color_long_cycle(cyc, p, q, a_pr)
    for r, col in long_colors.items():
        colored.append((cyc[r], cyc[(r + 1) % length], col))
    colored.append((x_pr, y_pr, "b"))
    for i, other in enumerate(cycles):
        if i == long_idx:
            continue
        phase = rng.randrange(2) if rng is not None else 0
        for r in range(len(other)):
            col = "ac"[(r + phase) % 2]
            colored.append((other[r], other[(r + 1) % len(other)], col))

    edges = [(u, w, color_vertex[col]) for (u, w, col) in colored]
    matchings = matching_decomposition(k, tf, rng)
    for zi, matching in enumerate(matchings):
        for (i, j) in matching:
            edges.append((i, k + j, 2 * k + zi))
    edges.append((a_pr, zb, zc))
    edges.append((c_pr, za, zb))

    system = make_system(3 * k + 1, edges)
    details = {
        "variant": "c1",
        "k": k,
        "sigma": list(tf.sigma),
        "tau": list(tf.tau),
        "cycles": cycles,
        "long_cycle_index": long_idx,
        "special_edge_offsets": list(offsets),
        "a_prime": a_pr,
        "c_prime": c_pr,
        "x_prime": x_pr,
        "y_prime": y_pr,
        "coloring": [[u, w, col] for (u, w, col) in colored],
        "matchings": [[[i, k + j] for (i, j) in mt] for mt in matchings],
        "abc": [za, zb, zc],
    }
    return system, details


def _c2_cycle_coloring(length: int, rot: int, flip: bool) -> list[str]:
    seq = "abc" if not flip else "acb"
    return [seq[(r + rot) % 3] for r in range(length)]


def _build_c2(spec: ConstructionSpec, _colorings: Optional[list[tuple[int, bool]]] = None):
    k = spec.k
    if k < 3:
        raise KTooSmall(f"construction c2 needs k >= 3, got {k}")
    if k % 3:
        raise DivisibilityViolation(f"construction c2 needs 3 | k, got k={k}")
    rng = random.Random(spec.seed) if spec.seed is not None else None
    tf = _resolve_two_factor(spec, rng, for_c2=True)
    cycles = two_factor(tf)
    if any(len(c) % 6 for c in cycles):
        raise BadCycleLengths("every 2-factor cycle must have length divisible by 6")

    za, zb, zc = 3 * k - 2, 3 * k - 1, 3 * k
    color_vertex = {"a": za, "b": zb, "c": zc}
    colored: list[tuple[int, int, str]] = []
    coloring_choices = []
    for ci, cyc in enumerate(cycles):
        if _colorings is not None:
            rot, flip = _colorings[ci]
        elif rng is not None:
            rot, flip = rng.randrange(3), bool(rng.randrange(2))
        else:
            rot, flip = 0, False
        coloring_choices.append((rot, flip))
        cols = _c2_cycle_coloring(len(cyc), rot, flip)
        for r in range(len(cyc)):
            colored.append((cyc[r], cyc[(r + 1) % len(cyc)], cols[r]))

    edges = [(u, w, color_vertex[col]) for (u, w, col) in colored]
    matchings = matching_decomposition(k, tf, rng)
    for zi, matching in enumerate(matchings):
        for (i, j) in matching:
            edges.append((i, k + j, 2 * k + zi))
    edges.append((za, zb, zc))

    system = make_system(3 * k + 1, edges)
    details = {
        "variant": "c2",
        "k": k,
        "sigma": list(tf.sigma),
        "tau": list(tf.tau),
        "cycles": cycles,
        "cycle_colorings": [list(t) for t in coloring_choices],
        "coloring": [[u, w, col] for (u, w, col) in colored],
        "matchings": [[[i, k + j] for (i, j) in mt] for mt in matchings],
        "abc": [za, zb, zc],
    }
    return system, details


# --- small family (k = 3) -------------------------------------------------

_X1, _X2, _X3, _Y1, _Y2, _Y3, _A, _B, _C, _V = range(10)
_X_TRIANGLE = ((_X1, _X2), (_X2, _X3), (_X3, _X1))
_Y_TRIANGLE = ((_Y1, _Y2), (_Y2, _Y3), (_Y3, _Y1))


def _build_c3(spec: ConstructionSpec):
    rng = random.Random(spec.seed) if spec.seed is not None else None
    if spec.triangle_perms is not None:
        px, py = spec.triangle_perms
    elif rng is not None:
        px = "".join(rng.sample("abc", 3))
        py = "".join(rng.sample("abc", 3))
    else:
        px, py = "abc", "abc"
    for perm in (px, py):
        if sorted(perm) != ["a", "b", "c"]:
            raise BadColorAssignment(f"{perm!r} is not a permutation of 'abc'")

    color_vertex = {"a": _A, "b": _B, "c": _C}
    edges = [(_X1, _Y1, _V), (_X2, _Y2, _V), (_X3, _Y3, _V)]
    for (u, w), col in zip(_X_TRIANGLE, px):
        edges.append((u, w, color_vertex[col]))
    for (u, w), col in zip(_Y_TRIANGLE, py):
        edges.append((u, w, color_vertex[col]))
    edges.append((_A, _B, _C))
    system = make_system(10, edges)
    details = {"variant": "c3", "k": 3, "triangle_perms": [px, py]}
    return system, details


_MV_VARIANTS = {
    1: ((_X1, _Y1), (_X2, _Y2), (_X3, _Y3)),
    2: ((_X1, _Y2), (_X2, _Y1), (_X3, _Y3)),
    3: ((_X1, _Y3), (_X3, _Y1), (_X2, _Y2)),
}


def _build_c4(spec: ConstructionSpec):
    rng = random.Random(spec.seed) if spec.seed is not None else None
    if spec.mv_variant is not None:
        variant = spec.mv_variant
    elif rng is not None:
        variant = rng.choice((1, 2, 3))
    else:
        variant = 1
    if variant not in _MV_VARIANTS:
        raise BadVariant(f"mv_variant must be 1, 2 or 3, got {variant}")

    edges = [
        (_Y1, _Y2, _A), (_X1, _X2, _A),
        (_X2, _X3, _B),
        (_Y1, _Y3, _C), (_X1, _X3, _C),
    ]
    edges += [(u, w, _V) for (u, w) in _MV_VARIANTS[variant]]
    edges.append((_A, _B, _Y3))
    edges.append((_B, _C, _Y2))
    system = make_system(10, edges)
    details = {"variant": "c4", "k": 3, "mv_variant": variant}
    return system, details


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


def transversal_design(k: int, latin=None, seed: Optional[int] = None) -> LinearTripleSystem:
    """T(3k, 3): groups X, Y, Z of size k; every cross-group pair covered once."""
    if k < 1:
        raise KTooSmall(f"transversal design needs k >= 1, got {k}")
    if latin is None:
        latin = _random_latin(k, random.Random(seed)) if seed is not None else _cyclic_latin(k)
    _check_latin(latin, k)
    edges = [(i, k + j, 2 * k + latin[i][j]) for i in range(k) for j in range(k)]
    return make_system(3 * k, edges)


def truncated_design(k: int, seed: Optional[int] = None) -> LinearTripleSystem:
    """Transversal design on 3k+3 vertices with the last vertex deleted."""
    if k < 1:
        raise KTooSmall(f"truncated design needs k >= 1, got {k}")
    td = transversal_design(k + 1, seed=seed)
    gone = 3 * k + 2
    kept = [e for e in td.edges if gone not in e]
    return make_system(3 * k + 2, kept)


# --- dispatch -------------------------------------------------------------


def build(spec: ConstructionSpec) -> LinearTripleSystem:
    return build_resolved(spec)[0]


def build_resolved(spec: ConstructionSpec):
    """Build a system and return it with the fully resolved parameter choices."""
    if spec.variant == "c1":
        return _build_c1(spec)
    if spec.variant == "c2":
        return _build_c2(spec)
    if spec.variant == "c3":
        return _build_c3(spec)
    if spec.variant == "c4":
        return _build_c4(spec)
    if spec.variant == "td":
        system = transversal_design(spec.k, spec.latin, spec.seed)
        return system, {"variant": "td", "k": spec.k}
    if spec.variant == "truncated":
        system = truncated_design(spec.k, spec.seed)
        return system, {"variant": "truncated", "k": spec.k}
    raise ValueError(f"unknown construction variant {spec.variant!r}")


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
                system, _ = _build_c2(
                    ConstructionSpec("c2", 3, two_factor=tf), _colorings=[(rot, flip)]
                )
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
