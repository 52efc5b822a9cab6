"""Value types and exact primitives for linear triple systems.

Vertices are 0-based contiguous integers.  Edges are stored as sorted
triples and the edge list is kept in lexicographic order, so two equal
systems always have identical in-memory representations.  Neighborhoods
are kept, and pair coverage is checked, as integer bit-sets, which caps
the supported vertex count at 64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import (
    DegenerateEdge,
    DuplicateEdge,
    LinearityViolation,
    UnsupportedSize,
    VertexOutOfRange,
)

MAX_VERTICES = 64


class Triple(NamedTuple):
    """A hyperedge: three distinct vertices stored in ascending order."""

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "Triple":
        vs = sorted(vertices)
        if len(vs) != 3 or vs[0] == vs[1] or vs[1] == vs[2]:
            raise DegenerateEdge(f"a triple needs 3 distinct vertices, got {vs}")
        return cls(vs[0], vs[1], vs[2])

    @property
    def mask(self) -> int:
        return (1 << self.a) | (1 << self.b) | (1 << self.c)

    def pairs(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.a, self.c), (self.b, self.c))


def pair_mask(n: int, t: Triple) -> int:
    """Bit-set of the three vertex pairs of ``t`` (bit u*n+v for u < v)."""
    return (
        (1 << (t.a * n + t.b))
        | (1 << (t.a * n + t.c))
        | (1 << (t.b * n + t.c))
    )


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


@dataclass(frozen=True)
class LinearTripleSystem:
    """A 3-uniform linear hypergraph: any two edges share at most one vertex.

    The constructor validates everything; invalid instances cannot exist.
    Instances are immutable and safe to share between workers.
    """

    n: int
    edges: tuple[Triple, ...]
    _nbr: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 3 <= self.n <= MAX_VERTICES:
            raise UnsupportedSize(f"n={self.n} outside supported range 3..{MAX_VERTICES}")
        # Triple.of sorts any other edge, and raises DegenerateEdge unless
        # it has three distinct vertices
        edges = tuple(sorted(e if type(e) is Triple and e.a < e.b < e.c else Triple.of(e)
                             for e in self.edges))
        object.__setattr__(self, "edges", edges)
        n = self.n
        nbr = [0] * n
        covered = 0
        prev = None
        for e in edges:
            if e.a < 0 or e.c >= n:
                raise VertexOutOfRange(f"edge {tuple(e)} not inside [0, {n})")
            if e == prev:
                raise DuplicateEdge(f"edge {tuple(e)} listed twice")
            prev = e
            pm = pair_mask(n, e)
            if covered & pm:
                other = next(h for h in edges if h is not e and len(set(h) & set(e)) >= 2)
                raise LinearityViolation(other, e)
            covered |= pm
            m = e.mask
            nbr[e.a] |= m & ~(1 << e.a)
            nbr[e.b] |= m & ~(1 << e.b)
            nbr[e.c] |= m & ~(1 << e.c)
        object.__setattr__(self, "_nbr", tuple(nbr))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for e in self.edges:
            d[e.a] += 1
            d[e.b] += 1
            d[e.c] += 1
        return d

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not inside [0, {self.n})")


def make_system(n: int, triples: Iterable[Iterable[int]]) -> LinearTripleSystem:
    """Validate and normalize raw triples into a LinearTripleSystem.

    Raises DegenerateEdge, VertexOutOfRange, DuplicateEdge or
    LinearityViolation (the last one names an offending pair of edges).
    """
    return LinearTripleSystem(n, tuple(triples))


@dataclass(frozen=True)
class ShadowGraph:
    """The 2-shadow: every vertex pair covered by some edge."""

    n: int
    pairs: frozenset[tuple[int, int]]


def shadow(system: LinearTripleSystem) -> ShadowGraph:
    pairs = set()
    for e in system.edges:
        pairs.update(e.pairs())
    return ShadowGraph(system.n, frozenset(pairs))


@dataclass(frozen=True)
class VertexStats:
    """Degree, neighborhood N(v), complement S(v) and link of one vertex.

    S(v) is the complement of N(v), so it always contains v itself.
    """

    v: int
    degree: int
    neighborhood: frozenset[int]
    complement: frozenset[int]
    link: frozenset[tuple[int, int]]


def vertex_stats(system: LinearTripleSystem, v: int) -> VertexStats:
    system._check_vertex(v)
    nbr = mask_to_set(system._nbr[v])
    link = frozenset(
        tuple(sorted(set(e) - {v})) for e in system.edges if v in e
    )
    comp = frozenset(range(system.n)) - nbr
    return VertexStats(v, len(link), nbr, comp, link)


def deficiency(system: LinearTripleSystem, vertices: Iterable[int], k: int) -> int:
    """Total degree shortfall of the given vertices relative to k.

    Equals |S|*k - sum of degrees; negative when degrees exceed k.
    """
    vs = list(vertices)
    for v in vs:
        system._check_vertex(v)
    degs = system.degrees()
    return len(vs) * k - sum(degs[v] for v in vs)


@dataclass(frozen=True)
class NeighborhoodAnalysis:
    """Partition of the edge set by intersection size with N(v).

    e0 holds edges fully inside N(v); a sail-free system has e0 empty for
    every vertex.  e1, e2, e3 have exactly 2, 1, 0 vertices in N(v).  For
    each x in S(v), d_table[x] = (d1, d2, d3) counts the edges of each part
    through x, and m_family[x] is the matching M_x: the pairs completing x
    to an edge with both other vertices in N(v).
    """

    v: int
    k: int
    e0: tuple[Triple, ...]
    e1: tuple[Triple, ...]
    e2: tuple[Triple, ...]
    e3: tuple[Triple, ...]
    d_table: dict[int, tuple[int, int, int]]
    m_family: dict[int, frozenset[tuple[int, int]]]


def neighborhood_partition(system: LinearTripleSystem, v: int, k: int) -> NeighborhoodAnalysis:
    system._check_vertex(v)
    nmask = system._nbr[v]
    parts: tuple[list, list, list, list] = ([], [], [], [])
    for e in system.edges:
        inside = (e.mask & nmask).bit_count()
        parts[3 - inside].append(e)  # inside==3 -> e0 ... inside==0 -> e3
    e0, e1, e2, e3 = (tuple(p) for p in parts)
    s_vertices = [x for x in range(system.n) if not (nmask >> x) & 1]
    d_table = {}
    m_family = {}
    for x in s_vertices:
        d1 = sum(1 for e in e1 if x in e)
        d2 = sum(1 for e in e2 if x in e)
        d3 = sum(1 for e in e3 if x in e)
        d_table[x] = (d1, d2, d3)
        m_family[x] = frozenset(
            tuple(sorted(set(e) - {x})) for e in e1 if x in e
        )
    return NeighborhoodAnalysis(v, k, e0, e1, e2, e3, d_table, m_family)
