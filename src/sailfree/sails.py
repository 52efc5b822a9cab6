"""Sail (3-fan) detection: a definitional scan, a fast neighborhood
criterion, and an incremental guard for the search kernel.

A sail is four edges f1, f2, f3, g: the fans pairwise meet exactly in an
apex vertex v and the crossbar g meets every fan in a vertex other than v.
In a linear system that is equivalent to the existence of a vertex v and
an edge g with v not in g and g inside N(v); the fast detector tests only
this criterion and reconstructs the fans afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .core import LinearTripleSystem, Triple, check_size, pair_mask
from .errors import EmptyStack, VertexOutOfRange

LINEARITY = "linearity"
SAIL = "sail"


@dataclass(frozen=True)
class SailWitness:
    apex: int
    fans: tuple[Triple, Triple, Triple]
    crossbar: Triple

    def __post_init__(self):
        v = self.apex
        f1, f2, f3 = self.fans
        g = self.crossbar
        if any(v not in f for f in self.fans) or v in g:
            raise ValueError("apex must lie in every fan and not in the crossbar")
        for i, fi in enumerate(self.fans):
            for fj in self.fans[i + 1:]:
                if set(fi) & set(fj) != {v}:
                    raise ValueError("fans must pairwise intersect exactly in the apex")
            hit = set(fi) & set(g)
            if len(hit) != 1 or hit == {v}:
                raise ValueError("crossbar must meet each fan in one non-apex vertex")

    def edges(self) -> tuple[Triple, Triple, Triple, Triple]:
        return (*self.fans, self.crossbar)


def _fans(edges: Sequence[Triple], apex: int, crossbar: Triple) -> tuple[Triple, Triple, Triple]:
    """The (unique, by linearity) edges joining the apex to the crossbar."""
    fans = []
    for w in crossbar:
        fans.append(next(e for e in edges if apex in e and w in e))
    return tuple(fans)


def find_sail_fast(system: LinearTripleSystem) -> Optional[SailWitness]:
    """First sail by the neighborhood criterion, or None.

    Returns the witness with the smallest apex, then the smallest crossbar.
    """
    for v in range(system.n):
        nmask = system._nbr[v]
        for g in system.edges:
            gm = g.mask
            if gm & nmask == gm:
                return SailWitness(v, _fans(system.edges, v, g), g)
    return None


def _crossbar_hits(system: LinearTripleSystem):
    """(v, g, hits) for every vertex v of degree >= 3 and every edge g
    avoiding v, hits being the edges through v that meet g, in edge order."""
    for v in range(system.n):
        at_v = [e for e in system.edges if v in e]
        if len(at_v) < 3:
            continue
        for g in system.edges:
            if v not in g:
                gm = g.mask
                yield v, g, [f for f in at_v if f.mask & gm]


def find_sail_bruteforce(system: LinearTripleSystem) -> Optional[SailWitness]:
    """Scan apexes and edge combinations straight from the definition.

    For every vertex v and every edge g avoiding v, any three edges through
    v that each meet g form a sail (linearity makes the fans intersect
    pairwise exactly in v).  Intended for small n and as an oracle.
    """
    for v, g, hits in _crossbar_hits(system):
        if len(hits) >= 3:
            return SailWitness(v, tuple(hits[:3]), g)
    return None


def count_sails(system: LinearTripleSystem) -> int:
    """Number of sail sub-configurations (apex, {f1,f2,f3}, crossbar)."""
    return sum(comb(len(hits), 3) for _, _, hits in _crossbar_hits(system))


@dataclass(frozen=True)
class PushResult:
    accepted: bool
    reason: str | None = None
    conflict: Triple | None = None
    witness: SailWitness | None = None


_ACCEPTED = PushResult(True)


class SailGuard:
    """Mutable edge stack that stays linear and sail-free at all times.

    Single-owner state: each search worker keeps its own guard.  Pushes are
    O(m) bit-set subset tests; pops restore the incremental state exactly.
    Invariant: no vertex is in its own neighborhood mask (_nbr[v] lacks bit
    v, here and in LinearTripleSystem), so an edge inside N(v) avoids v,
    and a vertex in N(u) for every u of a pushed edge t lies outside t;
    neither the guard's tests nor find_sail_fast check either separately.
    The search kernel drives the same push logic through _push_fast with
    precomputed masks; push() wraps it and looks up rejection details.
    """

    __slots__ = ("n", "_stack", "_masks", "_pmasks", "_nbr", "_pairs")

    def __init__(self, n: int):
        check_size(n)
        self.n = n
        self._stack: list[Triple] = []
        self._masks: list[int] = []
        self._pmasks: list[int] = []
        self._nbr: list[int] = [0] * n
        self._pairs = 0

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def edges(self) -> tuple[Triple, ...]:
        return tuple(self._stack)

    def as_system(self) -> LinearTripleSystem:
        return LinearTripleSystem(self.n, tuple(self._stack))

    def fingerprint(self) -> tuple:
        """Complete incremental state, for equality against a rebuild."""
        return (tuple(self._stack), tuple(self._nbr), self._pairs)

    def _push_fast(self, t: Triple, tm: int, pm: int) -> int:
        """0 = accepted (state updated), 1 = linearity, 2 = sail."""
        nbr = self._nbr
        if pm & self._pairs:
            return 1
        # (i) a new crossbar: some apex outside t already sees all of t.
        if nbr[t[0]] & nbr[t[1]] & nbr[t[2]]:
            return 2
        # (ii) a new fan: some existing edge falls inside an updated N(v).
        masks = self._masks
        for v in t:
            outside = ~(nbr[v] | (tm & ~(1 << v)))
            for hm in masks:
                if not hm & outside:
                    return 2
        for v in t:
            nbr[v] |= tm & ~(1 << v)
        self._pairs |= pm
        self._stack.append(t)
        self._masks.append(tm)
        self._pmasks.append(pm)
        return 0

    def push(self, t) -> PushResult:
        t = Triple.of(t)
        if t.a < 0 or t.c >= self.n:
            raise VertexOutOfRange(f"edge {tuple(t)} not inside [0, {self.n})")
        tm = t.mask
        code = self._push_fast(t, tm, pair_mask(self.n, t))
        if code == 0:
            return _ACCEPTED
        if code == 1:
            conflict = next(h for h in self._stack if len(set(h) & set(t)) >= 2)
            return PushResult(False, LINEARITY, conflict=conflict)
        # the stack is sail-free, so every sail of the grown system uses t
        witness = find_sail_fast(LinearTripleSystem(self.n, (*self._stack, t)))
        return PushResult(False, SAIL, witness=witness)

    def _pop_fast(self) -> Triple:
        t = self._stack.pop()
        tm = self._masks.pop()
        # Linearity guarantees each covered pair came from this edge alone,
        # so clearing the bits restores the previous neighborhoods exactly.
        for v in t:
            self._nbr[v] &= ~(tm & ~(1 << v))
        self._pairs &= ~self._pmasks.pop()
        return t

    def pop(self) -> Triple:
        if not self._stack:
            raise EmptyStack("pop from an empty guard")
        return self._pop_fast()
