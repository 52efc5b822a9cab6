"""Canonical labeling and isomorphism testing for triple systems.

The canonical form is the lexicographically minimal sorted edge list over
all vertex relabelings, found by one branch-and-bound depth-first search
over label assignments.  Labels 0, 1, 2, ... are assigned to original
vertices one at a time; a partial assignment is scored by an optimistic
completion:

* an edge with all three vertices labeled contributes its final image;
* an edge with labeled vertices p < q (or p, or none) contributes the
  smallest image any completion could give it, (p, q, depth),
  (p, depth, depth+1) or (depth, depth+1, depth+2), since every
  unassigned vertex receives a label >= depth.

Raising multiset elements never lowers the sorted list, so the scored
list is a true lower bound on every leaf below the node.  Children are
tried in order of (bound, vertex), and the search returns the first leaf
in that order whose list is minimal.

Scoring.  A node at depth d scores all its children from one pass over
the edges.  The pass gives base, the sorted list of every edge's entry at
placeholder d+1 with no new label, and two entries per edge: old, its
entry in base, and new, its entry once one of its unlabeled vertices
takes label d.  new does not depend on which vertex that is, since d is
above every label given so far: it is (p, q, d), (p, d, d+1) or
(d, d+1, d+2).  A child v's bound is base with old replaced by new for
the deg(v) edges through v (bisect out, insort in).  That is the list a
full rescoring at placeholder d+1 gives: an edge off v keeps its labels
and so its entry old, an edge through v gets new, and a sorted list is
fixed by its multiset of entries.

Search space.  Label 0 goes to a vertex on an edge, label 1 to a vertex
sharing an edge with it and label 2 to the third vertex of that edge
(unique, by linearity).  When the system has any edge the minimal list
starts with (0,1,2), so these are exactly the labelings that can reach
it.  Only the u vertices on edges take labels 0..u-1; the isolated
vertices then take u, u+1, ... in vertex order.  That loses nothing:
relabeling the edge vertices 0..u-1 in the order of their labels lowers
no edge vertex's label, hence no packed triple, hence not the sorted
list, and the isolated vertices appear in no edge.

Cuts.  Each cut below drops only leaves whose lists are >= the best list
found so far.  So no smaller list is missed, and the first minimal leaf
is never dropped: dropping it would need an equal list found before it.
By induction, once a child has been handled no leaf below it is smaller
than the best list.

* Bound.  A child is cut only when its bound is strictly greater than the
  best list.  Leaves equal to the best are reached, and the best changes
  only on a strictly smaller leaf.
* Automorphisms.  A leaf whose list equals the best list gives
  sigma = best_label^-1 o label.  Both labelings carry the edge set E onto
  the same list, so sigma(E) = best_label^-1(label(E)) = E: sigma is an
  automorphism.  It stays one when a smaller leaf replaces the best, so
  every such sigma is kept as a generator.
* Orbit pruning.  At a node with path v0..v(d-1), let G be the group
  generated by the kept generators that fix every path vertex.  If g in G
  maps a handled child w' to a candidate w, then each leaf labeling L
  below w gives the labeling L o g below w' with the same list: g fixes
  the path, maps w' to w and E onto E, and so keeps the rules for labels
  0..2 and for edge vertices; only the order of the isolated vertices may
  change, which the list does not see.  Nothing below w' is smaller than
  the best, so w is skipped.
* Abandoning a subtree.  When a leaf equals the best, its generator sigma
  fixes the common prefix v0..v(d-1) of the two leaves' paths and maps
  the current child v_d to the best leaf's b_d, a sibling handled before
  it.  By the orbit rule v_d's subtree holds nothing smaller than the
  best, so the search returns to depth d at once.

Matching a target.  isomorphism(h1, h2) needs only the first leaf of h2's
tree whose list is T, h1's canonical list.  The search in target mode
stops at its first leaf, and keeps a candidate v for label d only if the
new entries of v's edges, sorted, equal T's triples through label d
written the way new writes them: (a, b, d), (a, d, d+1) or (d, d+1, d+2).
* The check is necessary: a leaf with list T carries the edges through v
  onto T's triples through d, and new masks the labels above d of each
  image exactly so.  It is sufficient at a leaf: only an (a, b, d) entry
  ends in d, so the check at d matches the edges whose largest label is d
  with T's triples whose largest label is d, and over d = 0..u-1 that is
  every edge and every triple of T (T's labels are below u, as h2 has
  h1's degrees).  So every leaf reached has list T, and the check drops
  no leaf with list T.
* The labeling is the one canonical_form(h2) gives.  No best is set
  before the stop, so no bound cut, generator or orbit prune applies, and
  the search returns the first leaf whose list is T in the order of
  (bound, vertex).  When h2 is isomorphic to h1, T is h2's minimal list,
  and the minimizing search returns the first minimal leaf in that same
  order (above).
* Budget.  Without automorphisms to prune, a target search on two
  non-isomorphic systems with equal degrees can run long.  It is capped at
  N1, the nodes h1's own search entered; past N1, isomorphism runs the
  ceiling search of h2 under T instead (below).  A call thus costs at most
  h1's minimizing search, N1 + 1 target nodes and h2's minimizing search.

Ceiling.  Enumeration asks whether a system's own sorted list is its
minimal list, and isomorphism's fallback whether h2's minimal list is T.
The search answers both from a ceiling C: it is the minimizing search,
stopped at the first leaf strictly below C with no labeling, since C is
then not minimal.  With no such leaf it runs to the end, where its best
is the minimal list, and returns that list and its labeling when it is C
and no labeling when it is not.  Up to the stop the traversal is
canonical_form's, so a search that accepts C returns canonical_form's
labeling and node count, and one that rejects C enters at most as many
nodes.

Triples are packed into ints (a<<12 | b<<6 | c) so list comparison and
sorting stay cheap.  A field holds 0..63, hence n <= 64, with one
exception in base: an edge with k unlabeled vertices has old entry up to
placeholder d+k, which reaches u = 64 on the 64-vertex systems with every
vertex on an edge, and such an entry spills into the next field.  But
d+k >= u means the edge holds all u-d unlabeled vertices, so every child
patches it out (bisect_left finds the same int in base) before any list
is compared, and new entries stop at d+k-1 <= 63.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Optional

from .core import LinearTripleSystem, Triple


def _unpack(x: int) -> Triple:
    return Triple(x >> 12, (x >> 6) & 63, x & 63)


def _pack(edges) -> list[int]:
    return [(a << 12) | (b << 6) | c for a, b, c in edges]


def _search(n: int, edges: tuple[Triple, ...], target: Optional[list[int]] = None,
            budget: int = 0, ceiling: Optional[list[int]] = None,
            ) -> tuple[Optional[list[int]], list[int], int]:
    """The labeling search; returns (list, labeling, nodes entered).

    With no target or ceiling: the minimal packed edge list and its first
    labeling.  With a target, the packed canonical list of a system with
    the same degrees: (target, the first labeling giving it) or (None, [])
    after at most budget + 1 nodes; nodes > budget means that the search
    stopped at the budget undecided (module docstring, "Matching a
    target").  With a ceiling, a sorted packed list: (ceiling,
    canonical_form's labeling) when it is the minimal list, else (None, [])
    (module docstring, "Ceiling").
    """
    if not edges:
        return [], list(range(n)), 0
    everts = [tuple(e) for e in edges]
    third = {}  # (x, y) -> the third vertex of the edge through x and y
    for (a, b, c) in everts:
        third[a, b] = third[b, a] = c
        third[a, c] = third[c, a] = b
        third[b, c] = third[c, b] = a
    incident: list[list[int]] = [[] for _ in range(n)]  # vertex -> its edges' indices
    for i, e in enumerate(everts):
        for v in e:
            incident[v].append(i)
    on_edge = [v for v in range(n) if incident[v]]
    isolated = sorted(set(range(n)).difference(on_edge))
    u = len(on_edge)
    label = [-1] * n
    path: list[int] = []
    best: Optional[list[int]] = None
    best_label: list[int] = []
    gens: list[list[int]] = []
    nodes = 0
    if target is not None:
        # per label d, the target's entries through d as bounds() writes
        # new: (a, b, d), (a, d, d+1) or (d, d+1, d+2)
        through: list[list[int]] = [[] for _ in range(u)]
        for x in target:
            a, b, c = x >> 12, (x >> 6) & 63, x & 63
            through[a].append((a << 12) | ((a + 1) << 6) | a + 2)
            through[b].append((a << 12) | (b << 6) | b + 1)
            through[c].append(x)
        for entries in through:
            entries.sort()

    def bounds(depth: int) -> tuple[list[int], list[int], list[int]]:
        """The sorted bound list at placeholder depth+1 with no new label,
        and per edge its entry there (old) and its entry once one of its
        unlabeled vertices takes label depth (new)."""
        d1 = depth + 1
        old = []
        new = []
        for (a, b, c) in everts:
            la, lb, lc = label[a], label[b], label[c]
            if la > lb:
                la, lb = lb, la
            if lb > lc:
                lb, lc = lc, lb
                if la > lb:
                    la, lb = lb, la
            # now la <= lb <= lc; unassigned (-1) labels sorted to the front
            if la >= 0:
                x = y = (la << 12) | (lb << 6) | lc
            elif lb >= 0:
                x = (lb << 12) | (lc << 6) | d1
                y = (lb << 12) | (lc << 6) | depth
            elif lc >= 0:
                x = (lc << 12) | (d1 << 6) | d1 + 1
                y = (lc << 12) | (depth << 6) | d1
            else:
                x = (d1 << 12) | ((d1 + 1) << 6) | d1 + 2
                y = (depth << 12) | (d1 << 6) | d1 + 1
            old.append(x)
            new.append(y)
        return sorted(old), old, new

    def leaf(cur: list[int]) -> int:
        """Record a complete labeling; returns the depth to resume at."""
        nonlocal best, best_label
        if ceiling is not None and cur < ceiling:  # the ceiling is not minimal: stop
            best = None
            return -1
        full = label[:]
        for i, v in enumerate(isolated):
            full[v] = u + i
        if best is None or cur < best:
            best, best_label = cur, full
            return -1 if target is not None else u  # a target search stops at its first leaf
        # equal to the best: sigma = best_label^-1 o full is an automorphism
        inv = [0] * n
        for v, lab in enumerate(best_label):
            inv[lab] = v
        gens.append([inv[lab] for lab in full])
        d = 0
        while inv[d] == path[d]:
            d += 1
        return d

    def find(parent: list[int], v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def dfs(depth: int) -> int:
        """Explore the children of the current path; returns the depth to
        resume at (depth itself, less when a found automorphism covers the
        rest of an ancestor's subtree, -1 when a target or ceiling search
        stops)."""
        nonlocal nodes
        if depth == 0:
            cands = on_edge
        elif depth == 1:
            cands = [v for v in on_edge if (path[0], v) in third]
        elif depth == 2:
            cands = [third[path[0], path[1]]]
        else:
            cands = [v for v in on_edge if label[v] == -1]
        base, old, new = bounds(depth)
        if target is not None:
            want = through[depth]
            cands = [v for v in cands
                     if sorted([new[i] for i in incident[v]]) == want]
        options = []
        for v in cands:
            lb = base[:]
            for i in incident[v]:
                del lb[bisect_left(lb, old[i])]
                insort(lb, new[i])
            if best is None or lb <= best:
                options.append((lb, v))
        options.sort()
        explored: list[int] = []
        orbit: list[int] = []  # union-find over the generators fixing the path
        used = 0  # generators already merged into orbit
        for lb, v in options:
            if best is not None and lb > best:
                break
            if explored and used < len(gens):
                for g in gens[used:]:
                    if all(g[p] == p for p in path):
                        orbit = orbit or list(range(n))
                        for x in range(n):
                            rx, ry = find(orbit, x), find(orbit, g[x])
                            if rx != ry:
                                orbit[rx] = ry
                used = len(gens)
            if orbit and any(find(orbit, v) == find(orbit, w) for w in explored):
                continue
            nodes += 1
            if target is not None and nodes > budget:
                return -1
            label[v] = depth
            path.append(v)
            resume = leaf(lb) if depth + 1 == u else dfs(depth + 1)
            path.pop()
            label[v] = -1
            if resume < depth:
                return resume
            explored.append(v)
        return depth

    dfs(0)
    if best is None or ceiling is not None and best != ceiling:
        return None, [], nodes
    return best, best_label, nodes


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant representative: equal forms iff isomorphic systems.

    nodes counts the nodes canonical_form's labeling search entered.  A
    form enumerate_extremal returns carries the same labeling and count,
    from the ceiling search that accepted its system (_canonical_copy).
    """

    n: int
    edges: tuple[Triple, ...]
    labeling: tuple[int, ...] = field(compare=False, repr=False)
    nodes: int = field(default=0, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        """Stable encoding: n as one byte, then each sorted triple as 3 bytes."""
        return bytes([self.n]) + b"".join(bytes(e) for e in self.edges)

    def system(self) -> LinearTripleSystem:
        return LinearTripleSystem(self.n, self.edges)


def canonical_form(system: LinearTripleSystem) -> CanonicalForm:
    packed, labeling, nodes = _search(system.n, system.edges)
    return CanonicalForm(system.n, tuple(_unpack(x) for x in packed), tuple(labeling), nodes)


def _canonical_copy(n: int, edges: tuple[Triple, ...]) -> Optional[CanonicalForm]:
    """The form of the system on n vertices with these edges, sorted, when
    they are its minimal list, else None: the ceiling search under their
    own list (module docstring, "Ceiling").  The form carries
    canonical_form's labeling and node count."""
    found, labeling, nodes = _search(n, edges, ceiling=_pack(edges))
    return None if found is None else CanonicalForm(n, tuple(edges), tuple(labeling), nodes)


def is_isomorphic(h1: LinearTripleSystem, h2: LinearTripleSystem) -> bool:
    return isomorphism(h1, h2) is not None


def isomorphism(h1: LinearTripleSystem, h2: LinearTripleSystem) -> Optional[tuple[int, ...]]:
    """A vertex bijection carrying the edges of h1 onto the edges of h2, or None.

    h2 is searched for a labeling onto h1's canonical list, within as many
    nodes as h1's own search took; past that, the search of h2 with that
    list as its ceiling decides, in at most the nodes of h2's own form
    (module docstring, "Matching a target" and "Ceiling").  The bijection
    is the one the two canonical labelings give, whichever way it was
    found.  A c1 system against a relabeling takes ~0.1 s at k=4 and ~3 s
    at k=5, against ~0.2 s and ~6 s for two canonical forms (CPU, one core
    of a 2-core x86-64 VM); nearly all of it is h1's form.
    """
    if h1.n != h2.n or h1.m != h2.m or sorted(h1.degrees()) != sorted(h2.degrees()):
        return None
    f1 = canonical_form(h1)
    target = _pack(f1.edges)
    found, labeling2, nodes = _search(h2.n, h2.edges, target, f1.nodes)
    if nodes > f1.nodes:
        found, labeling2, _ = _search(h2.n, h2.edges, ceiling=target)
    if found is None:
        return None
    inv2 = [0] * h2.n
    for v, lab in enumerate(labeling2):
        inv2[lab] = v
    return tuple(inv2[f1.labeling[v]] for v in range(h1.n))
