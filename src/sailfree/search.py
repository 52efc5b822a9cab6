"""Exact computation of the maximum sail-free size and exhaustive
enumeration of extremal instances, by depth-first branch and bound.

One DFS serves both.  Triples are branched in lexicographic order and
every partial system is kept linear and sail-free through the guard, so
each accepted edge set is visited exactly once as its sorted edge list.
The DFS holds a bound and hands every node larger than it to a leaf
policy, which returns the new bound: the maximum search records the
system and raises the bound to its size, so the search goes on above it;
enumeration of m-edge systems keeps the system if it is its class's
canonical copy (the leaf test below) and holds the bound at m-1, so no
system grows past m edges.  Every
run has a degree cap Delta: no vertex may lie in more than Delta edges.
Besides the run stops below, the one prune is the candidate count: a
child is pruned when its edges and the pair-compatible candidate triples
left to it cannot exceed the bound.

The count is evaluated before the guard is touched, so a child that
cannot exceed the bound costs no push.  The bound never falls during a
run (leaf policies return at least the old bound), so a test that fails
for one child fails for every later child of the same node.  The two
steps:

1. Count cut on the loop.  A child's candidates are a subset of the
   candidates after it, so once s plus the number of candidates not yet
   tried (the current one included) is at most the bound, no later child
   can pass the count test, and the node returns.
2. Filter before pushing.  Every candidate set is pair-compatible with
   the stack and avoids the vertices at the cap, so the child's
   candidates after pushing triple t are the later candidates whose pairs
   avoid t's pairs and that miss every vertex t brings to the cap, which
   can be computed before the push.  The guard is asked only for a child
   that passes the count test; its answer then decides whether the child
   is expanded.

No capacity test is needed.  A vertex v of a linear system gains at most
one edge per two unseen vertices, and at most Delta - deg v edges under
the cap.  Every run's cap is at most (n-1)//2, so the second term is the
smaller, and at a node of s edges the capacities sum to n*Delta - 3s:
the capacity test s + (n*Delta - 3s)//3 <= bound is n*Delta//3 <= bound
at every node.  Every caller passes stop_at <= n*Delta//3 (every run's
stop below satisfies it), and a run ends once its bound reaches stop_at,
so the test never fails while the run goes on.

A node's candidates are one int bit mask over triple indices.  For each
triple t = {a,b,c}, _index_masks holds the masks of the triples through
{a,b}, {a,c} and {b,c}, and for each vertex those through it, so the
child's candidates after t are the later bits less three pair masks and
the masks of the vertices t fills, and the count tests are bit counts.
The loop takes set bits from low to high, which is lexicographic order.

Every expanded node and every leaf is the same, in the same order, as
when the cap, the count and the capacity ran on the grown stack after
each push, except the stacks out of first-use order below a star (below);
only pushes of children that would never be expanded are dropped.  At
Delta = (n-1)//2 the cap never binds: a vertex of degree (n-1)//2 has at
most one unseen vertex left, so no pair-compatible triple runs through
it.  The search at that cap below the first edge
{0,1,2} is the unbroken one; only the tests run it, as the oracle the
star break is checked against.

Star symmetry break.  Both searches run once per maximum degree
Delta, from (n-1)//2 down to 1, each below the prefix
{0,1,2}, {0,3,4}, ..., {0,2Delta-1,2Delta} (the star of vertex 0) at cap
Delta.  Soundness: relabel a system of maximum degree Delta so that a
vertex of that degree becomes 0 and its edges the star.  The star's
triples are the smallest triples through 0, and 0 lies in no other edge,
so the relabeled sorted edge list starts with the star; every vertex has
degree at most Delta, so the run at Delta reaches it.  The maximum
therefore loses no value, and enumeration keeps at least one labeled
member of every isomorphism class.  The per-Delta
stop min(n*Delta//3, Delta*(n-2*Delta)) bounds the systems of maximum
degree Delta: the degrees sum to 3m <= n*Delta, so m <= n*Delta//3; and
an edge off the star with all three vertices in N(0) would meet three
star edges outside 0 (two of its vertices in one star edge would repeat
that edge's pair), a crossbar, so every edge off the star meets one of the
n-1-2Delta vertices outside N[0], each of degree at most Delta, and
m <= Delta + Delta*(n-1-2Delta) = Delta*(n-2*Delta).  The run's stop_at
is the smaller of its stop and the call's.  Every system has a maximum
degree from 1 to (n-1)//2, so the largest stop, upper_bound, bounds the
maximum.

First-use order.  The group G that fixes vertex 0's star permutes the
star edges, swaps the two vertices other than 0 of each star edge, and
permutes the outside vertices 2Delta+1..n-1.  A run keeps only prefixes
in which the star pairs {2j+1, 2j+2} that edges off the star touch, and
the outside vertices that edges use, are initial segments, pairs 0..p-1
and vertices 2Delta+1..w-1: an edge brings in new pairs only as p, p+1,
... through their lower vertices, and new outside vertices only as w,
w+1, ....  Soundness, by the lex-leader prefix lemma (Kaski and
Ostergard, Classification Algorithms for Codes and Designs, 2006): let P
be a prefix and g in G with sorted(g(P)) <lex P.  Every system S that
extends P adds only edges after P, so the first |P| entries of
sorted(g(S)) are at most those of sorted(g(P)), entry by entry, and S is
not the least member of its G-orbit.  Every edge t out of order gives
such a g: if t holds the upper vertex of a new pair, the swap inside that
pair; if it holds the lower vertex of a new pair j > p but misses pair
j-1, the swap of pairs j-1 and j; if it holds a new outside vertex v > w
but not v-1, the transposition of v-1 and v.  Each such g moves only
vertices of pairs and outside vertices no earlier edge off the star
holds, and maps the star to itself, so it fixes the earlier edges; and it
lowers exactly one vertex of t, to one that t does not hold, which lowers
t.  G preserves the star, linearity, sails and every degree, so the least
member of each orbit lies in the same run and none of its prefixes is
dropped; the count prunes count candidates whatever their order, so they
do not depend on the rule.  The maximum keeps its value, and enumeration
a member of every class.  The masks of _first_use hold the triples in
order at each state (p, w), and the state after each triple; a node takes
its children from its candidates and its state's mask, one AND, while a
child's candidates are cut from all of the node's, since a triple out of
order at a node can come into order below it.  Only runs whose prefix
starts with the star keep the order, so the tests' unbroken search
below the first edge alone stays unbroken.

Leaf test.  Enumeration keeps an m-edge stack only when it is its
class's canonical copy, the lex-minimal sorted edge list canonical_form
gives.  canon's _canonical_copy returns the stack's form, with
canonical_form's labeling and node count, exactly then: it runs
canonical_form's search and stops it at the first smaller relabeling
(canon module docstring, "Ceiling").  This is orderly generation (Read,
"Every one a winner", Ann. Discrete Math. 2, 1978; McKay, J. Algorithms
26, 1998), with no set to deduplicate.  Soundness: take a class of maximum
degree Delta and its canonical copy C.  A list whose vertex 0 has degree
below Delta holds a triple not through 0 where the star's list still
holds one through 0, and the star's triples are the least through 0, so
C starts with vertex 0's star at Delta and lies in the run at Delta,
within its cap.  C is the least member of every orbit, its G-orbit too,
so no prefix of C leaves first-use order.  The run visits each edge set
once, so C is emitted exactly once, by one run or one pool task, and
every other stack is rejected.

The maximum starts its bound at the construction of formula size
(constructions.formula_construction, from the residue table
constructions.FORMULAS), or at vertex 0's largest star where no formula
exists (n = 4, 7); only runs whose stop exceeds it are searched.  Its
size equals upper_bound(n) for every n in 3..64 but 7 and 3k+1 with
k >= 6, so there the value is proven by counting, with no push.  The search from the star alone, its best
carried from run to run, takes 8 pushes at n = 8, 29 at n = 10, 150,921
at n = 13 and 28,978,147 (~100 s on one core of a 2-core x86-64 VM) at
n = 16; the tests run it as the cross-check of that counting.

A run ends once its bound reaches stop_at (the most edges a system below
its prefix can have, or target_edges), where every open branch is
prunable.  This is tested on entry and at a leaf; the node loop gains no
test.  Enumeration holds the bound at m-1, so a run whose stop_at is
below m ends on entry.  Each run pops its prefix when it ends, so the
guard operations of consecutive runs form one push/pop stream.

Every call has one budget, its node limit and the deadline fixed at call
entry; all its tasks spend from it.  It alone counts the call's pushes
and records whether it cut the call.

Tasks.  Both searches run their tasks through _run_tasks, from the
call's starting bound, and combine the results with one expression for
any worker count.  With one worker each run is a task.  With more, one
rule covers every run: a run whose stop_at is at most the bound ends on
entry and is skipped; a run whose root has more edges than the bound,
enumeration's m-edge star, is a leaf and runs in this process as it does
serially, so the leaf test gives its class; and each (root, t) of every
other run, t a candidate of its root in first-use order, is a task, run
in a process pool that takes them lazily in run order, none once the
budget is gone, and whose workers share only the node count.  A task's
first-use state is the one after its prefix.
From Delta = 3 a star and one more edge can hold a sail, the crossbar
{1,3,5} of three star edges; the guard rejects that task's prefix and it
returns empty.  Every maximum task starts from the call's start and
raises its bound only with its own finds.  Witness: the tasks come in serial order
(runs by Delta descending, then the root's candidates by index), and a
task's bound stays below its largest size F_i until it reaches its first
F_i-edge system, which it returns.  With F = max F_i, no task before the
first with F_i = F holds an F-edge system, so the first largest result
is the first F-edge system in serial order, as in a search that carries
its best from run to run.

Cost.  A carried best differs from the start only after a run that beats
it.  max_sail_free starts below its maximum only at n = 7, where one run
beats it and the run after ends on entry (2 pushes, with two workers too);
at n = 19, 22, ... no run beats the start (arXiv 2005.07918), and the
traversal is the refutation at bound = start; every other n in 3..64 is
proven at entry.  From a private start below the maximum each task
climbs on its own.  Pushes from vertex 0's largest star (each row well
under a second on one core of a 2-core x86-64 VM):

    n   one worker   two workers   best carried from run to run
    8           12            11                              8
    9           25            46                             17
   10           35           209                             29
   11       14,100        14,302                             28
   12          576        11,886                             62
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import combinations, takewhile
from math import comb, inf
from typing import Callable, Optional

# canonical_form is unused here; bench/tracing.py swaps it by this name
from .canon import CanonicalForm, _canonical_copy, canonical_form
from .constructions import formula_construction
from .core import LinearTripleSystem, Triple, check_size, pair_mask
from .errors import LimitExceeded
from .sails import SailGuard, find_sail_fast


@dataclass(frozen=True)
class SearchOptions:
    target_edges: Optional[int] = None
    worker_count: int = 1
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None  # seconds

    def __post_init__(self):
        if self.target_edges is not None and self.target_edges < 1:
            raise ValueError("target_edges must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.time_limit is not None and not self.time_limit >= 0:  # also NaN
            raise ValueError("time_limit must be >= 0")


@dataclass(frozen=True)
class SearchReport:
    """The outcome of max_sail_free.

    nodes_explored is the count the call's budget kept of its guard
    pushes: the children that passed the count test and were handed to
    the guard, accepted or not, in all the call's tasks.  Children the
    count rules out before the push are not counted.
    It is 0 when the starting system already reaches the stop, as at
    most n (module docstring); the counts the module docstring gives for
    n = 8, 10, 13 and 16 are those of the search from the star, its best
    carried from run to run.
    """

    n: int
    max_edges: int
    witness: LinearTripleSystem
    nodes_explored: int
    elapsed: float
    exhausted: bool

    def __post_init__(self):
        if self.witness.m != self.max_edges:
            raise ValueError("witness size disagrees with max_edges")
        if self.max_edges > upper_bound(self.n):
            raise ValueError("max_edges exceeds the theoretical upper bound")


@lru_cache(maxsize=None)  # read by every search call and report
def upper_bound(n: int) -> int:
    """The largest per-Delta stop of _star_runs, over Delta = 1..(n-1)//2.

    Every system has a maximum degree in that range, so this bounds the
    maximum.  The fan-free bound floor(n^2/9) and the linearity degree
    bound floor(n*floor((n-1)/2)/3) (a vertex of a linear system lies in
    at most floor((n-1)/2) triples) follow from it.  For Delta <= n/3,
    n*Delta/3 <= n^2/9; for Delta >= n/3, Delta*(n-2*Delta) <= n^2/9,
    since it decreases from Delta = n/4 on and is n^2/9 at n/3; and
    n*Delta/3 <= n*floor((n-1)/2)/3 throughout.  It is below their
    minimum for 39 values of n up to 64 (n=10: 10 against 11), and it
    equals formula_value(n) wherever that exists, except n = 3k+1 with
    k >= 6.
    """
    return max((stop for _, _, stop in _star_runs(n, inf)), default=0)


@lru_cache(maxsize=None)
def _tables(n: int):
    """All triples on n vertices in lexicographic order, with their vertex
    and pair masks as the guard takes them."""
    triples = tuple(map(Triple._make, combinations(range(n), 3)))
    return triples, tuple(t.mask for t in triples), tuple(pair_mask(n, t) for t in triples)


@lru_cache(maxsize=None)
def _index_masks(n: int):
    """Bit masks over triple indices: (through, at).

    through[i] holds three masks, of the triples through the pairs {a,b},
    {a,c} and {b,c} of triple i = {a,b,c}; triples sharing a pair share the
    mask object.  at[v] is the mask of the triples through vertex v.
    """
    triples = _tables(n)[0]
    # each pair's mask is set in a bitmap and made an int once (setting its
    # bits by |= would copy the growing int once per bit); each bitmap is
    # dropped as soon as its int is made
    size = (len(triples) + 7) >> 3
    bits = {a * n + b: bytearray(size) for a in range(n) for b in range(a + 1, n)}
    for i, (a, b, c) in enumerate(triples):
        for p in (a * n + b, a * n + c, b * n + c):
            bits[p][i >> 3] |= 1 << (i & 7)
    pairs = {p: int.from_bytes(bits.pop(p), "little") for p in list(bits)}
    through = tuple((pairs[a * n + b], pairs[a * n + c], pairs[b * n + c])
                    for a, b, c in triples)
    # the triples through v are those through its pairs
    at = tuple(reduce(int.__or__, (pairs[min(u, v) * n + max(u, v)] for u in range(n) if u != v))
               for v in range(n))
    return through, at


@lru_cache(maxsize=None)
def _first_use(n, delta):
    """(allowed, top): the first-use order of the star run at degree delta
    as masks over triple indices (module docstring).

    The state (p, x) says that the star pairs {2j+1, 2j+2}, j < p, and the
    outside vertices 2delta+1 .. 2delta+x are in use (x = w - 2delta - 1
    in the module docstring's terms).  allowed[p][x] holds
    the triples that bring in new pairs only as the next ones, through their
    lower vertices, and new outside vertices only as the next ones;
    top[i] is (p, x) just after triple i, taken componentwise with max.
    """
    triples = _tables(n)[0]
    at = _index_masks(n)[1]
    base = 2 * delta + 1
    # a triple is out of order if it holds the upper vertex of a new pair,
    # or the lower vertex of a new pair or a new outside vertex without the
    # one before it
    pair_bad = [0] * (delta + 1)
    for j in range(delta - 1, -1, -1):
        bad = at[2 * j + 2]
        if j + 1 < delta:
            bad |= at[2 * j + 3] & ~at[2 * j + 1]
        pair_bad[j] = pair_bad[j + 1] | bad
    out_bad = [0] * (n - base + 1)
    for x in range(n - base - 2, -1, -1):
        v = base + x + 1
        out_bad[x] = out_bad[x + 1] | (at[v] & ~at[v - 1])
    full = (1 << len(triples)) - 1
    allowed = tuple(tuple(full & ~(pb | ob) for ob in out_bad) for pb in pair_bad)
    top = tuple((max((v + 1) // 2 if 0 < v < base else 0 for v in t),
                 max(v - base + 1 if v >= base else 0 for v in t)) for t in triples)
    return allowed, top


def _entry(n, prefix, delta):
    """(cands, deg, allowed, top, p, x): a run's state after its prefix.

    cands is the bit mask of the triples after the prefix that share no
    pair with it and miss every vertex the prefix brings to degree delta,
    and deg the prefix's vertex degrees.  allowed and top are the first-use
    order for a run whose prefix starts with vertex 0's star at degree
    delta, and (p, x) its state after the prefix; any other run gets one
    state that allows every triple.
    """
    triples = _tables(n)[0]
    through, at = _index_masks(n)
    if prefix[:delta] == _star(n)[:delta]:
        allowed, top = _first_use(n, delta)
    else:
        allowed, top = ((-1,),), ((0, 0),) * len(triples)
    cands = (1 << len(triples)) - (1 << (prefix[-1] + 1 if prefix else 0))
    deg = [0] * n
    p = x = 0
    for i, t in enumerate(prefix):
        ab, ac, bc = through[t]
        cands &= ~(ab | ac | bc)
        for v in triples[t]:
            deg[v] += 1
        if i >= delta:  # the star's own edges bring in no pair
            p, x = max(p, top[t][0]), max(x, top[t][1])
    for v, d in enumerate(deg):
        if d >= delta:
            cands &= ~at[v]
    return cands, deg, allowed, top, p, x


@lru_cache(maxsize=None)
def _star(n):
    """Triple indices of {0,1,2}, {0,3,4}, ... up to degree (n-1)//2; vertex
    0's star at degree delta is the first delta of them.  The triples
    before {0,2j+1,2j+2} are those {0,b,c} with b <= 2j."""
    return tuple(comb(n - 1, 2) - comb(n - 1 - 2 * j, 2) for j in range((n - 1) // 2))


@lru_cache(maxsize=None)  # read by every max_sail_free call
def _start(n):
    """The starting best of max_sail_free: the construction of formula size,
    or vertex 0's largest star where there is none.  It is checked once, by
    find_sail_fast; a sail there is a bug in the constructions."""
    system = formula_construction(n)
    if system is None:
        system = LinearTripleSystem(n, tuple(Triple(0, 2 * j + 1, 2 * j + 2)
                                                 for j in range((n - 1) // 2)))
    if find_sail_fast(system) is not None:
        raise RuntimeError(f"the starting system on {n} vertices holds a sail")
    return system


def _star_runs(n, stop_at):
    """(prefix, delta, stop_at) of the symmetry break's run at each maximum
    degree delta, largest first.  A run's stop_at is the smaller of the
    given one and the per-Delta stop, the most edges of a system of
    maximum degree delta (module docstring)."""
    return [(_star(n)[:d], d, min(stop_at, n * d // 3, d * (n - 2 * d)))
            for d in range((n - 1) // 2, 0, -1)]


class _Budget:
    """A search call's node and wall-clock budget, and its one record of the
    guard pushes made and of whether the budget cut them.  Each pool worker
    holds a copy, and the copies count pushes through a shared counter."""

    __slots__ = ("node_limit", "deadline", "counter", "local", "exceeded")

    def __init__(self, node_limit, deadline):
        self.node_limit = node_limit
        self.deadline = deadline  # on the time.monotonic() clock
        self.counter = None  # multiprocessing value shared by workers
        self.local = 0
        self.exceeded = False

    @property
    def spent(self) -> int:
        """The shared count once a pool has started, else this copy's own."""
        return self.local if self.counter is None else self.counter.value

    def spend(self, nodes: int) -> bool:
        """Register nodes; returns True when the budget is gone."""
        self.local += nodes
        if self.counter is not None and nodes:
            with self.counter.get_lock():
                self.counter.value += nodes
        if self.exceeded:
            return True
        if self.node_limit is not None and self.spent >= self.node_limit:
            self.exceeded = True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.exceeded = True
        return self.exceeded


_CHECK_EVERY = 2048


def _dfs(n, prefix, delta, bound, stop_at, budget, leaf: Callable):
    """Branch and bound below the given triple-index prefix, at degree cap delta.

    Every node with more edges than the bound goes to leaf(stack), which
    returns the new bound; the node is extended only if it no longer
    exceeds that bound.  A child is pruned, before its push, when its
    candidate count cannot take it past the bound.  A bound of stop_at
    ends the run: it is the proof threshold, at which every other branch
    is prunable.  stop_at must be at most n*delta//3, which makes a
    capacity test needless (module docstring).  A prefix the guard rejects
    ends the run on entry, as does a bound at stop_at; only a run that
    goes on builds the index masks.

    Every push below the prefix is spent from the budget, which is checked
    on entry, before any table is built, and before the next push once
    _CHECK_EVERY pushes have been made; a cut leaves budget.exceeded set.
    """
    if budget.spend(0):
        return
    triples, vmasks, pmasks = _tables(n)
    guard = SailGuard(n)
    pushed = 0
    for t in prefix:
        if guard._push_fast(triples[t], vmasks[t], pmasks[t]):
            break
        pushed += 1
    stack = guard._stack
    last = delta - 1  # a vertex at this degree is full after one more edge
    unchecked = 0
    done = False

    def rec(cands, p, x):
        nonlocal bound, unchecked, done
        size = len(stack)
        if size > bound:
            bound = leaf(stack)
            done = bound >= stop_at
            if done or size > bound:
                return
        kids = cands & allowed[p][x]
        while kids:
            low = kids & -kids
            kids ^= low
            cands &= -low  # the candidates from this child on
            if done or size + cands.bit_count() <= bound:
                return
            cands ^= low
            ti = low.bit_length() - 1
            ab, ac, bc = through[ti]
            rest = cands & ~(ab | ac | bc)
            a, b, c = t = triples[ti]
            if deg[a] == last:
                rest &= ~at[a]
            if deg[b] == last:
                rest &= ~at[b]
            if deg[c] == last:
                rest &= ~at[c]
            if size + 1 + rest.bit_count() <= bound:
                continue
            if unchecked == _CHECK_EVERY:
                unchecked = 0
                if budget.spend(_CHECK_EVERY):
                    done = True
                    return
            unchecked += 1
            if guard._push_fast(t, vmasks[ti], pmasks[ti]):
                continue
            deg[a] += 1
            deg[b] += 1
            deg[c] += 1
            q, y = top[ti]
            rec(rest, p if p > q else q, x if x > y else y)
            deg[a] -= 1
            deg[b] -= 1
            deg[c] -= 1
            guard._pop_fast()

    if pushed == len(prefix) and bound < stop_at:
        through, at = _index_masks(n)
        cands, deg, allowed, top, p, x = _entry(n, prefix, delta)
        rec(cands, p, x)
        budget.spend(unchecked)
    for _ in range(pushed):
        guard._pop_fast()


def _max_kernel(n, prefix, delta, bound, stop_at, budget):
    """The DFS with the maximum's leaf policy: keep the largest system.

    Returns (found_best, found_edges); found_best is 0 and found_edges None
    when nothing beat the starting bound; else found_edges is the first
    system of size found_best in DFS preorder.
    """
    found, found_edges = 0, None

    def leaf(stack):
        nonlocal found, found_edges
        found, found_edges = len(stack), list(stack)
        return found

    _dfs(n, prefix, delta, bound, stop_at, budget, leaf)
    return found, found_edges


def _enum_kernel(n, prefix, delta, m, stop_at, budget):
    """The DFS with enumeration's leaf policy: the set of the m-edge
    systems that are their classes' canonical copies, as canonical forms.

    The bound stays at m-1, so every m-edge system reaches the leaf and
    none is extended.  The leaf keeps a stack only when canon's
    _canonical_copy returns its form (module docstring, "Leaf test"), which
    carries canonical_form's labeling and node count.  stop_at is the most
    edges a system below the prefix can have: below m the run ends on
    entry, and otherwise it is never reached.
    """
    forms = set()

    def leaf(stack):
        # the stack is in lexicographic order, as _canonical_copy takes it
        form = _canonical_copy(n, stack)
        if form is not None:
            forms.add(form)
        return m - 1

    _dfs(n, prefix, delta, m - 1, stop_at, budget, leaf)
    return forms


def _remaining(opts: SearchOptions, report: SearchReport) -> SearchOptions:
    """opts less the nodes and time report spent, each limit floored at 0:
    what a later search of the same command may still spend."""
    if opts.node_limit is not None:
        opts = replace(opts, node_limit=max(0, opts.node_limit - report.nodes_explored))
    if opts.time_limit is not None:
        opts = replace(opts, time_limit=max(0.0, opts.time_limit - report.elapsed))
    return opts


def max_sail_free(n: int, opts: SearchOptions = SearchOptions()) -> SearchReport:
    """Exact maximum number of edges of a sail-free linear system on n vertices.

    The report's exhausted flag is True when the value is proven: either
    the tree was fully explored, or the best system reached upper_bound(n),
    the largest per-Delta stop, at which point every open branch is
    prunable; a call its budget cut is then proven too.  With a node or
    time limit the flag may come back False, and max_edges is only a lower
    bound.

    The search starts from the construction of formula size.  Where it
    reaches upper_bound(n), as at most n (module docstring), the call
    returns proven with no counted push and no pool, and the witness is
    the construction.  Under target_edges the start is the construction's
    first target_edges edges: a subset of a linear sail-free system is
    linear and sail-free.
    nodes_explored is the guard pushes the call's budget counted, which
    the node limit also counts; children pruned by the count before their
    push are not counted (the counts the module docstring gives for n = 8,
    10, 13 and 16 are those of the search from the star).  Every run or
    pool task starts from the start, and the witness is the first largest
    result in task order: the first system of that size in serial order,
    for any worker count and with or without a limit (module docstring).
    """
    check_size(n)
    start = time.monotonic()
    ubn = upper_bound(n)
    stop_at = ubn if opts.target_edges is None else min(opts.target_edges, ubn)
    runs = _star_runs(n, stop_at)
    initial = _start(n)
    best = min(initial.m, stop_at)

    budget = _Budget(opts.node_limit,
                     None if opts.time_limit is None else start + opts.time_limit)
    clean, results = _run_tasks(n, runs, opts.worker_count, budget, _max_task, best)
    found, found_edges = max(results, key=lambda r: r[0], default=(0, None))
    if found > best:
        best, witness = found, LinearTripleSystem(n, tuple(found_edges))
    else:
        witness = initial if best == initial.m else LinearTripleSystem(n, initial.edges[:best])
    exhausted = best >= ubn or (clean and best < stop_at)
    return SearchReport(n, best, witness, budget.spent, time.monotonic() - start, exhausted)


def enumerate_extremal(n: int, m: int,
                       opts: SearchOptions = SearchOptions()) -> set[CanonicalForm]:
    """All sail-free linear systems with exactly m edges, up to isomorphism.

    The search runs under the star symmetry break (module docstring),
    which keeps at least one labeled member of every class.  Each run or
    pool task returns the forms of its m-edge systems that are their
    classes' canonical copies (module docstring, "Leaf test"); each class
    comes from exactly one of them, and the classes are their union.
    Raises LimitExceeded when a node or time budget stops the run before
    the enumeration is complete.
    """
    check_size(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    budget = _Budget(opts.node_limit,
                     None if opts.time_limit is None else time.monotonic() + opts.time_limit)
    runs = [r for r in _star_runs(n, inf) if len(r[0]) <= m]
    clean, results = _run_tasks(n, runs, opts.worker_count, budget, _enum_task, m - 1)
    if not clean:
        raise LimitExceeded(f"enumeration of ({n}, {m}) stopped by its budget")
    return set().union(*results)


# --- tasks and the process pool -------------------------------------------

def _max_task(bound, n, budget, run):
    """_max_kernel on one (prefix, delta, stop_at) run, from the given bound."""
    prefix, delta, stop_at = run
    return _max_kernel(n, prefix, delta, bound, stop_at, budget)


def _enum_task(bound, n, budget, run):
    """_enum_kernel on one (prefix, delta, stop_at) run, for m = bound + 1 edges."""
    prefix, delta, stop_at = run
    return _enum_kernel(n, prefix, delta, bound + 1, stop_at, budget)


_WORKER_STATE: dict = {}


def _pool_init(n, budget):
    _WORKER_STATE.update(n=n, budget=budget)


def _in_worker(task, run):
    """task in a pool worker, with the worker's n and copy of the budget.
    Returns (clean, result): only this copy sees a cut in this worker."""
    budget = _WORKER_STATE["budget"]
    result = task(_WORKER_STATE["n"], budget, run)
    return not budget.exceeded, result


def _depth2_prefixes(n, runs):
    """The (prefix + (t,), delta, stop_at) tasks, in run order, covering the
    whole tree below the runs' prefixes except the prefixes themselves."""
    for prefix, delta, stop_at in runs:
        cands, _, allowed, _, p, x = _entry(n, prefix, delta)
        cands &= allowed[p][x]
        for t in range(prefix[-1] + 1, cands.bit_length()):
            if cands >> t & 1:
                yield prefix + (t,), delta, stop_at


def _run_tasks(n, runs, workers, budget, task, bound):
    """Run task(bound, n, budget, run) over the (prefix, delta, stop_at)
    runs, bound the call's starting bound; returns (clean, results),
    results in task order, clean when the budget cut no task.  One worker
    runs each run in this process, with n and the budget as arguments, so
    calls in threads do not meet.  More skip the runs whose stop_at is at
    most the bound, run in this process each run whose root has more edges
    than the bound (enumeration's m-edge star: a leaf, and with the runs by
    delta descending, the first), and split every other run into depth-2
    prefixes run in a process pool (module docstring, _in_worker) of at most
    one worker per prefix.  Nothing runs when there is no run, no prefix or
    no budget left.
    """
    # a serial call still enters runs that end on entry: the bench's
    # pool.node_ratio and (9, 10) replay divide by their prefix pushes
    if workers > 1:
        runs = [r for r in runs if r[2] > bound]
    if not runs or budget.spend(0):
        return not budget.exceeded, []
    task = partial(task, bound)
    if workers == 1:
        results = [task(n, budget, run) for run in runs]
        return not budget.exceeded, results
    results = [task(n, budget, run) for run in runs if len(run[0]) > bound]
    prefixes = list(_depth2_prefixes(n, [r for r in runs if len(r[0]) <= bound]))
    if not prefixes:
        return not budget.exceeded, results
    budget.counter = mp.Value("q", budget.local, lock=True)
    tasks = takewhile(lambda _: not budget.spend(0), prefixes)
    with mp.Pool(min(workers, len(prefixes)), initializer=_pool_init,
                 initargs=(n, budget)) as pool:
        outcomes = list(pool.imap(partial(_in_worker, task), tasks))
    clean = not budget.exceeded and all(ok for ok, _ in outcomes)
    return clean, results + [result for _, result in outcomes]
