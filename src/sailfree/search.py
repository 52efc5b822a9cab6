"""Exact computation of the maximum sail-free size and exhaustive
enumeration of extremal instances, by depth-first branch and bound.

One DFS serves both.  Triples are branched in lexicographic order and
every partial system is kept linear and sail-free through the guard, so
each accepted edge set is visited exactly once as its sorted edge list.
The DFS holds a bound and hands every node larger than it to a leaf
policy, which returns the new bound: the maximum search records the
system and raises the bound to its size, so the search goes on above it;
enumeration of m-edge systems emits the system and holds the bound at
m-1, so no system grows past m edges.  Every run has a degree cap Delta:
no vertex may lie in more than Delta edges.  Besides the run stops below,
the one prune is the candidate count: a child is pruned when its edges
and the pair-compatible candidate triples left to it cannot exceed the
bound.

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
each push; only pushes of children that would never be expanded are
dropped.  At Delta = (n-1)//2 the cap never binds: a vertex of degree
(n-1)//2 has at most one unseen vertex left, so no pair-compatible
triple runs through it.  The search at that cap below the first edge
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
member of every isomorphism class (it deduplicates through canonical
forms, so the break only drops relabeled duplicates).  The per-Delta
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

The maximum starts its bound at the construction of formula size
(constructions.formula_construction: transversal designs at n = 3k,
truncated designs at 3k+2, c1 at 3k+1 with k >= 3), or at vertex 0's
largest star where no formula exists (n = 4, 7); only runs whose stop
exceeds it are searched.  Its size equals upper_bound(n) for every n in
3..64 but 7 and 3k+1 with k >= 6, so there the value is proven by
counting, with no push.  The search from the star alone takes 12 pushes
at n = 8, 56 at n = 10, 151,002 at n = 13 and about 29M (~170 s on one
core of a 2-core x86-64 VM) at n = 16; the tests run it as the
cross-check of that counting.

A run ends once its bound reaches stop_at (the most edges a system below
its prefix can have, or target_edges), where every open branch is
prunable.  This is tested on entry and at a leaf; the node loop gains no
test.  Enumeration holds the bound at m-1, so a run whose stop_at is
below m ends on entry.  Each run pops its prefix when it ends, so the
guard operations of consecutive runs form one push/pop stream.

Every call has one budget, its node limit and the deadline fixed at call
entry; its serial runs and pool tasks all spend from it.
It alone counts the call's pushes and records whether it cut the call.

Parallel mode runs one task per (root, t), t a candidate of a run's root,
for every run in one process pool.  From Delta = 3 a star and one more
edge can hold a sail (the edge is a crossbar of three star edges); the
guard rejects such a task's prefix and the task returns empty.  The pool
takes tasks lazily in run order and hands out none once the budget is
gone.  Workers share the node count and nothing else: a maximum task
starts from the call's start, its bound rises only with its own finds,
and the results come back in task order.

Witness.  The tasks come in serial order (runs by Delta descending, then
the root's candidates by index).  A task's bound stays below its largest
size F_i until it reaches its first F_i-edge system, which it returns.
Let F = max F_i and j the first task with F_j = F: every earlier task
has F_i < F and holds no F-edge system, so task j's is the first in
serial order, which the serial search, its bound also below F until
then, returns too.  max returns the first maximal item.

Cost.  A traversal whose bound is never below the start visits a subset
of the nodes at bound = start, the refutation the call makes when the
start is the maximum, so no call costs more than that refutation; at
n = 19, 22, ... no task beats the start, and the traversal is that one.
A pool started below the maximum pays more, as each task climbs on its
own: from vertex 0's largest star two workers take 73, 576 and 4,969
pushes at n = 8, 9, 10 (serially 12, 19, 56) but 1.2M at n = 11 (42)
and 10.0M at n = 12 (139).  max_sail_free does so only at n = 7 (9
pushes, 2 serially).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import takewhile
from math import comb, inf
from typing import Callable, Optional

from .canon import CanonicalForm, canonical_form
from .constructions import formula_construction
from .core import MAX_VERTICES, LinearTripleSystem, Triple
from .errors import LimitExceeded, UnsupportedSize
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
    the guard, accepted or not, in serial runs and pool tasks.  Children
    the count rules out before the push are not counted.
    It is 0 when the starting system (module docstring) already reaches
    the stop, as at every n up to 64 but 7 and 3k+1 with k >= 6; the
    counts the module docstring gives for n = 8, 10, 13 and 16 are those
    of the search from the star.
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
    """All triples on n vertices in lexicographic order, with bit masks."""
    triples = []
    vmasks = []
    pmasks = []
    for a in range(n - 2):
        for b in range(a + 1, n - 1):
            for c in range(b + 1, n):
                triples.append(Triple(a, b, c))
                vmasks.append((1 << a) | (1 << b) | (1 << c))
                pmasks.append((1 << (a * n + b)) | (1 << (a * n + c)) | (1 << (b * n + c)))
    return tuple(triples), tuple(vmasks), tuple(pmasks)


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


def _candidates(n, prefix, delta):
    """(cands, deg): the bit mask of the triples after the prefix that share
    no pair with it and miss every vertex the prefix brings to degree
    delta, and the prefix's vertex degrees."""
    triples = _tables(n)[0]
    through, at = _index_masks(n)
    cands = (1 << len(through)) - (1 << (prefix[-1] + 1 if prefix else 0))
    deg = [0] * n
    for t in prefix:
        ab, ac, bc = through[t]
        cands &= ~(ab | ac | bc)
        for v in triples[t]:
            deg[v] += 1
    for v, d in enumerate(deg):
        if d >= delta:
            cands &= ~at[v]
    return cands, deg


@lru_cache(maxsize=None)
def _star(n):
    """Triple indices of {0,1,2}, {0,3,4}, ... up to degree (n-1)//2; vertex
    0's star at degree delta is the first delta of them.  The triples
    before {0,2j+1,2j+2} are those {0,b,c} with b <= 2j."""
    return tuple(comb(n - 1, 2) - comb(n - 1 - 2 * j, 2) for j in range((n - 1) // 2))


def _star_edges(delta):
    """Vertex 0's star at degree delta, as triples."""
    return tuple(Triple(0, 2 * j + 1, 2 * j + 2) for j in range(delta))


@lru_cache(maxsize=None)  # read by every max_sail_free call
def _start(n):
    """The starting best of max_sail_free: the construction of formula size,
    or vertex 0's largest star where there is none.  It is checked once, by
    find_sail_fast; a sail there is a bug in the constructions."""
    system = formula_construction(n)
    if system is None:
        system = LinearTripleSystem(n, _star_edges((n - 1) // 2))
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

    def rec(cands):
        nonlocal bound, unchecked, done
        size = len(stack)
        if size > bound:
            bound = leaf(stack)
            done = bound >= stop_at
            if done or size > bound:
                return
        while cands:
            if done or size + cands.bit_count() <= bound:
                return
            low = cands & -cands
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
            rec(rest)
            deg[a] -= 1
            deg[b] -= 1
            deg[c] -= 1
            guard._pop_fast()

    if pushed == len(prefix) and bound < stop_at:
        through, at = _index_masks(n)
        cands, deg = _candidates(n, prefix, delta)
        rec(cands)
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


def _enum_kernel(n, prefix, delta, m, stop_at, budget, emit: Callable):
    """The DFS with enumeration's leaf policy: emit every m-edge system.

    The bound stays at m-1, so every m-edge system reaches the leaf and
    none is extended.  stop_at is the most edges a system below the prefix
    can have: below m the run ends on entry, and otherwise it is never
    reached.
    """
    def leaf(stack):
        emit(tuple(stack))
        return m - 1

    _dfs(n, prefix, delta, m - 1, stop_at, budget, leaf)


def _max_runs(n, runs, bound, budget):
    """_max_kernel over (prefix, delta, stop_at) runs in order, each run
    starting from the best so far.  Returns what _max_kernel returns."""
    found, found_edges = 0, None
    for prefix, delta, stop_at in runs:
        got, got_edges = _max_kernel(n, prefix, delta, max(bound, found), stop_at, budget)
        if got:
            found, found_edges = got, got_edges
    return found, found_edges


def _remaining(opts: SearchOptions, report: SearchReport) -> SearchOptions:
    """opts less the nodes and time report spent, each limit floored at 0:
    what a later search of the same command may still spend."""
    if opts.node_limit is not None:
        opts = replace(opts, node_limit=max(0, opts.node_limit - report.nodes_explored))
    if opts.time_limit is not None:
        opts = replace(opts, time_limit=max(0.0, opts.time_limit - report.elapsed))
    return opts


def _form_adder(n, forms: set):
    """An emit callback adding each system's canonical form to forms."""
    def emit(edges):
        forms.add(canonical_form(LinearTripleSystem(n, edges)))
    return emit


def max_sail_free(n: int, opts: SearchOptions = SearchOptions()) -> SearchReport:
    """Exact maximum number of edges of a sail-free linear system on n vertices.

    The report's exhausted flag is True when the value is proven: either
    the tree was fully explored, or the best system reached upper_bound(n),
    the largest per-Delta stop, at which point every open branch is
    prunable; a call its budget cut is then proven too.  With a node or
    time limit the flag may come back False, and max_edges is only a lower
    bound.

    The search starts from the construction of formula size (module
    docstring), which reaches upper_bound(n) at every n up to 64 but 7
    and 3k+1 with k >= 6; there the call returns proven with no counted
    push and no pool, and the witness is the construction.  Under
    target_edges the start is the construction's first target_edges
    edges: a subset of a linear sail-free system is linear and sail-free.
    nodes_explored is the guard pushes the call's budget counted, which
    the node limit also counts; children pruned by the count before their
    push are not counted (the counts the module docstring gives for n = 8,
    10, 13 and 16 are those of the search from the star).  With several
    workers the pool's tasks share only the budget, and a clean call
    returns the serial witness, the first largest result in task order
    (module docstring).
    """
    if not 3 <= n <= MAX_VERTICES:
        raise UnsupportedSize(f"n={n} outside supported range 3..{MAX_VERTICES}")
    start = time.monotonic()
    ubn = upper_bound(n)
    stop_at = ubn if opts.target_edges is None else min(opts.target_edges, ubn)
    runs = _star_runs(n, stop_at)
    initial = _start(n)
    best = min(initial.m, stop_at)

    budget = _Budget(opts.node_limit,
                     None if opts.time_limit is None else start + opts.time_limit)
    if opts.worker_count == 1:
        # A run that cannot beat the start still enters the kernel, which
        # pushes its star prefix and ends on entry: the benchmark's per-layer
        # prove-par run divides by the serial prove workload's guard pushes
        # (bench/run.py, pool.node_ratio), and a call that pushed nothing
        # would leave it no divisor.
        found, found_edges = _max_runs(n, runs, best, budget)
        clean = not budget.exceeded
    else:
        # only runs that can beat the start are split into tasks, so a call
        # that the start proves starts no pool
        clean, results = _run_pool(n, [r for r in runs if r[2] > best], opts.worker_count,
                                   budget, partial(_max_task, best))
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
    which keeps at least one labeled member of every class.
    Raises LimitExceeded when a node or time budget stops the run before
    the enumeration is complete.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise UnsupportedSize(f"n={n} outside supported range 3..{MAX_VERTICES}")
    if m < 1:
        raise ValueError("m must be >= 1")
    budget = _Budget(opts.node_limit,
                     None if opts.time_limit is None else time.monotonic() + opts.time_limit)
    runs = [r for r in _star_runs(n, inf) if len(r[0]) <= m]
    forms: set[CanonicalForm] = set()
    emit = _form_adder(n, forms)

    if opts.worker_count == 1:
        for prefix, delta, stop_at in runs:
            _enum_kernel(n, prefix, delta, m, stop_at, budget, emit)
        clean = not budget.exceeded
    else:
        clean, results = _run_pool(n, [r for r in runs if len(r[0]) < m <= r[2]],
                                   opts.worker_count, budget, partial(_enum_task, m))
        forms.update(*results)
        if clean and m <= (n - 1) // 2:
            # the root of the run at degree m is an m-edge system, which no
            # depth-2 task covers
            emit(_star_edges(m))
    if not clean:
        raise LimitExceeded(f"enumeration of ({n}, {m}) stopped by its budget")
    return forms


# --- process pool ---------------------------------------------------------

_WORKER_STATE: dict = {}


def _pool_init(n, budget):
    _WORKER_STATE.update(n=n, budget=budget)


def _max_task(bound, task):
    prefix, delta, stop_at = task
    n, budget = _WORKER_STATE["n"], _WORKER_STATE["budget"]
    result = _max_kernel(n, prefix, delta, bound, stop_at, budget)
    return not budget.exceeded, result


def _enum_task(m, task):
    prefix, delta, stop_at = task
    n, budget, forms = _WORKER_STATE["n"], _WORKER_STATE["budget"], set()
    _enum_kernel(n, prefix, delta, m, stop_at, budget, _form_adder(n, forms))
    return not budget.exceeded, forms


def _depth2_prefixes(n, runs):
    """The (prefix + (t,), delta, stop_at) tasks, in run order, covering the
    whole tree below the runs' prefixes except the prefixes themselves."""
    for prefix, delta, stop_at in runs:
        cands = _candidates(n, prefix, delta)[0]
        for t in range(prefix[-1] + 1, cands.bit_length()):
            if cands >> t & 1:
                yield prefix + (t,), delta, stop_at


def _run_pool(n, runs, workers, budget, task):
    """Run task over the depth-2 prefixes below the runs in a process pool
    whose workers share only the call's budget, through a shared node
    counter.

    Tasks are handed out lazily in run order, none once the budget is
    gone; each returns (clean, result), clean read from its worker's copy
    of the budget, which alone sees a cut there.  Returns (clean, results),
    results in task order, in which the first largest maximum result is the
    serial witness (module docstring).  No pool starts when there is no
    run or the budget is already gone.
    """
    if not runs or budget.spend(0):
        return not budget.exceeded, []
    budget.counter = mp.Value("q", budget.local, lock=True)
    tasks = takewhile(lambda _: not budget.spend(0), _depth2_prefixes(n, runs))
    with mp.Pool(workers, initializer=_pool_init, initargs=(n, budget)) as pool:
        outcomes = list(pool.imap(task, tasks))
    clean = not budget.exceeded and all(ok for ok, _ in outcomes)
    return clean, [result for _, result in outcomes]
