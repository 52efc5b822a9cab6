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
no vertex may lie in more than Delta edges.  Two admissible bounds prune a
child when it cannot exceed the bound: the number of remaining
pair-compatible candidate triples, and the per-vertex capacity
sum(min(Delta - deg v, floor((n-1-|N(v)|)/2)))//3 (a vertex of a linear
system gains at most one edge per two unseen vertices, and at most
Delta - deg v edges under the cap).

Both bounds are evaluated before the guard is touched, so a child that
cannot exceed the bound costs no push.  The bound never falls during a
run (leaf policies return at least the old bound, and the shared best
only rises), so a test that fails for one child fails for every later
child of the same node.  The three steps:

1. Capacity carried down.  An accepted edge {a,b,c} is linear with the
   stack, so each of its vertices gains one edge and exactly two unseen
   neighbours, and both terms of its min fall by exactly 1.  Every child
   therefore has capacity cap-3: the capacity is computed once, after the
   prefix, and each child is handed cap-3.  A child with s+1 edges passes
   the capacity test iff s + cap//3 exceeds the bound.  That test does
   not depend on the child, so the node evaluates it once on entry and
   returns when it fails.  After the leaf check s <= bound, so cap < 3
   (where no push can succeed) always returns.
2. Count cut on the loop.  A child's candidates are a subset of the
   candidates after it, so once s plus the number of candidates not yet
   tried (the current one included) is at most the bound, no later child
   can pass the count test, and the node returns.
3. Filter before pushing.  Every candidate set is pair-compatible with
   the stack and avoids the vertices at the cap, so the child's
   candidates after pushing triple t are the later candidates whose pairs
   avoid t's pairs and that miss every vertex t brings to the cap, which
   can be computed before the push.  The guard is asked only for a child
   that passes the count test; its answer then decides whether the child
   is expanded.

A node's candidates are one int bit mask over triple indices.  For each
triple t = {a,b,c}, _pair_masks holds the masks of the triples through
{a,b}, {a,c} and {b,c}, and _vertex_masks those through each vertex, so
the child's candidates after t are the later bits less three pair masks
and the masks of the vertices t fills, and the count tests are bit
counts.  The loop takes set bits from low to high, which is
lexicographic order.

Every expanded node and every leaf is the same, in the same order, as
when both bounds and the cap ran on the grown stack after each push; only
pushes of children that would never be expanded are dropped.  (When a
leaf raises the bound in the middle of a node's loop, a later child that
now fails the capacity test may still be pushed; its own entry test
returns at once, before any leaf or push.)  At Delta = (n-1)//2 the cap
never binds: a vertex of degree (n-1)//2 has at most one unseen vertex
left, so no pair-compatible triple runs through it, and both terms of the
min are equal.  The search at that cap below the first edge {0,1,2} is
the unbroken one; only the tests run it, as the oracle the star break is
checked against.

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
forms, so the break only drops relabeled duplicates).  Two more bounds
cap each run: the degrees sum to 3m <= n*Delta, so m <= n*Delta//3; and
an edge off the star with all three vertices in N(0) would meet three
star edges outside 0 (two of its vertices in one star edge would repeat
that edge's pair), a crossbar, so every edge off the star meets one of the
n-1-2Delta vertices outside N[0], each of degree at most Delta, and
m <= Delta + Delta*(n-1-2Delta).  The run's stop_at is the smallest of
these and the global one.

A run ends once its bound reaches stop_at (the most edges a system below
its prefix can have, or target_edges), where every open branch is
prunable.  This is tested on entry, at a leaf, and when the pool's shared
best raises the bound; the node loop gains no test.  Enumeration holds
the bound at m-1, so a run whose stop_at is below m ends on entry.  Each
run pops its prefix when it ends, so the guard operations of consecutive
runs form one push/pop stream.

Parallel mode runs one task per (root, t), t a candidate of a run's root,
for every run in one process pool.  From Delta = 3 a star and one more
edge can hold a sail (the edge is a crossbar of three star edges); the
guard rejects such a task's prefix and the task returns empty.  Workers
share a node count and, for the maximum, a monotone best.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from .canon import CanonicalForm, canonical_form
from .core import MAX_VERTICES, LinearTripleSystem, Triple
from .errors import LimitExceeded, UnsupportedSize
from .sails import SailGuard


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

    nodes_explored counts the guard push attempts: the children that
    passed both bounds and were handed to the guard, accepted or not
    (in parallel runs, also one per root and per pool task).
    Children the bounds rule out before the push are not counted.
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


def upper_bound(n: int) -> int:
    """min(floor(n^2/9), floor(n*floor((n-1)/2)/3)).

    The first term is the fan-free bound, the second the linearity degree
    bound: a vertex of a linear system lies in at most floor((n-1)/2)
    triples.
    """
    if n < 3:
        return 0
    return min(n * n // 9, n * ((n - 1) // 2) // 3)


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
def _pair_masks(n: int):
    """For each triple index, the triples through each of its three pairs.

    Entry i holds three bit masks over triple indices, for the pairs
    {a,b}, {a,c} and {b,c} of triple i = {a,b,c}; triples sharing a pair
    share the mask object.
    """
    triples = _tables(n)[0]
    through = [0] * (n * n)
    for i, (a, b, c) in enumerate(triples):
        bit = 1 << i
        through[a * n + b] |= bit
        through[a * n + c] |= bit
        through[b * n + c] |= bit
    return tuple((through[a * n + b], through[a * n + c], through[b * n + c])
                 for a, b, c in triples)


@lru_cache(maxsize=None)
def _vertex_masks(n: int):
    """For each vertex, the bit mask of the triple indices through it."""
    at = [0] * n
    for i, t in enumerate(_tables(n)[0]):
        for v in t:
            at[v] |= 1 << i
    return tuple(at)


def _degrees(n, prefix):
    deg = [0] * n
    for t in prefix:
        for v in _tables(n)[0][t]:
            deg[v] += 1
    return deg


def _candidates(n, prefix, delta):
    """Bit mask of the triples after the prefix that share no pair with it
    and miss every vertex the prefix brings to degree delta."""
    through = _pair_masks(n)
    cands = (1 << len(through)) - (1 << (prefix[-1] + 1 if prefix else 0))
    for t in prefix:
        ab, ac, bc = through[t]
        cands &= ~(ab | ac | bc)
    for v, d in enumerate(_degrees(n, prefix)):
        if d >= delta:
            cands &= ~_vertex_masks(n)[v]
    return cands


@lru_cache(maxsize=None)
def _star(n):
    """Triple indices of {0,1,2}, {0,3,4}, ... up to degree (n-1)//2; vertex
    0's star at degree delta is the first delta of them."""
    triples = _tables(n)[0]
    return tuple(triples.index((0, 2 * j + 1, 2 * j + 2)) for j in range((n - 1) // 2))


def _star_runs(n, stop_at):
    """(prefix, delta, stop_at) of the symmetry break's run at each maximum
    degree delta, largest first; see the module docstring for the stops."""
    return [(_star(n)[:d], d, min(stop_at, n * d // 3, d + d * (n - 1 - 2 * d)))
            for d in range((n - 1) // 2, 0, -1)]


class _Budget:
    """Node and wall-clock budget, optionally shared across workers."""

    __slots__ = ("node_limit", "deadline", "counter", "local", "exceeded")

    def __init__(self, node_limit, deadline, counter=None):
        self.node_limit = node_limit
        self.deadline = deadline  # on the time.monotonic() clock
        self.counter = counter  # multiprocessing value shared by workers
        self.local = 0
        self.exceeded = False

    def spend(self, nodes: int) -> bool:
        """Register nodes; returns True when the budget is gone."""
        self.local += nodes
        if self.counter is not None and nodes:
            with self.counter.get_lock():
                self.counter.value += nodes
        if self.exceeded:
            return True
        if self.node_limit is not None:
            total = self.counter.value if self.counter is not None else self.local
            if total >= self.node_limit:
                self.exceeded = True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.exceeded = True
        return self.exceeded


_CHECK_EVERY = 2048


def _dfs(n, prefix, delta, bound, stop_at, budget, leaf: Callable, shared_best=None):
    """Branch and bound below the given triple-index prefix, at degree cap delta.

    Every node with more edges than the bound goes to leaf(stack), which
    returns the new bound; the node is extended only if it no longer
    exceeds that bound.  A child is pruned, before its push, when it
    cannot exceed the bound.  A bound of stop_at ends the run: it is the
    proof threshold, at which every other branch is prunable.
    shared_best, a value shared by pool workers, raises the bound whenever
    another worker has done better.  The budget is checked on entry and
    every _CHECK_EVERY pushes.  A prefix the guard rejects ends the run on
    entry.

    Returns (nodes, clean): guard push attempts below the prefix, and False
    when the budget cut the run short.
    """
    triples, vmasks, pmasks = _tables(n)
    through = _pair_masks(n)
    at = _vertex_masks(n)
    guard = SailGuard(n)
    pushed = 0
    for t in prefix:
        if guard._push_fast(triples[t], vmasks[t], pmasks[t]):
            break
        pushed += 1
    stack = guard._stack
    deg = _degrees(n, prefix)
    last = delta - 1  # a vertex at this degree is full after one more edge
    nodes = 0
    unchecked = 0
    done = pushed < len(prefix) or bound >= stop_at or budget.spend(0)

    def rec(cands, cap):
        nonlocal bound, nodes, unchecked, done
        size = len(stack)
        if shared_best is not None and shared_best.value > bound:
            bound = shared_best.value
            done = bound >= stop_at
        if size > bound:
            bound = leaf(stack)
            done = bound >= stop_at
            if done or size > bound:
                return
        if size + cap // 3 <= bound:
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
            unchecked += 1
            if unchecked == _CHECK_EVERY:
                unchecked = 0
                if budget.spend(_CHECK_EVERY):
                    done = True
                    return
            nodes += 1
            if guard._push_fast(t, vmasks[ti], pmasks[ti]):
                continue
            deg[a] += 1
            deg[b] += 1
            deg[c] += 1
            rec(rest, cap - 3)
            deg[a] -= 1
            deg[b] -= 1
            deg[c] -= 1
            guard._pop_fast()

    if not done:
        rec(_candidates(n, prefix, delta),
            sum(min(delta - d, (n - 1 - 2 * d) >> 1) for d in deg))
    for _ in range(pushed):
        guard._pop_fast()
    budget.spend(unchecked)
    return nodes, not budget.exceeded


def _max_kernel(n, prefix, delta, bound, stop_at, budget, shared_best=None):
    """The DFS with the maximum's leaf policy: keep the largest system.

    Returns (found_best, found_edges, nodes, clean); found_best is 0 and
    found_edges None when nothing beat the starting bound.
    """
    found, found_edges = 0, None

    def leaf(stack):
        nonlocal found, found_edges
        size = len(stack)
        found, found_edges = size, list(stack)
        if shared_best is not None:
            with shared_best.get_lock():
                if shared_best.value < size:
                    shared_best.value = size
        return size

    nodes, clean = _dfs(n, prefix, delta, bound, stop_at, budget, leaf, shared_best)
    return found, found_edges, nodes, clean


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

    return _dfs(n, prefix, delta, m - 1, stop_at, budget, leaf)


def _max_runs(n, runs, bound, budget):
    """_max_kernel over (prefix, delta, stop_at) runs in order, each run
    starting from the best so far.  Returns what _max_kernel returns."""
    found, found_edges, nodes, clean = 0, None, 0, True
    for prefix, delta, stop_at in runs:
        got, got_edges, more, ok = _max_kernel(n, prefix, delta, max(bound, found),
                                               stop_at, budget)
        nodes += more
        clean = clean and ok
        if got:
            found, found_edges = got, got_edges
    return found, found_edges, nodes, clean


def _form_adder(n, forms: set):
    """An emit callback adding each system's canonical form to forms."""
    def emit(edges):
        forms.add(canonical_form(LinearTripleSystem(n, edges)))
    return emit


def _deadline(opts: SearchOptions) -> Optional[float]:
    return time.monotonic() + opts.time_limit if opts.time_limit is not None else None


def max_sail_free(n: int, opts: SearchOptions = SearchOptions()) -> SearchReport:
    """Exact maximum number of edges of a sail-free linear system on n vertices.

    The report's exhausted flag is True when the value is proven: either
    the tree was fully explored, or the best system reached the theoretical
    upper bound, at which point every open branch is prunable.  With a
    node or time limit the flag may come back False, and max_edges is only
    a lower bound.  nodes_explored counts guard push attempts, which the
    node limit also counts; children pruned by a bound before their push
    are not counted (n=8 takes 12, n=10 56, n=13 about 151,000 and n=16
    about 29M, about 171 s on one core of a 2-core x86-64 VM).  With
    several workers and no time limit, a clean run that beats the largest
    star takes its witness from one more serial pass that stops at the
    first system of that size, so the witness is the serial one; that
    pass's pushes are counted too.  Under a time limit the pass is not
    run, since it can take far longer than the pool (n=16: ~150 s against
    ~5 s) and the deadline would cut it: the witness is then the pool's,
    and which system of that size it is depends on task completion order.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise UnsupportedSize(f"n={n} outside supported range 3..{MAX_VERTICES}")
    start = time.monotonic()
    ubn = upper_bound(n)
    stop_at = ubn if opts.target_edges is None else min(opts.target_edges, ubn)
    runs = _star_runs(n, stop_at)
    # the star of the largest degree alone is the starting best
    best = min((n - 1) // 2, stop_at)
    edges = [_tables(n)[0][t] for t in _star(n)[:best]]

    deadline = _deadline(opts)
    if opts.worker_count == 1:
        budget = _Budget(opts.node_limit, deadline)
        found, found_edges, nodes, clean = _max_runs(n, runs, best, budget)
    else:
        shared_best = mp.Value("q", best, lock=True)
        clean, nodes, results = _run_pool(n, [r for r in runs if r[2] > best], opts,
                                          _max_task, shared_best)
        found, found_edges = max(results, key=lambda r: r[0], default=(0, None))
        if clean and found > best and opts.time_limit is None:
            # Which equal-size result the pool keeps depends on completion
            # order.  The serial witness is the first found-edge system in
            # DFS preorder, which a pass that stops at found edges returns.
            left = None if opts.node_limit is None else opts.node_limit - nodes
            again, again_edges, more, _ = _max_runs(
                n, [(p, d, min(s, found)) for p, d, s in runs], found - 1,
                _Budget(left, None))
            nodes += more
            if again == found:
                found_edges = again_edges
    if found > best:
        best, edges = found, found_edges
    witness = LinearTripleSystem(n, tuple(edges))
    proven_by_bound = best >= ubn
    stopped_at_target = (
        opts.target_edges is not None and best >= opts.target_edges and not proven_by_bound
    )
    exhausted = proven_by_bound or (clean and not stopped_at_target)
    return SearchReport(n, best, witness, nodes, time.monotonic() - start, exhausted)


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
    runs = [r for r in _star_runs(n, upper_bound(n)) if len(r[0]) <= m]
    forms: set[CanonicalForm] = set()
    emit = _form_adder(n, forms)

    if opts.worker_count == 1:
        budget = _Budget(opts.node_limit, _deadline(opts))
        clean = all(_enum_kernel(n, p, d, m, s, budget, emit)[1] for p, d, s in runs)
    else:
        # roots that are m-edge systems themselves, which no depth-2 task covers
        for prefix, _, _ in runs:
            if len(prefix) == m:
                emit(tuple(_tables(n)[0][t] for t in prefix))
        clean, _, results = _run_pool(n, [r for r in runs if len(r[0]) < m <= r[2]], opts,
                                      partial(_enum_task, m))
        forms.update(*results)
    if not clean:
        raise LimitExceeded(f"enumeration of ({n}, {m}) stopped by its budget")
    return forms


# --- process pool ---------------------------------------------------------

_WORKER_STATE: dict = {}


def _pool_init(shared_best, shared_nodes):
    _WORKER_STATE["best"] = shared_best
    _WORKER_STATE["nodes"] = shared_nodes


def _max_task(args):
    n, prefix, delta, stop_at, node_limit, deadline = args
    shared_best = _WORKER_STATE["best"]
    budget = _Budget(node_limit, deadline, _WORKER_STATE["nodes"])
    found, edges, _, clean = _max_kernel(n, prefix, delta, shared_best.value, stop_at,
                                         budget, shared_best)
    return clean, (found, edges)


def _enum_task(m, args):
    n, prefix, delta, stop_at, node_limit, deadline = args
    budget = _Budget(node_limit, deadline, _WORKER_STATE["nodes"])
    forms: set[CanonicalForm] = set()
    _, clean = _enum_kernel(n, prefix, delta, m, stop_at, budget, _form_adder(n, forms))
    return clean, forms


def _depth2_prefixes(n, runs):
    """(prefix + (t,), delta, stop_at) tasks covering the whole tree below
    the runs' prefixes, except the prefixes themselves, and the push
    attempts a guard walk over them would count (one per run and task), so
    parallel runs count nodes the same way sequential ones do.
    """
    tasks = []
    for prefix, delta, stop_at in runs:
        cands = _candidates(n, prefix, delta)
        tasks += [(prefix + (t,), delta, stop_at)
                  for t in range(prefix[-1] + 1, cands.bit_length()) if cands >> t & 1]
    return tasks, len(runs) + len(tasks)


def _run_pool(n, runs, opts, task, shared_best=None):
    """Run task over the depth-2 prefixes below the runs in a process pool.

    Each task gets (n, prefix, delta, stop_at, node_limit, deadline) and
    returns (clean, result).  Returns (clean, nodes, results), results in
    completion order.
    """
    tasks, probes = _depth2_prefixes(n, runs)
    if not tasks:
        return True, probes, []
    shared_nodes = mp.Value("q", probes, lock=True)
    deadline = _deadline(opts)
    args = [(n, *task_run, opts.node_limit, deadline) for task_run in tasks]
    with mp.Pool(opts.worker_count, initializer=_pool_init,
                 initargs=(shared_best, shared_nodes)) as pool:
        outcomes = list(pool.imap_unordered(task, args))
    clean = all(ok for ok, _ in outcomes)
    return clean, shared_nodes.value, [result for _, result in outcomes]
