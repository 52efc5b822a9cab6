"""Exact computation of the maximum sail-free size and exhaustive
enumeration of extremal instances, by depth-first branch and bound.

One DFS serves both.  Triples are branched in lexicographic order and
every partial system is kept linear and sail-free through the guard, so
each accepted edge set is visited exactly once as its sorted edge list.
The DFS holds a bound and hands every node larger than it to a leaf
policy, which returns the new bound: the maximum search records the
system and raises the bound to its size, so the search goes on above it;
enumeration of m-edge systems emits the system and holds the bound at
m-1, so no system grows past m edges.  Two admissible bounds prune a
child when it cannot exceed the bound: the number of remaining
pair-compatible candidate triples, and the per-vertex capacity
sum(floor((n-1-|N(v)|)/2))//3 (a vertex of a linear system gains at most
one edge per two unseen vertices).

For the maximum, the first edge is fixed to {0,1,2}: any nonempty system
can be relabeled so that an edge lands there, and {0,1,2} is the smallest
triple, so the restriction loses no value.  The same relabeling argument
keeps enumeration complete per isomorphism class when the fix is enabled
there (every class has a labeled member whose smallest edge is {0,1,2});
enumeration deduplicates through canonical forms, so the fix only drops
relabeled duplicates.  Pass wlog_first_edge=False to enumerate without
it.

Parallel mode splits the top two levels of the tree into prefix tasks
consumed by a process pool; workers share only a node count and, for the
maximum, a monotone best value.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .canon import CanonicalForm, canonical_form
from .core import LinearTripleSystem, Triple
from .errors import LimitExceeded, UnsupportedSize
from .sails import SailGuard


@dataclass(frozen=True)
class SearchOptions:
    target_edges: Optional[int] = None
    worker_count: int = 1
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None  # seconds

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError("time_limit must be >= 0")


@dataclass(frozen=True)
class SearchReport:
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


def _dfs(n, prefix, bound, stop_at, budget, leaf: Callable, shared_best=None):
    """Branch and bound below the given triple-index prefix.

    Every node with more edges than the bound goes to leaf(stack), which
    returns the new bound; the node is extended only if it no longer
    exceeds that bound.  A child is pruned when it cannot exceed the bound.
    Reaching stop_at edges ends the run: it is the proof threshold, at
    which every other branch is prunable.  shared_best, a value shared by
    pool workers, raises the bound whenever another worker has done better.

    Returns (nodes, clean): attempted edge additions, and False when the
    budget cut the run short.
    """
    triples, vmasks, pmasks = _tables(n)
    guard = SailGuard(n)
    for t in prefix:
        if guard._push_fast(triples[t], vmasks[t], pmasks[t]):
            raise ValueError("invalid search prefix")
    stack = guard._stack
    nbr = guard._nbr
    nodes = 0
    unchecked = 0
    done = False

    base = [u for u in range(prefix[-1] + 1 if prefix else 0, len(triples))
            if pmasks[u] & guard._pairs == 0]

    def rec(cands):
        nonlocal bound, nodes, unchecked, done
        size = len(stack)
        if shared_best is not None and shared_best.value > bound:
            bound = shared_best.value
        if size > bound:
            bound = leaf(stack)
            done = size >= stop_at
            if done or size > bound:
                return
        for pos in range(len(cands)):
            if done:
                return
            unchecked += 1
            if unchecked >= _CHECK_EVERY:
                if budget.spend(unchecked):
                    done = True
                    return
                unchecked = 0
            ti = cands[pos]
            nodes += 1
            if guard._push_fast(triples[ti], vmasks[ti], pmasks[ti]):
                continue
            pairs = guard._pairs
            rest = [u for u in cands[pos + 1:] if pmasks[u] & pairs == 0]
            if size + 1 + len(rest) > bound:
                cap = 0
                for v in range(n):
                    cap += (n - 1 - nbr[v].bit_count()) >> 1
                if size + 1 + cap // 3 > bound:
                    rec(rest)
            guard._pop_fast()

    rec(base)
    budget.spend(unchecked)
    return nodes, not budget.exceeded


def _max_kernel(n, prefix, bound, stop_at, budget, shared_best=None):
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

    nodes, clean = _dfs(n, prefix, bound, stop_at, budget, leaf, shared_best)
    return found, found_edges, nodes, clean


def _enum_kernel(n, prefix, m, budget, emit: Callable):
    """The DFS with enumeration's leaf policy: emit every m-edge system.

    The bound stays at m-1, so every m-edge system reaches the leaf and
    none is extended; stop_at is m+1, which is never reached.
    """
    def leaf(stack):
        emit(tuple(stack))
        return m - 1

    return _dfs(n, prefix, m - 1, m + 1, budget, leaf)


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
    a lower bound.  nodes_explored counts attempted edge additions.
    """
    if not 3 <= n <= 64:
        raise UnsupportedSize(f"n={n} outside supported range 3..64")
    start = time.monotonic()
    ubn = upper_bound(n)
    stop_at = ubn if opts.target_edges is None else min(opts.target_edges, ubn)

    # the first edge {0,1,2} alone is the starting best of 1
    if opts.worker_count == 1:
        budget = _Budget(opts.node_limit, _deadline(opts))
        found, edges, nodes, clean = _max_kernel(n, (0,), 1, stop_at, budget)
    else:
        shared_best = mp.Value("q", 1, lock=True)
        clean, nodes, results = _run_pool(n, [0], opts, _max_task, stop_at, shared_best)
        found, edges = max(results, key=lambda r: r[0], default=(0, None))
    best = max(1, found)
    witness = LinearTripleSystem(n, tuple(edges or [_tables(n)[0][0]]))
    proven_by_bound = best >= ubn
    stopped_at_target = (
        opts.target_edges is not None and best >= opts.target_edges and not proven_by_bound
    )
    exhausted = proven_by_bound or (clean and not stopped_at_target)
    return SearchReport(n, best, witness, nodes, time.monotonic() - start, exhausted)


def enumerate_extremal(n: int, m: int, opts: SearchOptions = SearchOptions(),
                       wlog_first_edge: bool = True) -> set[CanonicalForm]:
    """All sail-free linear systems with exactly m edges, up to isomorphism.

    Raises LimitExceeded when a node or time budget stops the run before
    the enumeration is complete.
    """
    if not 3 <= n <= 64:
        raise UnsupportedSize(f"n={n} outside supported range 3..64")
    if m < 1:
        raise ValueError("m must be >= 1")
    roots = [0] if wlog_first_edge else list(range(len(_tables(n)[0])))
    forms: set[CanonicalForm] = set()

    # one-edge systems are the roots themselves, which no depth-2 pool task covers
    if opts.worker_count == 1 or m == 1:
        budget = _Budget(opts.node_limit, _deadline(opts))
        emit = _form_adder(n, forms)
        clean = all(_enum_kernel(n, (r,), m, budget, emit)[1] for r in roots)
    else:
        clean, _, results = _run_pool(n, roots, opts, _enum_task, m)
        forms = forms.union(*results)
    if not clean:
        raise LimitExceeded(f"enumeration of ({n}, {m}) stopped by its budget")
    return forms


# --- process pool ---------------------------------------------------------

_WORKER_STATE: dict = {}


def _pool_init(shared_best, shared_nodes):
    _WORKER_STATE["best"] = shared_best
    _WORKER_STATE["nodes"] = shared_nodes


def _max_task(args):
    n, prefix, stop_at, node_limit, deadline = args
    shared_best = _WORKER_STATE["best"]
    budget = _Budget(node_limit, deadline, _WORKER_STATE["nodes"])
    found, edges, _, clean = _max_kernel(n, prefix, shared_best.value, stop_at, budget,
                                         shared_best)
    return clean, (found, edges)


def _enum_task(args):
    n, prefix, m, node_limit, deadline = args
    budget = _Budget(node_limit, deadline, _WORKER_STATE["nodes"])
    forms: set[CanonicalForm] = set()
    _, clean = _enum_kernel(n, prefix, m, budget, _form_adder(n, forms))
    return clean, forms


def _depth2_prefixes(n, roots):
    """(root, t) prefixes covering the whole tree below the roots, except
    the roots themselves.

    Also returns the number of push attempts spent probing, so parallel
    runs count nodes the same way sequential ones do.
    """
    triples, vmasks, pmasks = _tables(n)
    tasks = []
    probes = 0
    for r in roots:
        guard = SailGuard(n)
        probes += 1
        guard._push_fast(triples[r], vmasks[r], pmasks[r])
        for t in range(r + 1, len(triples)):
            if pmasks[t] & guard._pairs:
                continue
            probes += 1
            if guard._push_fast(triples[t], vmasks[t], pmasks[t]) == 0:
                guard._pop_fast()
                tasks.append((r, t))
    return tasks, probes


def _run_pool(n, roots, opts, task, arg, shared_best=None):
    """Run task over the depth-2 prefixes below the roots in a process pool.

    Each task gets (n, prefix, arg, node_limit, deadline) and returns
    (clean, result).  Returns (clean, nodes, results), results in
    completion order.
    """
    tasks, probes = _depth2_prefixes(n, roots)
    shared_nodes = mp.Value("q", probes, lock=True)
    deadline = _deadline(opts)
    args = [(n, p, arg, opts.node_limit, deadline) for p in tasks]
    with mp.Pool(opts.worker_count, initializer=_pool_init,
                 initargs=(shared_best, shared_nodes)) as pool:
        outcomes = list(pool.imap_unordered(task, args))
    clean = all(ok for ok, _ in outcomes)
    return clean, shared_nodes.value, [result for _, result in outcomes]
