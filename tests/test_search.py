import multiprocessing as mp
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from sailfree import search
from sailfree.canon import canonical_form
from sailfree.constructions import transversal_design, truncated_design
from sailfree.core import LinearTripleSystem
from sailfree.errors import LimitExceeded, UnsupportedSize
from sailfree.sails import SailGuard, find_sail_bruteforce, find_sail_fast
from sailfree.search import (
    _CHECK_EVERY,
    SearchOptions,
    SearchReport,
    _Budget,
    _depth2_prefixes,
    _dfs,
    _max_kernel,
    _max_task,
    _run_tasks,
    _star_runs,
    _start,
    _tables,
    enumerate_extremal,
    max_sail_free,
    upper_bound,
)
from sailfree.verify import formula_value


@pytest.fixture(autouse=True)
def no_worker_left_running():
    # a pool must end its workers before the search call returns
    yield
    assert mp.active_children() == []


def _reference_bound(n):
    """The fan-free bound floor(n^2/9) and the linearity degree bound
    floor(n*floor((n-1)/2)/3), the oracles' stop: upper_bound is never
    above it, so they cannot stop at the bound they check."""
    return min(n * n // 9, n * ((n - 1) // 2) // 3)


def test_upper_bound_values():
    assert upper_bound(9) == 9
    assert upper_bound(10) == 10
    assert upper_bound(3) == 1
    assert upper_bound(4) == 1
    assert upper_bound(7) == 4
    for n in range(3, 65):
        assert upper_bound(n) <= _reference_bound(n), n
        value = formula_value(n)[0]
        if value is not None and not (n % 3 == 1 and n >= 19):
            assert upper_bound(n) == value, n


def _unbroken_max(n):
    """The search without the star break: below the first edge at cap
    (n-1)//2, where the cap never binds."""
    budget = _Budget(None, None)
    found, _ = _max_kernel(n, (0,), (n - 1) // 2, 1, _reference_bound(n), budget)
    assert not budget.exceeded
    return max(found, 1)


def _running_best(n, runs, bound, budget):
    """_max_kernel over the runs in order, each run starting from the best
    so far.  Returns (found, edges) as _max_kernel does."""
    best = (0, None)
    for prefix, delta, stop_at in runs:
        found = _max_kernel(n, prefix, delta, max(bound, best[0]), stop_at, budget)
        if found[0]:
            best = found
    return best


def _star_search(n):
    """The search from the star: every star run of n from vertex 0's
    largest star, the best carried from run to run, with an unlimited
    budget.  Returns (value, pushes).  Set against max_sail_free, which
    proves the value by counting from the construction, it cross-checks
    the two wherever the search finishes."""
    budget = _Budget(None, None)
    star = (n - 1) // 2
    found, _ = _running_best(n, _star_runs(n, upper_bound(n)), star, budget)
    assert not budget.exceeded
    return max(found, star), budget.spent


def _proven_by_counting(n):
    report = max_sail_free(n)
    assert (report.exhausted, report.nodes_explored) == (True, 0), n
    assert report.witness is _start(n)
    return report.max_edges


def test_small_maxima_match_known_values():
    known = {4: 1, 5: 2, 6: 4, 7: 4, 8: 6, 9: 9}
    for n, want in known.items():
        report = max_sail_free(n)
        assert report.exhausted
        assert report.max_edges == want == _unbroken_max(n), n
    # pins the serial traversal from the star: order, pruning and node
    # counting
    assert _star_search(8) == (6, 8) == (_proven_by_counting(8), 8)


def test_n10_maximum_is_proven():
    # pins the serial traversal from the star at the size of the paper's
    # n = 3k+1 value
    assert _star_search(10) == (10, 29) == (_proven_by_counting(10), 29)


def test_n13_maximum_is_proven():
    # the paper's k^2+1 at k=4, proven by a full traversal from the star
    # (about 1 s) and by counting from c1
    assert _star_search(13) == (17, 150921) == (_proven_by_counting(13), 150921)


@pytest.mark.nightly
def test_n16_maximum_is_proven():
    # the search from the star (about 2 min), against the truncated design
    assert _star_search(16)[0] == 26 == _proven_by_counting(16)


def test_counting_proves_every_n_the_start_reaches():
    # the start is the construction of formula size (the largest star at
    # n = 4 and 7); it reaches upper_bound(n) at every n but 7 and 3k+1
    # with k >= 6, the paper's open case
    open_case = {7} | set(range(19, 65, 3))
    proven = set()
    for n in range(3, 65):
        start = _start(n)
        value = formula_value(n)[0]
        assert start.m == ((n - 1) // 2 if value is None else value), n
        assert find_sail_fast(start) is None, n
        if n <= 16:
            assert find_sail_bruteforce(start) is None, n
        report = max_sail_free(n, SearchOptions(time_limit=0))
        assert report.max_edges == start.m and report.nodes_explored == 0, n
        if report.exhausted:
            proven.add(n)
    assert proven == set(range(3, 65)) - open_case  # 45 values


def _unbroken_classes(n, m):
    """Enumeration without the star break, as in _unbroken_max, and without
    the leaf's canonicity test: every m-edge system's canonical form goes
    into a set, so the oracle shares no leaf rule with _enum_kernel."""
    budget = _Budget(None, None)
    forms = set()

    def leaf(stack):
        forms.add(canonical_form(LinearTripleSystem(n, tuple(stack))))
        return m - 1

    _dfs(n, (0,), (n - 1) // 2, m - 1, _reference_bound(n), budget, leaf)
    assert not budget.exceeded
    return forms


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 9)
                                 for m in range(1, _reference_bound(n) + 2)]
                         + [(9, 8), (9, 9), (9, 10)]
                         # where the unbroken search still finishes: about
                         # 2.5 min at n=9 and 4 min at (10, 10)
                         + [pytest.param(n, m, marks=pytest.mark.nightly)
                            for n, m in [(9, m) for m in range(1, 8)]
                            + [(10, m) for m in (1, 2, 3, 4, 10)]])
def test_star_break_keeps_every_class(n, m):
    assert enumerate_extremal(n, m) == _unbroken_classes(n, m)


def test_witness_is_valid_and_sail_free():
    for n in (5, 6, 8, 10, 11):
        report = max_sail_free(n)
        w = report.witness
        assert w.n == n and w.m == report.max_edges  # construction validated linearity
        assert find_sail_bruteforce(w) is None


def test_monotone_in_n():
    values = [max_sail_free(n).max_edges for n in range(4, 10)]
    assert values == sorted(values)


def test_max_independent_of_worker_count():
    for n in (6, 7, 8, 9):
        seq = max_sail_free(n, SearchOptions(worker_count=1))
        par = max_sail_free(n, SearchOptions(worker_count=2))
        assert seq.max_edges == par.max_edges
        assert par.exhausted
        # the same witness, whichever pool task finished first
        assert par.witness == seq.witness, n


def test_target_stops_early_without_proof():
    report = max_sail_free(8, SearchOptions(target_edges=5))
    assert report.max_edges >= 5
    # the start's first edges meet the target: a subset of a linear
    # sail-free system is one too
    assert report.witness.edges == _start(8).edges[:5]
    if report.max_edges < upper_bound(8):
        assert not report.exhausted
    # the first edge alone meets a target of 1: the run ends on entry
    report = max_sail_free(8, SearchOptions(target_edges=1))
    assert (report.max_edges, report.nodes_explored, report.exhausted) == (1, 0, False)


def test_parallel_maximum_stops_at_the_proof():
    # n=7 meets its upper bound 4 from the star; every task ends once its
    # own bound does.  Workers share no bound, so an uncut call's pushes do
    # not depend on task completion order.
    counts = {max_sail_free(7, SearchOptions(worker_count=2)).nodes_explored for _ in range(5)}
    assert counts == {2}
    assert max(counts) < 2000
    # n=9 meets it at the start: no task runs
    assert max_sail_free(9, SearchOptions(worker_count=2)).nodes_explored == 0
    seq = max_sail_free(10, SearchOptions(target_edges=9))
    par = max_sail_free(10, SearchOptions(target_edges=9, worker_count=2))
    assert (par.max_edges, par.exhausted) == (seq.max_edges, seq.exhausted) == (9, False)
    assert par.witness == seq.witness


def test_parallel_time_limit_keeps_the_pool_witness(monkeypatch):
    # the pool's first largest result in task order is the serial witness,
    # with or without a time limit, and no serial pass runs after the pool
    n, limit = 7, 120.0
    want = max_sail_free(n).witness
    assert want.m == 4 and find_sail_bruteforce(want) is None

    parent, kernel = os.getpid(), search._max_kernel

    def in_workers_only(*args):
        if os.getpid() == parent:
            raise AssertionError("serial pass after the pool")
        return kernel(*args)

    monkeypatch.setattr(search, "_max_kernel", in_workers_only)
    for time_limit in [None] + [limit] * 10:
        report = max_sail_free(n, SearchOptions(worker_count=2, time_limit=time_limit))
        assert (report.witness, report.exhausted) == (want, True)
        assert report.elapsed < limit / 4


@pytest.mark.parametrize("n,workers", [
    pytest.param(n, workers, id=f"{n}" if workers > 1 else f"{n}-serial")
    for n in (8, 9, 10) for workers in (2, 1)])
def test_pool_from_the_star_returns_the_serial_witness(n, workers):
    # started from vertex 0's largest star, more than one task beats its
    # start, so the first largest result in task order is what picks the
    # witness; at n=10 with one worker it is the second run's (its runs
    # find 8, 10 and 6).  Above n=10 each task's climb from the star costs
    # far more than the running best; the serial pushes are pinned at the
    # module docstring's figures.
    star, runs = (n - 1) // 2, _star_runs(n, upper_bound(n))
    want = _running_best(n, runs, star, _Budget(None, None))
    budget = _Budget(None, None)
    clean, results = _run_tasks(n, [r for r in runs if r[2] > star], workers, budget,
                                partial(_max_task, star))
    assert clean and sum(found > star for found, _ in results) > 1
    assert max(results, key=lambda r: r[0]) == want
    if workers == 1:
        assert budget.spent == {8: 12, 9: 25, 10: 35}[n]


def test_serial_calls_read_no_module_state(monkeypatch):
    # a serial call passes n and its budget to its tasks: calls in two
    # threads do not meet, and neither touches the pool's worker state.
    # Each thread repeats its call for about a quarter second, switching
    # often, so the two threads' calls interleave.
    calls = ((partial(max_sail_free, 19, SearchOptions(node_limit=20_000)), 3),
             (partial(enumerate_extremal, 8, 6), 30))
    want = [[call()] * times for call, times in calls]
    assert want[0][0].nodes_explored > 0 and want[1][0]

    def pooled(*args, **kwargs):
        raise AssertionError("pool state used by a serial call")

    monkeypatch.setattr(search, "_pool_init", pooled)
    monkeypatch.setattr(search.mp, "Pool", pooled)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(lambda call, times: [call() for _ in range(times)], *c)
                       for c in calls]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)

    def key(report):
        return report.max_edges, report.witness, report.nodes_explored, report.exhausted

    assert [list(map(key, got[0])), got[1]] == [list(map(key, want[0])), want[1]]


def test_parallel_node_limit_holds():
    # each worker overshoots by less than one batch; a task that starts
    # after the budget is gone pushes nothing.  n=19's search does not end
    # in reach of the limit.
    workers, limit = 2, 1000
    report = max_sail_free(19, SearchOptions(node_limit=limit, worker_count=workers))
    assert report.nodes_explored <= limit + _CHECK_EVERY * workers
    assert not report.exhausted


def test_parallel_budget_gone_at_entry_hands_out_no_task(monkeypatch):
    # no pool task starts, no shared value is made, and no push is counted
    # that was not made; handing out n=40's tasks regardless takes seconds
    def no_value(*args, **kwargs):
        raise AssertionError("shared value made")

    monkeypatch.setattr(search.mp, "Value", no_value)
    report = max_sail_free(40, SearchOptions(time_limit=0, worker_count=2))
    assert (report.exhausted, report.nodes_explored) == (False, 0)
    assert report.elapsed < 5
    report = max_sail_free(19, SearchOptions(worker_count=3, node_limit=0))
    assert (report.exhausted, report.nodes_explored) == (False, 0)


def test_a_start_holding_a_sail_raises(monkeypatch, sail7):
    # a construction with a sail is a bug, never a silent fallback
    monkeypatch.setattr(search, "formula_construction", lambda n: sail7)
    with pytest.raises(RuntimeError, match="holds a sail"):
        _start.__wrapped__(7)


def test_parallel_call_proven_at_entry_starts_no_pool(monkeypatch):
    # the truncated design reaches n=16's bound: no table, shared value or
    # pool is made, and the witness is the cached construction
    def made(*args, **kwargs):
        raise AssertionError("table, shared value or pool made")

    monkeypatch.setattr(search, "_tables", made)
    monkeypatch.setattr(search.mp, "Value", made)
    monkeypatch.setattr(search.mp, "Pool", made)
    report = max_sail_free(16, SearchOptions(worker_count=2))
    assert (report.max_edges, report.exhausted, report.nodes_explored) == (26, True, 0)
    assert report.witness is _start(16)
    assert report.elapsed < 0.1


def test_runs_that_end_on_entry_build_no_index_masks(monkeypatch):
    # a run whose bound is already at its stop pushes its prefix and ends;
    # the index masks are built only for a run that goes on
    def no_masks(n):
        raise AssertionError(f"_index_masks({n}) built")

    monkeypatch.setattr(search, "_index_masks", no_masks)
    report = max_sail_free(16)
    assert (report.max_edges, report.exhausted, report.nodes_explored) == (26, True, 0)
    assert enumerate_extremal(9, 10) == set()


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_gone_at_entry_builds_no_table(monkeypatch, workers):
    # building the tables takes a fraction of a second at this size; a call
    # that cannot push has no use for them
    def no_table(n):
        raise AssertionError(f"_tables({n}) built")

    monkeypatch.setattr(search, "_tables", no_table)
    opts = SearchOptions(time_limit=0, worker_count=workers)
    report = max_sail_free(61, opts)
    assert (report.exhausted, report.nodes_explored) == (False, 0)
    for m in (3, 40):
        with pytest.raises(LimitExceeded):
            enumerate_extremal(61, m, opts)


def test_budget_spends_each_batch_once():
    budget = _Budget(3000, None)
    _max_kernel(10, (0,), 4, 1, _reference_bound(10), budget)
    # two batches of pushes, each counted once; the check before the next
    # push found the budget gone
    assert (budget.local, budget.exceeded) == (2 * _CHECK_EVERY, True)
    spent = _Budget(0, None)
    assert _max_kernel(8, (0,), 3, 1, _reference_bound(8), spent) == (0, None)
    assert (spent.local, spent.exceeded) == (0, True)


@pytest.mark.parametrize("bad", [
    dict(time_limit=float("nan")),
    dict(time_limit=-1.0),
    dict(node_limit=-1),
    dict(worker_count=0),
    dict(target_edges=0),
])
def test_search_options_reject_invalid_values(bad):
    with pytest.raises(ValueError):
        SearchOptions(**bad)


def test_node_limited_runs_at_large_n_are_pinned():
    # candidate masks span 9,880 triples at n=40 and 41,664 at n=64; the best
    # starts at c1's k^2+1
    for n, limit, best, nodes in ((40, 20000, 170, 20480), (64, 3000, 442, 4096)):
        report = max_sail_free(n, SearchOptions(node_limit=limit))
        assert (report.max_edges, report.nodes_explored) == (best, nodes), n
        assert not report.exhausted


def test_node_limit_reports_not_exhausted():
    # n=19 cannot reach its bound 38 (the value is 37), so the run cannot
    # end early by proof
    report = max_sail_free(19, SearchOptions(node_limit=5))
    assert report.nodes_explored <= 5 + _CHECK_EVERY  # budget is checked in batches
    assert report.max_edges < upper_bound(19)
    assert not report.exhausted
    # n=7 reaches its bound 4 in 2 pushes, which proves the value though the
    # budget cut the call
    report = max_sail_free(7, SearchOptions(node_limit=1))
    assert (report.max_edges, report.nodes_explored, report.exhausted) == (4, 2, True)
    # n=8 starts at its bound 6: proven with no push
    report = max_sail_free(8, SearchOptions(node_limit=5))
    assert (report.max_edges, report.nodes_explored, report.exhausted) == (6, 0, True)


def test_rejects_out_of_range_n():
    with pytest.raises(UnsupportedSize):
        max_sail_free(2)
    with pytest.raises(UnsupportedSize):
        enumerate_extremal(65, 3)
    with pytest.raises(UnsupportedSize):
        SailGuard(2)
    # and an edge count below one
    with pytest.raises(ValueError):
        enumerate_extremal(5, 0)


def test_enumerate_single_class_at_tiny_sizes():
    classes = enumerate_extremal(4, 1)
    assert len(classes) == 1
    (form,) = classes
    assert [tuple(e) for e in form.edges] == [(0, 1, 2)]


def test_enumerate_transversal_design_unique_at_6():
    classes = enumerate_extremal(6, 4)
    assert len(classes) == 1
    td = canonical_form(transversal_design(2))
    assert classes == {td}


def test_enumerate_agrees_without_symmetry_fix():
    for n, m in ((6, 4), (7, 4)):
        assert enumerate_extremal(n, m) == _unbroken_classes(n, m)


def test_enumerate_past_k3():
    # 4 classes at (11, 12) and 2 at (12, 16), one of them the transversal
    # design of order 4; each in a fraction of a second
    assert len(enumerate_extremal(11, 12)) == 4
    classes = enumerate_extremal(12, 16)
    assert len(classes) == 2 and canonical_form(transversal_design(4)) in classes


def test_enumerated_forms_are_canonical_forms():
    # the leaf keeps a system only when its own list is minimal, so each
    # returned form is canonical_form's, labeling and node count included;
    # with two workers the run at degree m is added by canonical_form itself
    def full(f):
        return f, f.labeling, f.nodes

    shapes = [(n, m) for n in range(3, 10) for m in range(1, upper_bound(n) + 1)]
    for n, m in shapes + [(10, 10), (11, 12), (12, 16)]:
        forms = enumerate_extremal(n, m)
        assert forms, (n, m)
        for f in forms:
            assert full(canonical_form(f.system())) == full(f), (n, m)
    for n, m in ((7, 3), (9, 9)):
        two = enumerate_extremal(n, m, SearchOptions(worker_count=2))
        assert set(map(full, two)) == set(map(full, enumerate_extremal(n, m)))


def test_unbroken_runs_build_no_first_use_order(monkeypatch):
    # the oracles keep every stack below the first edge
    def no_order(n, delta):
        raise AssertionError(f"_first_use({n}, {delta}) built")

    monkeypatch.setattr(search, "_first_use", no_order)
    assert _unbroken_classes(8, 6) == {canonical_form(truncated_design(2))}
    assert _unbroken_max(8) == 6


def test_enumerate_truncated_design_is_extremal_class_at_8():
    classes = enumerate_extremal(8, 6)
    trunc = canonical_form(truncated_design(2))
    assert trunc in classes


def test_enumerate_respects_limits():
    for workers in (1, 2):
        with pytest.raises(LimitExceeded):
            enumerate_extremal(9, 8, SearchOptions(node_limit=10, worker_count=workers))


def test_enumerate_parallel_agrees():
    two = SearchOptions(worker_count=2)
    # at (7, 3) the root of the run at degree 3 is itself a 3-edge system
    for n, m in ((7, 4), (7, 3), (7, 1)):
        seq = enumerate_extremal(n, m)
        assert enumerate_extremal(n, m, two) == seq
        assert _unbroken_classes(n, m) == seq


def test_report_fields_consistent():
    # n=7 is the one n below 19 that the start does not prove
    r = max_sail_free(7)
    assert r.n == 7
    assert r.nodes_explored >= 1
    assert r.elapsed >= 0
    assert r.max_edges <= upper_bound(7)
    # a report refuses a witness of another size, and a size above the bound
    with pytest.raises(ValueError, match="witness size disagrees"):
        SearchReport(7, 3, r.witness, 0, 0.0, True)
    fano = LinearTripleSystem(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                                  (1, 4, 6), (2, 3, 6), (2, 4, 5)))
    with pytest.raises(ValueError, match="exceeds the theoretical upper bound"):
        SearchReport(7, 7, fano, 0, 0.0, True)


def _push_first_dfs(n, prefix, delta, bound, stop_at, budget, leaf):
    """The serial kernel as it was before its bounds moved ahead of the push.

    Every pair-compatible candidate through no vertex at the degree cap
    delta is pushed; the cap, the candidate-count and the per-vertex
    capacity bounds are then evaluated on the grown stack.  It is the
    reference for the traversal: the kernel must reach the same leaves in
    the same order.
    """
    triples, vmasks, pmasks = _tables(n)
    guard = SailGuard(n)
    for t in prefix:
        if guard._push_fast(triples[t], vmasks[t], pmasks[t]):
            return  # a prefix holding a sail has no systems below it
    stack = guard._stack
    nbr = guard._nbr
    nodes = 0
    unchecked = 0
    done = False

    def full():
        return sum(1 << v for v in range(n) if nbr[v].bit_count() >= 2 * delta)

    base = [u for u in range(prefix[-1] + 1 if prefix else 0, len(triples))
            if pmasks[u] & guard._pairs == 0 and vmasks[u] & full() == 0]

    def rec(cands):
        nonlocal bound, nodes, unchecked, done
        size = len(stack)
        if size > bound:
            bound = leaf(stack)
            done = bound >= stop_at
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
            at_cap = full()
            rest = [u for u in cands[pos + 1:] if pmasks[u] & pairs == 0 and vmasks[u] & at_cap == 0]
            if size + 1 + len(rest) > bound:
                cap = 0
                for v in range(n):
                    d = nbr[v].bit_count()
                    cap += min(delta - d // 2, (n - 1 - d) >> 1)
                if size + 1 + cap // 3 > bound:
                    rec(rest)
            guard._pop_fast()

    rec(base)
    budget.spend(unchecked)


def _in_first_use_order(n, delta, stack):
    """Whether every edge after vertex 0's star at degree delta brings in
    star pairs {2j+1, 2j+2} only as the next untouched ones, through 2j+1,
    and outside vertices only as the next unused ones, 2delta+1 first."""
    pairs, outside = 0, 2 * delta + 1
    for edge in stack[delta:]:
        for v in edge:
            if 0 < v <= 2 * delta and (v - 1) // 2 >= pairs:
                if v != 2 * pairs + 1:
                    return False
                pairs += 1
            elif v >= outside:
                if v != outside:
                    return False
                outside += 1
    return True


def _leaf_sequence(dfs, n, runs, bound, enumerate_m=None, ordered=False):
    """The stacks handed to the leaf policy, in order, over the given
    (prefix, delta, stop_at) runs, each run starting from the bound.
    ordered keeps only those in first-use order; the bound still moves
    with every leaf."""
    seen = []

    def leaf(stack):
        if not ordered or _in_first_use_order(n, delta, stack):
            seen.append(tuple(stack))
        return enumerate_m - 1 if enumerate_m is not None else len(stack)

    for prefix, delta, stop_at in runs:
        budget = _Budget(None, None)
        dfs(n, prefix, delta, bound, stop_at, budget, leaf)
        assert not budget.exceeded
    return seen


def _unbroken_runs(n, roots):
    return [((r,), (n - 1) // 2, _reference_bound(n)) for r in roots]


def test_kernel_reaches_the_push_first_leaves():
    # below a star the kernel reaches the reference's leaves in first-use
    # order; below the first edge alone, all of them
    for n in range(4, 9):
        for runs, ordered in ((_unbroken_runs(n, [0]), False),
                              (_star_runs(n, upper_bound(n)), True)):
            want = _leaf_sequence(_push_first_dfs, n, runs, 1, ordered=ordered)
            assert _leaf_sequence(_dfs, n, runs, 1) == want, n
            assert max(map(len, want), default=1) == max_sail_free(n).max_edges
    for n, m in ((7, 4), (8, 5), (8, 6), (9, 9)):
        stars = [r for r in _star_runs(n, upper_bound(n)) if len(r[0]) <= m]
        for runs, ordered in ((_unbroken_runs(n, [0]), False), (stars, True)):
            want = _leaf_sequence(_push_first_dfs, n, runs, m - 1, m, ordered)
            assert want, (n, m)
            assert _leaf_sequence(_dfs, n, runs, m - 1, m) == want, (n, m)
    runs = _unbroken_runs(7, range(len(_tables(7)[0])))
    assert _leaf_sequence(_dfs, 7, runs, 3, 4) == _leaf_sequence(_push_first_dfs, 7, runs, 3, 4)
    # pool tasks: the kernel entered below a prefix and one more edge
    for runs, step, m, ordered in ((_unbroken_runs(9, [0]), 16, 9, False),
                                   (_star_runs(9, upper_bound(9)), 1, 7, True)):
        tasks = list(_depth2_prefixes(9, runs))[::step]
        for args in ((1, None), (m - 1, m)):
            want = _leaf_sequence(_push_first_dfs, 9, tasks, *args, ordered)
            assert want, args
            assert _leaf_sequence(_dfs, 9, tasks, *args) == want, args


def _guard_probe_prefixes(n, runs, ordered):
    """The pool's split as a guard walk: push each run's prefix, then push
    every later pair-compatible triple through no vertex at the cap, and
    when ordered in first-use order.

    Returns the tasks and the tasks the guard rejected.
    """
    triples, vmasks, pmasks = _tables(n)
    tasks, rejected = [], []
    for prefix, delta, stop_at in runs:
        guard = SailGuard(n)
        for r in prefix:
            assert guard._push_fast(triples[r], vmasks[r], pmasks[r]) == 0
        at_cap = sum(1 << v for v in range(n) if guard._nbr[v].bit_count() >= 2 * delta)
        for t in range(prefix[-1] + 1, len(triples)):
            if pmasks[t] & guard._pairs or vmasks[t] & at_cap:
                continue
            if ordered and not _in_first_use_order(n, delta, guard._stack + [triples[t]]):
                continue
            task = (prefix + (t,), delta, stop_at)
            tasks.append(task)
            if guard._push_fast(triples[t], vmasks[t], pmasks[t]) == 0:
                guard._pop_fast()
            else:
                rejected.append(task)
    return tasks, rejected


def test_split_matches_a_guard_probe_walk():
    for n in range(7, 13):
        for runs, ordered in ((_unbroken_runs(n, [0]), False), (_unbroken_runs(n, range(5)), False),
                              (_star_runs(n, upper_bound(n)), True)):
            tasks, rejected = _guard_probe_prefixes(n, runs, ordered)
            assert list(_depth2_prefixes(n, runs)) == tasks, (n, runs)
            # from a star of three edges on, a crossbar of the star is a task
            # the guard rejects, and it returns empty
            assert bool(rejected) == any(len(r[0]) >= 3 for r in runs), (n, runs)
            for prefix, delta, stop_at in rejected:
                budget = _Budget(None, None)
                assert _max_kernel(n, prefix, delta, 1, stop_at, budget) == (0, None)
                assert (budget.local, budget.exceeded) == (0, False)
    # n=19's one run above the start, at degree 6, splits into four tasks;
    # the first is a crossbar of the star
    triples = _tables(19)[0]
    runs = [r for r in _star_runs(19, upper_bound(19)) if r[2] > 37]
    assert [triples[prefix[-1]] for prefix, _, _ in _depth2_prefixes(19, runs)] == [
        (1, 3, 5), (1, 3, 13), (1, 13, 14), (13, 14, 15)]


def test_pool_holds_at_most_one_worker_per_task(monkeypatch):
    # (10, 10) splits into four depth-2 tasks, so six workers would leave
    # two idle; a call with no task starts no pool (Pool(0) raises)
    sizes = []
    real_pool = search.mp.Pool

    def recording(processes, *args, **kwargs):
        sizes.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(search.mp, "Pool", recording)
    forms = enumerate_extremal(10, 10, SearchOptions(worker_count=6))
    assert sizes == [4]
    assert forms == enumerate_extremal(10, 10)
    # n=3's one run, the edge {0,1,2}, has no candidate to split on
    budget = _Budget(None, None)
    assert _run_tasks(3, _star_runs(3, 1), 6, budget, partial(_max_task, 0)) == (True, [])
    assert sizes == [4]
