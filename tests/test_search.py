import pytest

from sailfree import search
from sailfree.canon import canonical_form
from sailfree.constructions import transversal_design, truncated_design
from sailfree.errors import LimitExceeded, UnsupportedSize
from sailfree.sails import SailGuard, find_sail_bruteforce
from sailfree.search import (
    _CHECK_EVERY,
    SearchOptions,
    _Budget,
    _depth2_prefixes,
    _dfs,
    _enum_kernel,
    _form_adder,
    _max_kernel,
    _star_runs,
    _tables,
    enumerate_extremal,
    max_sail_free,
    upper_bound,
)


def test_upper_bound_values():
    assert upper_bound(9) == 9
    assert upper_bound(10) == 11  # the true value there is 10
    assert upper_bound(3) == 1
    assert upper_bound(4) == 1
    assert upper_bound(7) == 5


def _unbroken_max(n):
    """The search without the star break: below the first edge at cap
    (n-1)//2, where the cap never binds."""
    found, _, _, clean = _max_kernel(n, (0,), (n - 1) // 2, 1, upper_bound(n),
                                     _Budget(None, None))
    assert clean
    return max(found, 1)


def test_small_maxima_match_known_values():
    known = {4: 1, 5: 2, 6: 4, 7: 4, 8: 6, 9: 9}
    for n, want in known.items():
        report = max_sail_free(n)
        assert report.exhausted
        assert report.max_edges == want == _unbroken_max(n), n
        if n == 8:
            # pins the serial traversal: order, pruning and node counting
            assert report.nodes_explored == 12


def test_n10_maximum_is_proven():
    report = max_sail_free(10)
    assert report.max_edges == 10
    assert report.exhausted
    # pins the serial traversal at the size of the paper's n = 3k+1 value
    assert report.nodes_explored == 56


@pytest.mark.nightly
def test_n16_maximum_is_proven():
    report = max_sail_free(16)
    assert (report.max_edges, report.exhausted) == (26, True)


def _unbroken_classes(n, m):
    """Enumeration without the star break, as in _unbroken_max."""
    forms = set()
    _, clean = _enum_kernel(n, (0,), (n - 1) // 2, m, upper_bound(n), _Budget(None, None),
                            _form_adder(n, forms))
    assert clean
    return forms


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 9) for m in range(1, upper_bound(n) + 2)]
                         + [(9, 8), (9, 9), (9, 10)])
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
    if report.max_edges < upper_bound(8):
        assert not report.exhausted
    # the first edge alone meets a target of 1: the run ends on entry
    report = max_sail_free(8, SearchOptions(target_edges=1))
    assert (report.max_edges, report.nodes_explored, report.exhausted) == (1, 0, False)


def test_parallel_maximum_stops_at_the_proof():
    # n=9 meets its upper bound; every task ends once the shared best does
    assert max_sail_free(9, SearchOptions(worker_count=2)).nodes_explored < 2000
    seq = max_sail_free(10, SearchOptions(target_edges=9))
    par = max_sail_free(10, SearchOptions(target_edges=9, worker_count=2))
    assert (par.max_edges, par.exhausted) == (seq.max_edges, seq.exhausted) == (9, False)
    assert par.witness == seq.witness


def test_parallel_time_limit_keeps_the_pool_witness(monkeypatch):
    # under a time limit the serial witness pass is skipped, so a run that
    # the pool finishes early returns early with the pool's witness
    def no_witness_pass(*args):
        raise AssertionError("serial witness pass under a time limit")

    monkeypatch.setattr(search, "_max_runs", no_witness_pass)
    for n, want in ((11, 12), (13, 17)):
        limit = 120.0
        report = max_sail_free(n, SearchOptions(worker_count=2, time_limit=limit))
        assert (report.max_edges, report.exhausted) == (want, True), n
        w = report.witness
        assert w.n == n and w.m == want
        assert find_sail_bruteforce(w) is None
        assert report.elapsed < limit / 4, n


def test_parallel_node_limit_holds():
    # each worker overshoots by less than one batch; a task that starts
    # after the budget is gone pushes nothing.  n=13 takes ~151,000 pushes.
    workers, limit = 2, 1000
    report = max_sail_free(13, SearchOptions(node_limit=limit, worker_count=workers))
    probes = _depth2_prefixes(13, _star_runs(13, upper_bound(13)))[1]
    assert report.nodes_explored <= limit + _CHECK_EVERY * workers + probes
    assert not report.exhausted


def test_budget_spends_each_batch_once():
    budget = _Budget(3000, None)
    *_, nodes, clean = _max_kernel(10, (0,), 4, 1, upper_bound(10), budget)
    # two batches: 4,095 pushes and the attempt that found the budget gone
    assert (nodes, budget.local, clean) == (2 * _CHECK_EVERY - 1, 2 * _CHECK_EVERY, False)
    spent = _Budget(0, None)
    assert _max_kernel(8, (0,), 3, 1, upper_bound(8), spent)[2:] == (0, False)
    assert spent.local == 0


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
    # candidate masks span 9,880 triples at n=40 and 41,664 at n=64
    for n, limit, best, nodes in ((40, 20000, 70, 20059), (64, 3000, 33, 4095)):
        report = max_sail_free(n, SearchOptions(node_limit=limit))
        assert (report.max_edges, report.nodes_explored) == (best, nodes), n
        assert not report.exhausted


def test_node_limit_reports_not_exhausted():
    # n=8 cannot reach its degree bound, so the run cannot end early by proof
    report = max_sail_free(8, SearchOptions(node_limit=5))
    assert report.nodes_explored <= 5 + 2048  # budget is checked in batches
    assert report.max_edges < 7
    assert not report.exhausted


def test_rejects_out_of_range_n():
    with pytest.raises(UnsupportedSize):
        max_sail_free(2)
    with pytest.raises(UnsupportedSize):
        enumerate_extremal(65, 3)


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
    r = max_sail_free(6)
    assert r.n == 6
    assert r.nodes_explored >= 1
    assert r.elapsed >= 0
    assert r.max_edges <= upper_bound(6)


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
            return 0, True  # a prefix holding a sail has no systems below it
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
    return nodes, not budget.exceeded


def _leaf_sequence(dfs, n, runs, bound, enumerate_m=None):
    """The stacks handed to the leaf policy, in order, over the given
    (prefix, delta, stop_at) runs, each run starting from the bound."""
    seen = []

    def leaf(stack):
        seen.append(tuple(stack))
        return enumerate_m - 1 if enumerate_m is not None else len(stack)

    for prefix, delta, stop_at in runs:
        _, clean = dfs(n, prefix, delta, bound, stop_at, _Budget(None, None), leaf)
        assert clean
    return seen


def _unbroken_runs(n, roots):
    return [((r,), (n - 1) // 2, upper_bound(n)) for r in roots]


def test_kernel_reaches_the_push_first_leaves():
    for n in range(4, 9):
        for runs in (_unbroken_runs(n, [0]), _star_runs(n, upper_bound(n))):
            want = _leaf_sequence(_push_first_dfs, n, runs, 1)
            assert _leaf_sequence(_dfs, n, runs, 1) == want, n
            assert max(map(len, want), default=1) == max_sail_free(n).max_edges
    for n, m in ((7, 4), (8, 5), (8, 6), (9, 9)):
        stars = [r for r in _star_runs(n, upper_bound(n)) if len(r[0]) <= m]
        for runs in (_unbroken_runs(n, [0]), stars):
            want = _leaf_sequence(_push_first_dfs, n, runs, m - 1, m)
            assert want, (n, m)
            assert _leaf_sequence(_dfs, n, runs, m - 1, m) == want, (n, m)
    runs = _unbroken_runs(7, range(len(_tables(7)[0])))
    assert _leaf_sequence(_dfs, 7, runs, 3, 4) == _leaf_sequence(_push_first_dfs, 7, runs, 3, 4)
    # pool tasks: the kernel entered below a prefix and one more edge
    for runs, step, m in ((_unbroken_runs(9, [0]), 16, 9), (_star_runs(9, upper_bound(9)), 4, 7)):
        tasks = _depth2_prefixes(9, runs)[0][::step]
        for args in ((1,), (m - 1, m)):
            want = _leaf_sequence(_push_first_dfs, 9, tasks, *args)
            assert want, args
            assert _leaf_sequence(_dfs, 9, tasks, *args) == want, args


def _guard_probe_prefixes(n, runs):
    """The pool's split as a guard walk: push each run's prefix, then push
    every later pair-compatible triple through no vertex at the cap.

    Returns the tasks, the push attempts, and the tasks the guard rejected.
    """
    triples, vmasks, pmasks = _tables(n)
    tasks, rejected = [], []
    probes = 0
    for prefix, delta, stop_at in runs:
        guard = SailGuard(n)
        probes += 1
        for r in prefix:
            assert guard._push_fast(triples[r], vmasks[r], pmasks[r]) == 0
        at_cap = sum(1 << v for v in range(n) if guard._nbr[v].bit_count() >= 2 * delta)
        for t in range(prefix[-1] + 1, len(triples)):
            if pmasks[t] & guard._pairs or vmasks[t] & at_cap:
                continue
            probes += 1
            task = (prefix + (t,), delta, stop_at)
            tasks.append(task)
            if guard._push_fast(triples[t], vmasks[t], pmasks[t]) == 0:
                guard._pop_fast()
            else:
                rejected.append(task)
    return tasks, probes, rejected


def test_split_matches_a_guard_probe_walk():
    for n in range(7, 13):
        for runs in (_unbroken_runs(n, [0]), _unbroken_runs(n, range(5)),
                     _star_runs(n, upper_bound(n))):
            tasks, probes, rejected = _guard_probe_prefixes(n, runs)
            assert _depth2_prefixes(n, runs) == (tasks, probes), (n, runs)
            # from a star of three edges on, a crossbar of the star is a task
            # the guard rejects, and it returns empty
            assert bool(rejected) == any(len(r[0]) >= 3 for r in runs), (n, runs)
            for prefix, delta, stop_at in rejected:
                assert _max_kernel(n, prefix, delta, 1, stop_at, _Budget(None, None)) == (
                    0, None, 0, True)
