import pytest

from sailfree.canon import canonical_form
from sailfree.constructions import transversal_design, truncated_design
from sailfree.errors import LimitExceeded, UnsupportedSize
from sailfree.sails import find_sail_bruteforce
from sailfree.search import (
    SearchOptions,
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


def test_small_maxima_match_known_values():
    known = {4: 1, 5: 2, 6: 4, 7: 4, 8: 6, 9: 9}
    for n, want in known.items():
        report = max_sail_free(n)
        assert report.exhausted
        assert report.max_edges == want, n
        if n == 8:
            # pins the serial traversal: order, pruning and node counting
            assert report.nodes_explored == 7454


def test_witness_is_valid_and_sail_free():
    for n in (5, 6, 8):
        report = max_sail_free(n)
        w = report.witness
        assert w.n == n and w.m == report.max_edges  # construction validated linearity
        assert find_sail_bruteforce(w) is None


def test_monotone_in_n():
    values = [max_sail_free(n).max_edges for n in range(4, 10)]
    assert values == sorted(values)


def test_max_independent_of_worker_count():
    for n in (6, 7, 8):
        seq = max_sail_free(n, SearchOptions(worker_count=1))
        par = max_sail_free(n, SearchOptions(worker_count=2))
        assert seq.max_edges == par.max_edges
        assert par.exhausted


def test_target_stops_early_without_proof():
    report = max_sail_free(8, SearchOptions(target_edges=5))
    assert report.max_edges >= 5
    if report.max_edges < upper_bound(8):
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
    with_fix = enumerate_extremal(6, 4)
    without = enumerate_extremal(6, 4, wlog_first_edge=False)
    assert with_fix == without
    with_fix = enumerate_extremal(7, 4)
    without = enumerate_extremal(7, 4, wlog_first_edge=False)
    assert with_fix == without


def test_enumerate_truncated_design_is_extremal_class_at_8():
    classes = enumerate_extremal(8, 6)
    trunc = canonical_form(truncated_design(2))
    assert trunc in classes


def test_enumerate_respects_limits():
    with pytest.raises(LimitExceeded):
        enumerate_extremal(9, 8, SearchOptions(node_limit=10))


def test_enumerate_parallel_agrees():
    two = SearchOptions(worker_count=2)
    for n, m in ((7, 4), (7, 1)):
        seq = enumerate_extremal(n, m)
        assert enumerate_extremal(n, m, two) == seq
        assert enumerate_extremal(n, m, two, wlog_first_edge=False) == seq


def test_report_fields_consistent():
    r = max_sail_free(6)
    assert r.n == 6
    assert r.nodes_explored >= 1
    assert r.elapsed >= 0
    assert r.max_edges <= upper_bound(6)
