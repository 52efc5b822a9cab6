import random
import pytest

from sailfree.core import Triple, make_system
from sailfree.constructions import ConstructionSpec, build, transversal_design
from sailfree.errors import EmptyStack, VertexOutOfRange
from sailfree.sails import (
    SailGuard,
    SailWitness,
    count_sails,
    find_sail_bruteforce,
    find_sail_fast,
)

from conftest import SAIL7_EDGES, random_linear_system, sail_exists_4subset


def test_fast_finds_the_planted_sail(sail7):
    w = find_sail_fast(sail7)
    assert w.apex == 0
    assert tuple(w.crossbar) == (1, 3, 5)
    assert set(w.fans) == {Triple(0, 1, 2), Triple(0, 3, 4), Triple(0, 5, 6)}


def test_bruteforce_finds_the_planted_sail(sail7):
    w = find_sail_bruteforce(sail7)
    assert w is not None and w.apex == 0


def test_three_edges_never_enough():
    s = make_system(7, SAIL7_EDGES[:3])
    assert find_sail_bruteforce(s) is None
    assert find_sail_fast(s) is None


def test_transversal_design_is_sail_free():
    td = transversal_design(3)
    assert find_sail_bruteforce(td) is None
    assert find_sail_fast(td) is None


def test_c4_variants_are_sail_free():
    for variant in (1, 2, 3):
        s = build(ConstructionSpec("c4", 3, mv_variant=variant))
        assert find_sail_fast(s) is None
        assert find_sail_bruteforce(s) is None


def test_fast_returns_lexicographically_first_witness():
    # two sails: apexes 0 and 3; crossbars (1,3,5) and (4,5,6) via apex 0? build
    # a system with two independent apex candidates and check the smaller wins
    edges = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)]
    s = make_system(7, edges)
    w = find_sail_fast(s)
    assert w.apex == 0
    assert tuple(w.crossbar) == (1, 3, 5)  # smallest qualifying crossbar


def test_witness_validation_rejects_malformed():
    f1, f2, f3 = Triple(0, 1, 2), Triple(0, 3, 4), Triple(0, 5, 6)
    with pytest.raises(ValueError):
        SailWitness(1, (f1, f2, f3), Triple(1, 3, 5))  # apex not in every fan
    with pytest.raises(ValueError):
        SailWitness(0, (f1, f2, f3), Triple(0, 3, 5))  # apex inside crossbar
    with pytest.raises(ValueError):
        SailWitness(0, (f1, f1, f3), Triple(1, 3, 5))  # repeated fan
    for crossbar in (Triple(1, 3, 7), Triple(1, 2, 5)):  # misses f3; meets f1 twice
        with pytest.raises(ValueError, match="crossbar must meet each fan"):
            SailWitness(0, (f1, f2, f3), crossbar)


def test_count_sails():
    assert count_sails(make_system(7, SAIL7_EDGES)) == 1
    # adding a second crossbar through other leaves adds one more
    s = make_system(7, SAIL7_EDGES + [(2, 4, 6)])
    assert count_sails(s) == 2
    assert count_sails(transversal_design(3)) == 0


def test_oracle_equivalence_three_ways():
    rng = random.Random(2024)
    agree = 0
    with_sails = 0
    for _ in range(400):
        n = rng.randrange(6, 10)
        s = random_linear_system(n, rng)
        fast = find_sail_fast(s) is not None
        brute = find_sail_bruteforce(s) is not None
        subset = sail_exists_4subset(s)
        assert fast == brute == subset, s.edges
        agree += 1
        with_sails += fast
    # the corpus must exercise both outcomes to mean anything
    assert 0 < with_sails < agree


def test_returned_witnesses_always_validate():
    rng = random.Random(77)
    for _ in range(300):
        s = random_linear_system(rng.randrange(7, 10), rng)
        for det in (find_sail_fast, find_sail_bruteforce):
            w = det(s)
            if w is not None:
                assert all(e in s.edges for e in w.edges())


# --- guard ------------------------------------------------------------


def test_guard_accepts_then_rejects_linearity():
    g = SailGuard(6)
    assert g.push((0, 1, 2)).accepted
    r = g.push((0, 1, 3))
    assert not r.accepted and r.reason == "linearity"
    assert tuple(r.conflict) == (0, 1, 2)
    assert g.edges == (Triple(0, 1, 2),)  # state untouched


def test_guard_rejects_fourth_sail_edge(sail7):
    g = SailGuard(7)
    for t in SAIL7_EDGES[:3]:
        assert g.push(t).accepted
    r = g.push(SAIL7_EDGES[3])
    assert not r.accepted and r.reason == "sail"
    assert r.witness.apex == 0 and tuple(r.witness.crossbar) == (1, 3, 5)
    # the guard still matches the brute-force oracle's verdict
    assert find_sail_bruteforce(sail7) is not None
    assert len(g) == 3


def test_guard_rejects_new_fan_edge():
    # push the crossbar early; the last fan then completes the sail
    g = SailGuard(7)
    for t in [(1, 3, 5), (0, 1, 2), (0, 3, 4)]:
        assert g.push(t).accepted
    r = g.push((0, 5, 6))
    assert not r.accepted and r.reason == "sail"
    assert r.witness.apex == 0
    assert tuple(r.witness.crossbar) == (1, 3, 5)


def test_guard_pop_restores_exactly():
    g = SailGuard(8)
    fresh = g.fingerprint()
    assert g.push((0, 1, 2)).accepted
    assert g.pop() == Triple(0, 1, 2)
    assert g.fingerprint() == fresh
    assert g.push((0, 1, 2)).accepted
    assert g.push((2, 3, 4)).accepted
    g.pop()
    g.pop()
    assert g.fingerprint() == fresh
    with pytest.raises(EmptyStack):
        g.pop()


def test_guard_vertex_range():
    g = SailGuard(5)
    with pytest.raises(VertexOutOfRange):
        g.push((0, 1, 5))


def _rebuild(guard):
    fresh = SailGuard(guard.n)
    for t in guard.edges:
        assert fresh.push(t).accepted
    return fresh


def test_guard_state_equals_rebuild_under_fuzz():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(5, 9)
        g = SailGuard(n)
        for _ in range(rng.randrange(4, 25)):
            if g.edges and rng.random() < 0.3:
                g.pop()
            else:
                g.push(Triple.of(rng.sample(range(n), 3)))
            assert g.fingerprint() == _rebuild(g).fingerprint()
        s = g.as_system()  # accepted set is linear (validated) ...
        assert find_sail_bruteforce(s) is None  # ... and sail-free


def test_guard_acceptance_is_order_independent():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(6, 9)
        triples = set()
        while len(triples) < rng.randrange(3, 7):
            triples.add(Triple.of(rng.sample(range(n), 3)))
        batch = list(triples)

        def all_accepted(order):
            g = SailGuard(n)
            return all(g.push(t).accepted for t in order)

        orders = [rng.sample(batch, len(batch)) for _ in range(4)]
        verdicts = {all_accepted(o) for o in orders}
        assert len(verdicts) == 1
