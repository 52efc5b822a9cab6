import itertools
import random

import pytest

from sailfree.core import (
    LinearTripleSystem,
    Triple,
    deficiency,
    make_system,
    neighborhood_partition,
    shadow,
    vertex_stats,
)
from sailfree.constructions import ConstructionSpec, build
from sailfree.errors import (
    DegenerateEdge,
    DuplicateEdge,
    LinearityViolation,
    UnsupportedSize,
    VertexOutOfRange,
)

from conftest import random_linear_system


def test_make_system_single_edge():
    s = make_system(3, [(0, 1, 2)])
    assert s.m == 1
    assert s.edges == (Triple(0, 1, 2),)


def test_make_system_rejects_shared_pair():
    with pytest.raises(LinearityViolation) as err:
        make_system(4, [(0, 1, 2), (0, 1, 3)])
    assert "share [0, 1]" in str(err.value)


def test_make_system_four_edges_all_intersections_checked():
    triples = [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)]
    # independent oracle: every pair of triples meets in at most one vertex
    for t1, t2 in itertools.combinations(triples, 2):
        assert len(set(t1) & set(t2)) <= 1
    s = make_system(6, triples)
    assert s.m == 4


def test_make_system_normalizes_order():
    s = make_system(5, [(4, 2, 0), (3, 1, 0)])
    assert s.edges == (Triple(0, 1, 3), Triple(0, 2, 4))


def test_constructor_diagnoses_edges_as_make_system_does():
    # an edge out of order is accepted and sorted, as make_system does
    direct = LinearTripleSystem(5, ((4, 2, 0), (3, 1, 0)))
    assert direct == make_system(5, [(4, 2, 0), (3, 1, 0)])
    assert direct.edges == (Triple(0, 1, 3), Triple(0, 2, 4))
    assert LinearTripleSystem(3, ((2, 1, 0),)).edges == (Triple(0, 1, 2),)
    for bad in ((0, 0, 1), (1, 0, 1), (2, 2, 2), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(DegenerateEdge):
            LinearTripleSystem(3, (bad,))
        with pytest.raises(DegenerateEdge):
            make_system(3, (bad,))
    for bad in ((3, 1, 0), (0, 1, -1), (0, 1, 7)):
        with pytest.raises(VertexOutOfRange):
            LinearTripleSystem(3, (bad,))


def test_make_system_errors():
    with pytest.raises(VertexOutOfRange):
        make_system(4, [(0, 1, 7)])
    with pytest.raises(DuplicateEdge):
        make_system(5, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(UnsupportedSize):
        make_system(65, [(0, 1, 2)])
    with pytest.raises(UnsupportedSize):
        make_system(2, [])
    with pytest.raises(ValueError):
        make_system(5, [(1, 1, 2)])


def test_shadow_single_edge():
    s = make_system(3, [(0, 1, 2)])
    assert shadow(s).pairs == {(0, 1), (0, 2), (1, 2)}


def test_shadow_empty():
    assert shadow(make_system(5, [])).pairs == frozenset()


def test_shadow_counts_three_per_edge(quad6):
    sh = shadow(quad6)
    # enumerate the 12 pair slots directly and confirm they are distinct
    pairs = [tuple(sorted(p)) for e in quad6.edges for p in itertools.combinations(e, 2)]
    assert len(pairs) == 12
    assert len(set(pairs)) == 12
    assert sh.pairs == frozenset(pairs)


def test_vertex_stats_sail_apex(sail7):
    st = vertex_stats(sail7, 0)
    assert st.degree == 3
    assert st.neighborhood == frozenset(range(1, 7))
    assert st.complement == frozenset({0})
    assert st.link == {(1, 2), (3, 4), (5, 6)}


def test_vertex_stats_empty_system():
    st = vertex_stats(make_system(5, []), 0)
    assert st.degree == 0
    assert st.neighborhood == frozenset()
    assert st.complement == frozenset(range(5))


def test_vertex_stats_reads_off_edges(quad6):
    st = vertex_stats(quad6, 0)
    assert st.degree == 2
    assert st.neighborhood == {2, 3, 4, 5}
    assert st.complement == {0, 1}
    with pytest.raises(VertexOutOfRange):
        vertex_stats(quad6, 6)


def test_vertex_stats_neighborhood_size_is_twice_degree():
    rng = random.Random(11)
    for _ in range(50):
        s = random_linear_system(9, rng)
        for v in range(s.n):
            st = vertex_stats(s, v)
            assert len(st.neighborhood) == 2 * st.degree
            assert v in st.complement
            assert len(st.link) == st.degree


def test_degree_sum_and_shadow_size():
    rng = random.Random(5)
    for _ in range(50):
        s = random_linear_system(8, rng)
        assert sum(s.degrees()) == 3 * s.m
        assert len(shadow(s).pairs) == 3 * s.m


def test_deficiency_empty_set():
    assert deficiency(make_system(5, []), [], 7) == 0


def test_deficiency_extremal_instances():
    c3 = build(ConstructionSpec("c3", 3))
    assert deficiency(c3, range(10), 3) == 0  # k-3 at k=3
    c1 = build(ConstructionSpec("c1", 4))
    assert c1.n == 13 and c1.m == 17
    assert deficiency(c1, range(13), 4) == 1  # k-3 at k=4


def test_deficiency_identity_on_full_vertex_set():
    rng = random.Random(3)
    for _ in range(30):
        s = random_linear_system(9, rng)
        k = rng.randrange(0, 5)
        assert deficiency(s, range(s.n), k) == s.n * k - 3 * s.m


def test_neighborhood_partition_classifies_by_intersection(sail7):
    ana = neighborhood_partition(sail7, 6, 2)
    # N(6) = {0, 5}; recompute the classification directly
    nbr = {0, 5}
    for e in sail7.edges:
        inside = len(set(e) & nbr)
        bucket = {3: ana.e0, 2: ana.e1, 1: ana.e2, 0: ana.e3}[inside]
        assert e in bucket
    assert ana.e1 == (Triple(0, 5, 6),)
    assert ana.e0 == ()


def test_neighborhood_partition_empty_system():
    ana = neighborhood_partition(make_system(4, []), 0, 1)
    assert ana.e0 == ana.e1 == ana.e2 == ana.e3 == ()
    assert set(ana.d_table) == {0, 1, 2, 3}
    assert all(v == (0, 0, 0) for v in ana.d_table.values())


def test_neighborhood_partition_c2_apex():
    # For the generator of the 2-colorable family at k=3, the z-vertex sees
    # all of X and Y, so the only edge outside its closed neighborhood is abc.
    s = build(ConstructionSpec("c2", 3))
    z1 = 6
    ana = neighborhood_partition(s, z1, 3)
    assert ana.e3 == (Triple(7, 8, 9),)
    assert ana.e2 == ()
    assert ana.e0 == ()


def test_neighborhood_partition_tables():
    rng = random.Random(9)
    for _ in range(40):
        s = random_linear_system(9, rng)
        v = rng.randrange(9)
        ana = neighborhood_partition(s, v, 3)
        assert sorted(ana.e0 + ana.e1 + ana.e2 + ana.e3) == list(s.edges)
        degs = s.degrees()
        s_verts = set(ana.d_table)
        # the identity behind the deficiency lemma
        assert sum(degs[x] for x in s_verts) == (
            len(ana.e1) + 2 * len(ana.e2) + 3 * len(ana.e3)
        )
        for x, (d1, d2, d3) in ana.d_table.items():
            # x is outside N(v), so no e0 edge can touch it
            assert degs[x] == d1 + d2 + d3
            mx = ana.m_family[x]
            assert len(mx) == d1
            # M_x is a matching: pairwise disjoint pairs
            used = [w for p in mx for w in p]
            assert len(used) == len(set(used))


def test_e0_nonempty_iff_sail_at_vertex(sail7):
    ana = neighborhood_partition(sail7, 0, 2)
    assert ana.e0 == (Triple(1, 3, 5),)
