import hashlib
import itertools
import json
import random

import pytest

from sailfree.constructions import (
    ConstructionSpec,
    TwoFactorSpec,
    _long_cycle_offsets,
    build,
    build_resolved,
    c1_offset_sweep,
    hamiltonian_two_factor,
    k3_full_sweep,
    matching_decomposition,
    transversal_design,
    truncated_design,
    two_factor,
)
from sailfree.core import deficiency, make_system, neighborhood_partition
from sailfree.errors import (
    BadColorAssignment,
    BadCycleLengths,
    BadSpecialEdges,
    BadVariant,
    DerangementViolation,
    DivisibilityViolation,
    InvalidLatinSquare,
    KTooSmall,
    NoLongCycle,
)
from sailfree.sails import find_sail_bruteforce, find_sail_fast


def assert_sail_free(system):
    assert find_sail_fast(system) is None
    assert find_sail_bruteforce(system) is None


# --- 2-factors and matchings ----------------------------------------------


def test_two_factor_hamiltonian_default():
    cycles = two_factor(hamiltonian_two_factor(3))
    assert len(cycles) == 1 and len(cycles[0]) == 6


def test_two_factor_two_four_cycles():
    # quotient permutation (0 1)(2 3): two cycles, traced explicitly
    tf = TwoFactorSpec(4, (0, 1, 2, 3), (1, 0, 3, 2))
    cycles = two_factor(tf)
    assert sorted(len(c) for c in cycles) == [4, 4]
    edges = {frozenset((c[i], c[(i + 1) % len(c)])) for c in cycles for i in range(len(c))}
    want = {frozenset((i, 4 + tf.sigma[i])) for i in range(4)} | {
        frozenset((i, 4 + tf.tau[i])) for i in range(4)
    }
    assert edges == want


def test_two_factor_k2_single_square():
    cycles = two_factor(TwoFactorSpec(2, (0, 1), (1, 0)))
    assert len(cycles) == 1 and len(cycles[0]) == 4


def test_two_factor_cycles_partition_vertices():
    rng = random.Random(4)
    for _ in range(30):
        k = rng.randrange(3, 9)
        sigma = list(range(k))
        rng.shuffle(sigma)
        while True:
            tau = list(range(k))
            rng.shuffle(tau)
            if all(s != t for s, t in zip(sigma, tau)):
                break
        cycles = two_factor(TwoFactorSpec(k, tuple(sigma), tuple(tau)))
        seen = [v for c in cycles for v in c]
        assert sorted(seen) == list(range(2 * k))
        assert all(len(c) % 2 == 0 and len(c) >= 4 for c in cycles)


def test_two_factor_rejects_agreement():
    with pytest.raises(DerangementViolation):
        TwoFactorSpec(3, (0, 1, 2), (0, 2, 1))
    with pytest.raises(ValueError, match="tau is not a permutation"):
        TwoFactorSpec(3, (0, 1, 2), (1, 1, 0))


def test_matching_decomposition_k3():
    tf = hamiltonian_two_factor(3)
    ms = matching_decomposition(3, tf)
    assert len(ms) == 1 and len(ms[0]) == 3
    assert set(ms[0]) == set(itertools.product(range(3), range(3))) - tf.edge_set()


@pytest.mark.parametrize("k", [4, 5, 7])
def test_matching_decomposition_covers_remainder(k):
    tf = hamiltonian_two_factor(k)
    ms = matching_decomposition(k, tf)
    assert len(ms) == k - 2
    seen = set()
    for matching in ms:
        assert len(matching) == k
        assert len({i for i, _ in matching}) == k  # perfect on X
        assert len({j for _, j in matching}) == k  # perfect on Y
        for e in matching:
            assert e not in seen
            seen.add(e)
    assert seen == set(itertools.product(range(k), range(k))) - tf.edge_set()
    assert len(seen) == k * k - 2 * k


# --- the general constructions --------------------------------------------


def test_c1_defaults_k3():
    s = build(ConstructionSpec("c1", 3))
    assert (s.n, s.m) == (10, 10)
    assert_sail_free(s)


def test_c1_rejects_small_k():
    with pytest.raises(KTooSmall):
        build(ConstructionSpec("c1", 2))


def test_c1_k5_edge_count_and_freedom():
    s = build(ConstructionSpec("c1", 5))
    assert (s.n, s.m) == (16, 26)
    assert_sail_free(s)


def test_c1_no_long_cycle():
    tf = TwoFactorSpec(4, (0, 1, 2, 3), (1, 0, 3, 2))  # two 4-cycles only
    with pytest.raises(NoLongCycle):
        build(ConstructionSpec("c1", 4, two_factor=tf))


def test_c1_bad_special_edges():
    with pytest.raises(BadSpecialEdges):
        build(ConstructionSpec("c1", 3, special_edge_offsets=(0, 1)))  # share c'
    with pytest.raises(BadSpecialEdges):
        build(ConstructionSpec("c1", 3, special_edge_offsets=(0, 2)))  # chord hits cycle
    with pytest.raises(BadSpecialEdges):
        build(ConstructionSpec("c1", 3, special_edge_offsets=(0, 99)))
    for offsets in ((0,), (0, 3, 5)):
        with pytest.raises(BadSpecialEdges, match="needs two cycle positions"):
            ConstructionSpec("c1", 3, special_edge_offsets=offsets)


def test_c1_edge_count_identity_by_parts():
    for k in range(3, 9):
        _, details = build_resolved(ConstructionSpec("c1", k))
        colored = details["coloring"]
        assert len(colored) == 2 * k - 1  # all of B0 except a'c'
        assert sum(1 for *_, col in colored if col == "b") == 1
        assert len(details["matchings"]) == k - 2
        assert (2 * k - 1) + k * (k - 2) + 2 == k * k + 1


def test_c1_structural_claim_on_special_vertices():
    # no edge may contain both x' and a, or both y' and c
    rng = random.Random(31)
    for k in (3, 4, 5, 6):
        for _ in range(20):
            s, d = build_resolved(ConstructionSpec("c1", k, seed=rng.randrange(10 ** 9)))
            xp, yp = d["x_prime"], d["y_prime"]
            za, _, zc = d["abc"]
            for e in s.edges:
                assert not (xp in e and za in e), (k, tuple(e))
                assert not (yp in e and zc in e), (k, tuple(e))


def test_c1_coloring_is_proper_and_anchored():
    for k in (3, 4, 5, 8):
        s, d = build_resolved(ConstructionSpec("c1", k))
        by_vertex = {}
        for u, w, col in d["coloring"]:
            if col == "b":
                continue
            by_vertex.setdefault(u, []).append(col)
            by_vertex.setdefault(w, []).append(col)
        for v, cols in by_vertex.items():
            assert len(cols) == len(set(cols)), f"vertex {v} sees {cols}"
        anchored = {col for u, w, col in d["coloring"] if d["a_prime"] in (u, w)}
        assert anchored == {"a"}
        anchored_c = {col for u, w, col in d["coloring"] if d["c_prime"] in (u, w)}
        assert anchored_c == {"c"}


def test_c2_defaults_k3():
    s = build(ConstructionSpec("c2", 3))
    assert (s.n, s.m) == (10, 10)
    assert_sail_free(s)


def test_c2_divisibility():
    with pytest.raises(DivisibilityViolation):
        build(ConstructionSpec("c2", 4))
    with pytest.raises(KTooSmall):
        build(ConstructionSpec("c2", 2))


def test_c2_k6():
    s = build(ConstructionSpec("c2", 6))
    assert (s.n, s.m) == (19, 37)
    assert_sail_free(s)


def test_c2_bad_cycle_lengths():
    # a 2-factor of K_{6,6} with two 6-cycles: 6 is not divisible by 6? It is.
    # use k=6 with quotient cycles of sizes 2+4: cycles 4 and 8, both bad.
    tf = TwoFactorSpec(6, (0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2))
    with pytest.raises(BadCycleLengths):
        build(ConstructionSpec("c2", 6, two_factor=tf))


def test_c2_every_three_consecutive_edges_distinct():
    for k, seed in [(3, None), (6, 5), (9, 1)]:
        s, d = build_resolved(ConstructionSpec("c2", k, seed=seed))
        for cyc, (rot, flip) in zip(d["cycles"], d["cycle_colorings"]):
            length = len(cyc)
            colors = {}
            for u, w, col in d["coloring"]:
                colors[frozenset((u, w))] = col
            seq = [colors[frozenset((cyc[r], cyc[(r + 1) % length]))] for r in range(length)]
            for r in range(length):
                window = {seq[r], seq[(r + 1) % length], seq[(r + 2) % length]}
                assert window == {"a", "b", "c"}


def test_c3_default_edge_list():
    s = build(ConstructionSpec("c3", 3))
    want = make_system(10, [
        (0, 3, 9), (1, 4, 9), (2, 5, 9),       # matching to v
        (0, 1, 6), (3, 4, 6),                  # M_a
        (1, 2, 7), (4, 5, 7),                  # M_b
        (0, 2, 8), (3, 5, 8),                  # M_c
        (6, 7, 8),
    ])
    assert s == want
    assert_sail_free(s)


def test_c3_any_triangle_colorings_valid():
    for px in itertools.permutations("abc"):
        for py in itertools.permutations("abc"):
            s = build(ConstructionSpec("c3", 3, triangle_perms=("".join(px), "".join(py))))
            assert s.m == 10
            assert_sail_free(s)


def test_c3_bad_assignment():
    with pytest.raises(BadColorAssignment):
        build(ConstructionSpec("c3", 3, triangle_perms=("aab", "abc")))
    for perms in (("abc",), ("abc", "abc", "abc")):
        with pytest.raises(BadColorAssignment, match="needs two triangle permutations"):
            ConstructionSpec("c3", 3, triangle_perms=perms)


def test_c4_variant1_edge_list():
    s = build(ConstructionSpec("c4", 3, mv_variant=1))
    want = make_system(10, [
        (3, 4, 6), (0, 1, 6),        # M_a + a
        (1, 2, 7),                   # M_b + b
        (3, 5, 8), (0, 2, 8),        # M_c + c
        (0, 3, 9), (1, 4, 9), (2, 5, 9),  # M_v + v
        (5, 6, 7),                   # a b y3
        (4, 7, 8),                   # b c y2
    ])
    assert s == want


def test_c4_all_variants_sail_free():
    for v in (1, 2, 3):
        s = build(ConstructionSpec("c4", 3, mv_variant=v))
        assert s.m == 10
        assert_sail_free(s)


def test_c4_bad_variant():
    with pytest.raises(BadVariant):
        build(ConstructionSpec("c4", 3, mv_variant=4))


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec("c1", 3, mv_variant=1)  # parameter from another variant
    with pytest.raises(ValueError):
        ConstructionSpec("c3", 4)
    with pytest.raises(ValueError):
        ConstructionSpec("nope", 3)
    with pytest.raises(ValueError, match="two_factor.k disagrees"):
        build(ConstructionSpec("c1", 4, two_factor=hamiltonian_two_factor(3)))


def test_spec_rejects_k_below_the_variants_least():
    # the spec itself checks each variant's least k, before any build
    for variant, k, least in (("c1", 2, 3), ("c2", 2, 3), ("td", 0, 1), ("truncated", 0, 1)):
        with pytest.raises(KTooSmall, match=f"construction {variant} needs k >= {least}, got {k}"):
            ConstructionSpec(variant, k)
    for variant in ("c3", "c4"):
        for k in (2, 4):
            with pytest.raises(ValueError, match="defined only for k=3"):
                ConstructionSpec(variant, k)


# --- designs ----------------------------------------------------------------


def test_transversal_design_k1():
    td = transversal_design(1)
    assert (td.n, td.m) == (3, 1)
    with pytest.raises(KTooSmall):
        transversal_design(0)


def test_transversal_design_k2_cross_pairs():
    td = transversal_design(2)
    assert (td.n, td.m) == (6, 4)
    groups = [set(range(2)), set(range(2, 4)), set(range(4, 6))]
    cover = {}
    for e in td.edges:
        for u, w in itertools.combinations(e, 2):
            cover[(u, w)] = cover.get((u, w), 0) + 1
    cross = [
        (u, w)
        for gi, gj in itertools.combinations(range(3), 2)
        for u in groups[gi]
        for w in groups[gj]
    ]
    assert len(cross) == 12
    for pair in cross:
        assert cover.get(tuple(sorted(pair)), 0) == 1


def test_transversal_design_k3():
    td = transversal_design(3)
    assert (td.n, td.m) == (9, 9)
    assert_sail_free(td)


def test_transversal_design_bad_latin():
    with pytest.raises(InvalidLatinSquare):
        transversal_design(2, latin=((0, 1), (0, 1)))
    with pytest.raises(InvalidLatinSquare):
        transversal_design(2, latin=((0, 0), (1, 1)))
    with pytest.raises(InvalidLatinSquare, match="expected a 3x3 square"):
        transversal_design(3, latin=((0, 1), (1, 0)))


def test_truncated_design_values():
    t1 = truncated_design(1)
    assert (t1.n, t1.m) == (5, 2)
    t2 = truncated_design(2)
    assert (t2.n, t2.m) == (8, 6)
    t4 = truncated_design(4)
    assert (t4.n, t4.m) == (14, 20)
    assert_sail_free(t4)
    with pytest.raises(KTooSmall):
        truncated_design(0)


# --- extremal structure (lemma suite) ---------------------------------------


def test_extremal_instances_have_max_degree_k_and_deficiency():
    rng = random.Random(8)
    cases = [("c1", k) for k in range(3, 9)] + [("c2", 3), ("c2", 6), ("c3", 3), ("c4", 3)]
    for variant, k in cases:
        s = build(ConstructionSpec(variant, k, seed=rng.randrange(10 ** 9)))
        assert max(s.degrees()) == k
        assert deficiency(s, range(s.n), k) == k - 3


def test_c2_color_union_is_cycles_of_length_divisible_by_3():
    for k in (3, 6, 9):
        s = build(ConstructionSpec("c2", k))
        z1 = 2 * k
        ana = neighborhood_partition(s, z1, k)
        za, zb, zc = 3 * k - 2, 3 * k - 1, 3 * k
        assert ana.e3 == ((za, zb, zc),)
        union = set()
        for w in (za, zb, zc):
            union |= ana.m_family[w]
        # walk the union as a graph: every vertex degree 2, cycles length % 3 == 0
        adj = {}
        for u, w in union:
            adj.setdefault(u, []).append(w)
            adj.setdefault(w, []).append(u)
        assert all(len(vs) == 2 for vs in adj.values())
        seen = set()
        for start in adj:
            if start in seen:
                continue
            length = 0
            prev, cur = None, start
            while True:
                seen.add(cur)
                length += 1
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                if cur == start:
                    break
            assert length % 3 == 0 and length >= 6


def test_c1_offset_sweep_valid_positions():
    cyc6 = two_factor(hamiltonian_two_factor(3))[0]
    offsets = _long_cycle_offsets(cyc6, 3)
    # on a 6-cycle the only valid partner is the opposite edge
    assert offsets == [(p, (p + 3) % 6) for p in range(6)]
    for _, s in c1_offset_sweep(4):
        assert s.m == 17
        assert_sail_free(s)


def test_k3_full_sweep_all_valid():
    sweep = k3_full_sweep()
    assert len(sweep) == 183
    for label, s in sweep:
        assert (s.n, s.m) == (10, 10), label
        assert find_sail_fast(s) is None, label


# --- pinned seeded outputs ----------------------------------------------------

_PINNED_CASES = (
    [("c1", k) for k in (3, 4, 5, 6)] + [("c2", 3), ("c2", 6), ("c3", 3), ("c4", 3)]
    + [("td", k) for k in (1, 2, 3, 4)] + [("truncated", k) for k in (1, 2, 3, 4)]
)


def test_seeded_outputs_are_pinned():
    # the rng draw order decides every seeded output, the inputs of the canon
    # benchmark included; the digest covers the edges and the details, whose
    # key order `construct` prints, less the designs' Latin square, which
    # must instead rebuild its system, and the seed, recorded when given
    h = hashlib.sha256()
    for variant, k in _PINNED_CASES:
        for seed in [None] + list(range(20)):
            system, details = build_resolved(ConstructionSpec(variant, k, seed=seed))
            assert details.pop("seed", None) == seed
            latin = details.pop("latin", None)
            if variant == "td":
                assert system == transversal_design(k, latin=latin)
            elif variant == "truncated":
                design = transversal_design(k + 1, latin=latin)
                gone = 3 * k + 2
                assert system == make_system(gone, [e for e in design.edges if gone not in e])
            h.update(f"{variant} {k} {seed} {[list(e) for e in system.edges]} ".encode())
            h.update(json.dumps(details).encode() + b"\n")
    assert h.hexdigest() == (
        "ce50d79dbcc630e5a7b65f280193b64c9630d65cd49428f4ffb1ddc0dec1a070"
    )
    assert [tuple(e) for e in build(ConstructionSpec("c1", 4, seed=9)).edges] == [
        (0, 4, 12), (0, 5, 8), (0, 6, 9), (0, 7, 10), (1, 4, 10), (1, 5, 9),
        (1, 7, 8), (1, 11, 12), (2, 4, 8), (2, 5, 10), (2, 6, 12), (2, 7, 9),
        (3, 4, 9), (3, 5, 12), (3, 6, 8), (3, 7, 11), (6, 10, 11),
    ]
