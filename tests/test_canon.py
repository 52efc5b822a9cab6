import dataclasses
import itertools
import random

import sailfree.canon as canon_module
from sailfree.canon import (
    CanonicalForm,
    _pack,
    _search,
    canonical_form,
    is_isomorphic,
    isomorphism,
)
from sailfree.constructions import (
    ConstructionSpec,
    build,
    c1_offset_sweep,
    transversal_design,
    truncated_design,
)
from sailfree.core import Triple, make_system

from conftest import random_linear_system

FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]

# Canonical bytes of symmetric inputs, as computed by the search without
# automorphism pruning; the pruned search must reproduce them exactly.
# truncated k=3 is there because it is where skipping orbits under
# generators that do not fix the path would show.
PINNED = {
    "truncated-k3": "0b00010200030400050600070801030901050a02040902070a03060a04080a0507"
                    "09060809",
    "td-k4": "0c00010200030400050600070801030901050a01070b02040902060b02080a03060a"
          "03080b04050b04070a050809060709",
    "truncated-k4": "0e00010200030400050600070800090a01030b01050c01070d02040c02060b"
                    "02090d03060d03080c04070b040a0d05080d05090b060a0c07090c080a0b",
    "c1-k4": "0d00010200030400050600070801030901050a01070b02040a02060902080c03060a"
          "03070c04050c04090b050809060b0c080a0b",
}


def relabeled(system, perm):
    return make_system(system.n, [[perm[v] for v in e] for e in system.edges])


def brute_min_edge_list(system):
    best = None
    for perm in itertools.permutations(range(system.n)):
        lst = sorted(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in system.edges)
        if best is None or lst < best:
            best = lst
    return best


def test_single_edge_normalizes_to_front():
    f = canonical_form(make_system(10, [(3, 7, 9)]))
    assert f.edges == (Triple(0, 1, 2),)
    assert f.n == 10


def test_matches_brute_force_minimum_small_n():
    rng = random.Random(20)
    for _ in range(60):
        s = random_linear_system(rng.randrange(4, 8), rng, tries=8)
        if s.m == 0:
            continue
        got = [tuple(e) for e in canonical_form(s).edges]
        assert got == brute_min_edge_list(s)


def assert_labeling_verified(system, form):
    image = {tuple(sorted((form.labeling[a], form.labeling[b], form.labeling[c])))
             for a, b, c in system.edges}
    assert image == {tuple(e) for e in form.edges}
    assert sorted(form.labeling) == list(range(system.n))


def test_matches_brute_force_on_symmetric_systems(sail7, quad6):
    # inputs with many automorphisms, where orbit pruning cuts the most;
    # the isolated-vertex cases exercise the labels given after the edges
    rng = random.Random(7)
    systems = [make_system(7, FANO), sail7, quad6, transversal_design(2),
               make_system(8, [(2, 5, 7)]),
               make_system(8, [(1, 3, 6), (0, 4, 7)]),
               make_system(8, [(0, 1, 2), (0, 3, 4), (5, 6, 7)])]
    for s in systems:
        expected = brute_min_edge_list(s)
        for _ in range(4):
            perm = list(range(s.n))
            rng.shuffle(perm)
            t = relabeled(s, perm)
            f = canonical_form(t)
            assert [tuple(e) for e in f.edges] == expected
            assert_labeling_verified(t, f)


def test_pinned_bytes_under_relabeling():
    rng = random.Random(404)
    systems = {"truncated-k3": truncated_design(3), "td-k4": transversal_design(4),
               "truncated-k4": truncated_design(4), "c1-k4": build(ConstructionSpec("c1", 4))}
    for name, s in systems.items():
        for _ in range(20):
            perm = list(range(s.n))
            rng.shuffle(perm)
            t = relabeled(s, perm)
            f = canonical_form(t)
            assert f.to_bytes().hex() == PINNED[name], name
            assert_labeling_verified(t, f)


def test_golden_bytes():
    sail7 = make_system(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)])
    assert canonical_form(sail7).to_bytes().hex() == "07000102000304000506010305"
    quad6 = make_system(6, [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])
    assert canonical_form(quad6).to_bytes().hex() == "06000102000304010305020405"
    empty = make_system(5, [])
    assert canonical_form(empty).to_bytes() == bytes([5])


def test_relabeling_invariance_on_generator_outputs():
    rng = random.Random(12)
    systems = [build(ConstructionSpec(v, 3)) for v in ("c1", "c2", "c3", "c4")]
    systems.append(transversal_design(3))
    for s in systems:
        base = canonical_form(s)
        for _ in range(25):
            perm = list(range(s.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(s, perm)) == base


def test_idempotence():
    for v in ("c1", "c2", "c3", "c4"):
        s = build(ConstructionSpec(v, 3))
        f = canonical_form(s)
        again = canonical_form(f.system())
        assert again.edges == f.edges
        assert again.labeling == tuple(range(s.n))


def test_labeling_is_a_verified_isomorphism():
    rng = random.Random(44)
    s = build(ConstructionSpec("c1", 4))
    assert_labeling_verified(s, canonical_form(s))


def test_is_isomorphic_basics(sail7, quad6):
    assert is_isomorphic(sail7, sail7)
    assert not is_isomorphic(sail7, make_system(7, [(0, 1, 2)]))
    assert not is_isomorphic(quad6, make_system(6, []))


def test_all_order3_latin_squares_give_isomorphic_designs():
    cyclic = transversal_design(3)
    other = transversal_design(3, latin=((0, 2, 1), (1, 0, 2), (2, 1, 0)))
    assert is_isomorphic(cyclic, other)
    rng = random.Random(3)
    for seed in range(10):
        assert is_isomorphic(cyclic, transversal_design(3, seed=seed))


def test_isomorphism_extraction_and_verification():
    rng = random.Random(91)
    s = build(ConstructionSpec("c2", 3))
    perm = list(range(s.n))
    rng.shuffle(perm)
    t = relabeled(s, perm)
    mapping = isomorphism(s, t)
    assert mapping is not None
    carried = {tuple(sorted((mapping[a], mapping[b], mapping[c]))) for a, b, c in s.edges}
    assert carried == {tuple(e) for e in t.edges}
    assert isomorphism(s, make_system(s.n, [(0, 1, 2)])) is None


def test_degree_sequence_necessary_condition():
    rng = random.Random(17)
    for _ in range(40):
        s = random_linear_system(8, rng)
        perm = list(range(8))
        rng.shuffle(perm)
        t = relabeled(s, perm)
        assert sorted(s.degrees()) == sorted(t.degrees())
        assert is_isomorphic(s, t)


def test_c1_classes_at_k4_and_k5():
    # All special-edge choices at k=4 land in one class (see the acceptance
    # suite for the exhaustive version of this finding); from k=5 on, the
    # matching decomposition genuinely branches into non-isomorphic systems.
    forms4 = {canonical_form(s) for _, s in c1_offset_sweep(4)}
    assert len(forms4) == 1
    forms5 = {canonical_form(build(ConstructionSpec("c1", 5, seed=seed))).to_bytes()
              for seed in range(6)}
    assert len(forms5) >= 2


def test_c4_variants_split_into_two_classes():
    # empirical answer to whether the three crossing-matching variants are
    # pairwise non-isomorphic: they are not; variants 2 and 3 coincide
    forms = {}
    for v in (1, 2, 3):
        f = canonical_form(build(ConstructionSpec("c4", 3, mv_variant=v)))
        forms.setdefault(f.to_bytes(), []).append(v)
    assert len(forms) == 2
    assert sorted(map(sorted, forms.values())) == [[1], [2, 3]]


def test_canonical_form_equality_semantics():
    a = canonical_form(build(ConstructionSpec("c3", 3)))
    b = canonical_form(build(ConstructionSpec("c3", 3, triangle_perms=("abc", "abc"))))
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, CanonicalForm)


def _rescoring_min_labeling(n, edges):
    """The labeling search as it was before children were scored by
    patching one bound list per node: every candidate is labeled in turn
    and the whole edge list rescored and sorted.  It is the reference for
    the search: the patched scoring must give the same options in the same
    order, so the same tree, list and labeling.
    """
    if not edges:
        return [], list(range(n))
    everts = [tuple(e) for e in edges]
    third = {}
    for (a, b, c) in everts:
        third[a, b] = third[b, a] = c
        third[a, c] = third[c, a] = b
        third[b, c] = third[c, b] = a
    on_edge = sorted({v for e in everts for v in e})
    isolated = sorted(set(range(n)).difference(on_edge))
    u = len(on_edge)
    label = [-1] * n
    path = []
    best = None
    best_label = []
    gens = []

    def scored(depth):
        out = []
        for (a, b, c) in everts:
            la, lb, lc = sorted((label[a], label[b], label[c]))
            if la >= 0:
                out.append((la << 12) | (lb << 6) | lc)
            elif lb >= 0:
                out.append((lb << 12) | (lc << 6) | depth)
            elif lc >= 0:
                out.append((lc << 12) | (depth << 6) | depth + 1)
            else:
                out.append((depth << 12) | ((depth + 1) << 6) | depth + 2)
        out.sort()
        return out

    def leaf(cur):
        nonlocal best, best_label
        full = label[:]
        for i, v in enumerate(isolated):
            full[v] = u + i
        if best is None or cur < best:
            best, best_label = cur, full
            return u
        inv = [0] * n
        for v, lab in enumerate(best_label):
            inv[lab] = v
        gens.append([inv[lab] for lab in full])
        d = 0
        while inv[d] == path[d]:
            d += 1
        return d

    def find(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def dfs(depth):
        if depth == 0:
            cands = on_edge
        elif depth == 1:
            cands = [v for v in on_edge if (path[0], v) in third]
        elif depth == 2:
            cands = [third[path[0], path[1]]]
        else:
            cands = [v for v in on_edge if label[v] == -1]
        options = []
        for v in cands:
            label[v] = depth
            lb = scored(depth + 1)
            label[v] = -1
            if best is None or lb <= best:
                options.append((lb, v))
        options.sort()
        explored = []
        orbit = []
        used = 0
        for lb, v in options:
            if best is not None and lb > best:
                break
            if explored and used < len(gens):
                for g in gens[used:]:
                    if all(g[p] == p for p in path):
                        orbit = orbit or list(range(n))
                        for x in range(n):
                            rx, ry = find(orbit, x), find(orbit, g[x])
                            if rx != ry:
                                orbit[rx] = ry
                used = len(gens)
            if orbit and any(find(orbit, v) == find(orbit, w) for w in explored):
                continue
            label[v] = depth
            path.append(v)
            resume = leaf(lb) if depth + 1 == u else dfs(depth + 1)
            path.pop()
            label[v] = -1
            if resume < depth:
                return resume
            explored.append(v)
        return depth

    dfs(0)
    return best, best_label


def test_patched_scoring_matches_full_rescoring():
    rng = random.Random(1212)
    systems = [random_linear_system(rng.randrange(4, 13), rng) for _ in range(80)]
    pinned = [truncated_design(3), transversal_design(4), truncated_design(4),
              build(ConstructionSpec("c1", 4))]
    for s in pinned:
        for _ in range(3):
            perm = list(range(s.n))
            rng.shuffle(perm)
            systems.append(relabeled(s, perm))
    # the canon benchmark's inputs: c1..c4 at k=3, c1/td/truncated at k=4
    for variant, k in (("c1", 3), ("c2", 3), ("c3", 3), ("c4", 3),
                       ("c1", 4), ("td", 4), ("truncated", 4)):
        systems.append(build(ConstructionSpec(variant, k, seed=rng.randrange(1 << 30))))
    for s in systems:
        assert _search(s.n, s.edges)[:2] == _rescoring_min_labeling(s.n, s.edges), s


def test_every_vertex_on_an_edge_at_n64():
    # u = 64 labels: the last nodes' base lists hold entries whose
    # placeholder 64 spills out of its 6-bit field, and every child must
    # patch them out (module docstring)
    edges = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(31)] + [(62, 63, 0)]
    s = make_system(64, edges)
    f = canonical_form(s)
    # computed by the full-rescoring search, whose lists never spill
    assert f.to_bytes().hex() == (
        "4000010200030401050603070805090a070b0c090d0e0b0f100d11120f1314111516"
        "13171815191a171b1c191d1e1b1f201d21221f232421252623272825292a272b2c29"
        "2d2e2b2f302d31322f333431353633373835393a373b3c393d3e3b3d3f")
    assert_labeling_verified(s, f)
    rng = random.Random(64)
    for _ in range(5):
        perm = list(range(64))
        rng.shuffle(perm)
        t = relabeled(s, perm)
        g = canonical_form(t)
        assert g == f
        assert_labeling_verified(t, g)


KLEIN4 = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
NONCYCLIC5 = ((0, 1, 2, 3, 4), (1, 0, 4, 2, 3), (2, 3, 0, 4, 1), (3, 4, 1, 0, 2),
              (4, 2, 3, 1, 0))


def _two_forms_isomorphism(h1, h2):
    """isomorphism as it was before h2 was matched against h1's canonical
    list: both canonical forms in full, compared.  It is the reference for
    the targeted search, which must return the same bijection or None.
    """
    if h1.n != h2.n or h1.m != h2.m or sorted(h1.degrees()) != sorted(h2.degrees()):
        return None
    f1 = canonical_form(h1)
    f2 = canonical_form(h2)
    if f1 != f2:
        return None
    inv2 = [0] * h2.n
    for v, lab in enumerate(f2.labeling):
        inv2[lab] = v
    return tuple(inv2[f1.labeling[v]] for v in range(h1.n))


def _outcome(h1, h2):
    """How the targeted search of h2 against h1's list ends."""
    f1 = canonical_form(h1)
    found, _, nodes = _search(h2.n, h2.edges, _pack(f1.edges), f1.nodes)
    return "budget" if nodes > f1.nodes else "found" if found is not None else "none"


def test_targeted_isomorphism_matches_two_forms():
    rng = random.Random(1313)
    pairs = []
    # the canon benchmark's inputs, each against relabelings of itself
    for variant, k in (("c1", 3), ("c2", 3), ("c3", 3), ("c4", 3),
                       ("c1", 4), ("td", 4), ("truncated", 4)):
        s = build(ConstructionSpec(variant, k, seed=rng.randrange(1 << 30)))
        for _ in range(2):
            perm = list(range(s.n))
            rng.shuffle(perm)
            pairs.append((s, relabeled(s, perm)))
    # random systems against a relabeling and against an unrelated system,
    # one with the same degree sequence where the pool has one
    sizes = [rng.randrange(4, 15) for _ in range(600)]
    pool = [random_linear_system(n, rng, tries=n) for n in sizes]
    outcomes = set()
    for i, s in enumerate(pool[:300]):
        perm = list(range(s.n))
        rng.shuffle(perm)
        pairs.append((s, relabeled(s, perm)))
        key = (s.n, sorted(s.degrees()))
        other = next((t for t in pool[i + 1:] if (t.n, sorted(t.degrees())) == key),
                     pool[i + 300])
        pairs.append((s, other))
        if s.m and key == (other.n, sorted(other.degrees())):
            outcomes.add(_outcome(s, other))
    # isolated vertices: TD(4)s on 14 vertices, moved by relabelings of all
    # 14; and two empty systems
    cyclic, klein = (make_system(14, transversal_design(4, latin=latin).edges)
                     for latin in (None, KLEIN4))
    for t in (cyclic, cyclic, klein):
        perm = list(range(14))
        rng.shuffle(perm)
        pairs.append((cyclic, relabeled(t, perm)))
    pairs.append((make_system(9, [(0, 4, 8), (1, 4, 6)]), make_system(9, [(2, 3, 7), (3, 5, 6)])))
    pairs.append((make_system(6, []), make_system(6, [])))
    for a, b in pairs:
        for h1, h2 in ((a, b), (b, a)):
            assert isomorphism(h1, h2) == _two_forms_isomorphism(h1, h2), (h1, h2)
    # the unrelated pairs end the targeted search in each of its three ways
    assert outcomes == {"found", "none", "budget"}


def test_nonisomorphic_pairs_with_equal_degrees(monkeypatch):
    # the degree pre-check passes, so the targeted search must refute the
    # match, or run out of its budget and fall back to the ceiling search
    # of h2 under h1's list; either way h1's form is the only one computed
    pairs = [(transversal_design(4), transversal_design(4, latin=KLEIN4)),
             (transversal_design(5), transversal_design(5, latin=NONCYCLIC5)),
             (build(ConstructionSpec("c1", 3)), build(ConstructionSpec("c2", 3))),
             (build(ConstructionSpec("c4", 3, mv_variant=1)),
              build(ConstructionSpec("c4", 3, mv_variant=2)))]
    calls = []

    def counting(system):
        calls.append(system)
        return canonical_form(system)

    ceilings = []

    def searching(n, edges, *args, ceiling=None):
        if ceiling is not None:
            ceilings.append(edges)
        return _search(n, edges, *args, ceiling=ceiling)

    monkeypatch.setattr(canon_module, "canonical_form", counting)
    monkeypatch.setattr(canon_module, "_search", searching)
    fallbacks = 0
    for a, b in pairs:
        assert sorted(a.degrees()) == sorted(b.degrees())
        for h1, h2 in ((a, b), (b, a)):
            calls.clear()
            ceilings.clear()
            assert not is_isomorphic(h1, h2)
            assert calls == [h1]
            fallbacks += ceilings == [h2.edges]
    assert fallbacks > 0


def test_ceiling_search_accepts_exactly_the_minimal_lists():
    # a system's own list as the ceiling: a labeling comes back exactly when
    # that list is the brute-force minimum, and it is canonical_form's
    rng = random.Random(2626)
    for _ in range(40):
        s = random_linear_system(rng.randrange(4, 8), rng, tries=8)
        if s.m == 0:
            continue
        minimal = brute_min_edge_list(s)
        variants = [s, canonical_form(s).system()]
        for _ in range(2):
            perm = list(range(s.n))
            rng.shuffle(perm)
            variants.append(relabeled(s, perm))
        for t in variants:
            own = _pack(t.edges)
            found, labeling, _ = _search(t.n, t.edges, ceiling=own)
            if [tuple(e) for e in t.edges] == minimal:
                assert (found, labeling) == (own, list(canonical_form(t).labeling)), t
            else:
                assert (found, labeling) == (None, []), t


def test_ceiling_search_returns_canonical_forms_labeling():
    rng = random.Random(2727)
    systems = [random_linear_system(rng.randrange(6, 13), rng) for _ in range(300)]
    systems += [build(ConstructionSpec(variant, k, seed=rng.randrange(1 << 30)))
                for variant, k in (("c1", 3), ("c2", 3), ("c3", 3), ("c4", 3),
                                   ("c1", 4), ("td", 4), ("truncated", 4))]
    # an accepting search is canonical_form's search, node count included,
    # and a rejecting one is that search stopped early
    rejected = 0
    for s in systems:
        f = canonical_form(s)
        ceiling = _pack(f.edges)
        g = f.system()
        # a canonical form's system under its own list
        own = canonical_form(g)
        assert _search(g.n, g.edges, ceiling=ceiling) == (ceiling, list(own.labeling), own.nodes)
        # any member of the class under the class's list, as in isomorphism
        assert _search(s.n, s.edges, ceiling=ceiling) == (ceiling, list(f.labeling), f.nodes)
        if s.edges != f.edges:
            found, labeling, nodes = _search(s.n, s.edges, ceiling=_pack(s.edges))
            assert (found, labeling) == (None, []) and nodes <= f.nodes, s
            rejected += 1
    assert rejected >= 250


def test_isomorphism_falls_back_to_the_ceiling_search(monkeypatch):
    # h1's form reports no nodes, so the targeted search overruns its budget
    # at the first node; the ceiling search of h2 under h1's list must then
    # give the two forms' answer and bijection, with no second form, in at
    # most the nodes of h2's form
    calls = []
    ceilings = []

    def starved(system):
        calls.append(system)
        return dataclasses.replace(canonical_form(system), nodes=0)

    def searching(n, edges, *args, ceiling=None):
        found = _search(n, edges, *args, ceiling=ceiling)
        if ceiling is not None:
            ceilings.append(found[2])
        return found

    monkeypatch.setattr(canon_module, "canonical_form", starved)
    monkeypatch.setattr(canon_module, "_search", searching)
    rng = random.Random(2828)
    systems = [build(ConstructionSpec("c1", 3)), build(ConstructionSpec("c4", 3)),
               truncated_design(3), transversal_design(4)]
    systems += [random_linear_system(rng.randrange(6, 13), rng) for _ in range(40)]
    pairs = []
    for s in systems:
        perm = list(range(s.n))
        rng.shuffle(perm)
        pairs.append((s, relabeled(s, perm)))
    pairs += [(transversal_design(4), transversal_design(4, latin=KLEIN4)),
              (build(ConstructionSpec("c1", 3)), build(ConstructionSpec("c2", 3)))]
    for a, b in pairs:
        for h1, h2 in ((a, b), (b, a)):
            calls.clear()
            ceilings.clear()
            assert isomorphism(h1, h2) == _two_forms_isomorphism(h1, h2), (h1, h2)
            assert calls == [h1], (h1, h2)
            assert len(ceilings) == 1 and ceilings[0] <= canonical_form(h2).nodes, (h1, h2)
