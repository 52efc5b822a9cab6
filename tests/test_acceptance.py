"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 8 (the full classification at n=10) takes a fraction of a
second on one core under the search's star symmetry break; the same
classification at n=13 runs nightly.
"""

import itertools
import random

import pytest

from sailfree.canon import canonical_form
from sailfree.cli import main as cli_main
from sailfree.constructions import (
    ConstructionSpec,
    build,
    c1_offset_sweep,
    k3_full_sweep,
    transversal_design,
    truncated_design,
)
from sailfree.core import Triple, deficiency, make_system, neighborhood_partition
from sailfree.formats import serialize_system
from sailfree.sails import SailGuard, find_sail_bruteforce, find_sail_fast
from sailfree.search import enumerate_extremal, max_sail_free

from conftest import SAIL7_EDGES, random_linear_system


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {tag} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def seeded_extremal_specs(seeds_per_case=100):
    for k in range(3, 11):
        yield from (ConstructionSpec("c1", k, seed=s) for s in range(seeds_per_case))
        if k % 3 == 0:
            yield from (ConstructionSpec("c2", k, seed=s) for s in range(seeds_per_case))
    yield from (ConstructionSpec("c3", 3, seed=s) for s in range(seeds_per_case))
    yield from (ConstructionSpec("c4", 3, seed=s) for s in range(seeds_per_case))


def test_criterion_1_generator_validity_sweep():
    checked = 0
    for spec in seeded_extremal_specs(100):
        system = build(spec)  # linearity is validated at construction
        k = spec.k
        assert system.n == 3 * k + 1, spec
        assert system.m == k * k + 1, spec
        assert find_sail_fast(system) is None, spec
        assert find_sail_bruteforce(system) is None, spec
        checked += 1
    report(1, True, f"{checked} seeded builds, all linear, sail-free, m=k^2+1")


def test_criterion_2_baseline_designs():
    for k in range(1, 11):
        td = transversal_design(k)
        assert (td.n, td.m) == (3 * k, k * k)
        cover = {}
        for e in td.edges:
            for u, w in itertools.combinations(e, 2):
                cover[(u, w)] = cover.get((u, w), 0) + 1
        groups = [range(k), range(k, 2 * k), range(2 * k, 3 * k)]
        for gi, gj in itertools.combinations(range(3), 2):
            for u in groups[gi]:
                for w in groups[gj]:
                    assert cover.get((u, w), 0) == 1, (k, u, w)
        assert find_sail_fast(td) is None
        assert find_sail_bruteforce(td) is None

        tr = truncated_design(k)
        assert (tr.n, tr.m) == (3 * k + 2, k * k + k)
        assert find_sail_fast(tr) is None
        assert find_sail_bruteforce(tr) is None
    report(2, True, "transversal and truncated designs k=1..10")


def test_criterion_3_exhaustive_values():
    want = {4: 1, 5: 2, 6: 4, 8: 6, 9: 9, 10: 10}
    got = {}
    for n, value in want.items():
        r = max_sail_free(n)
        assert r.exhausted, f"n={n} not exhausted"
        got[n] = r.max_edges
    report(3, got == want, f"{got}")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(424242)
    both = {True: 0, False: 0}
    for _ in range(1000):
        n = rng.randrange(5, 10)
        s = random_linear_system(n, rng)
        fast = find_sail_fast(s) is not None
        brute = find_sail_bruteforce(s) is not None
        assert fast == brute, s.edges
        both[fast] += 1
    report(4, both[True] > 0 and both[False] > 0,
           f"1000 systems agree ({both[True]} with a sail, {both[False]} without)")


def test_criterion_5_guard_soundness_fuzz():
    rng = random.Random(5555)
    sequences = 100_000
    ops = 0
    for _ in range(sequences):
        n = rng.randrange(4, 9)
        guard = SailGuard(n)
        for _ in range(rng.randrange(4, 17)):
            if guard.edges and rng.random() < 0.3:
                guard.pop()
            else:
                guard.push(Triple.of(rng.sample(range(n), 3)))
            ops += 1
            rebuilt = SailGuard(n)
            for t in guard.edges:
                assert rebuilt.push(t).accepted  # accepted set replays cleanly
            assert rebuilt.fingerprint() == guard.fingerprint()
        system = guard.as_system()  # linear by validation
        assert find_sail_bruteforce(system) is None
    report(5, True, f"{sequences} sequences, {ops} operations, state always rebuilds")


def test_criterion_6_extremal_structure_lemmas():
    rng = random.Random(66)
    cases = 0
    for k in range(3, 11):
        variants = ["c1"] + (["c2"] if k % 3 == 0 else []) + (
            ["c3", "c4"] if k == 3 else [])
        for variant in variants:
            for _ in range(5):
                s = build(ConstructionSpec(variant, k, seed=rng.randrange(10 ** 9)))
                assert max(s.degrees()) == k, (variant, k)
                assert deficiency(s, range(s.n), k) == k - 3, (variant, k)
                cases += 1
    # the matching-union structure at an apex whose far side is exactly abc
    for k in (3, 6, 9):
        s = build(ConstructionSpec("c2", k))
        apex = 2 * k  # the first z-vertex: its matching covers all of X and Y
        ana = neighborhood_partition(s, apex, k)
        za, zb, zc = 3 * k - 2, 3 * k - 1, 3 * k
        assert ana.e3 == (Triple(za, zb, zc),)
        assert ana.e2 == ()
        union = ana.m_family[za] | ana.m_family[zb] | ana.m_family[zc]
        adj = {}
        for u, w in union:
            adj.setdefault(u, []).append(w)
            adj.setdefault(w, []).append(u)
        assert all(len(vs) == 2 for vs in adj.values())
        seen = set()
        lengths = []
        for start in adj:
            if start in seen:
                continue
            length, prev, cur = 0, None, start
            while True:
                seen.add(cur)
                length += 1
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                if cur == start:
                    break
            lengths.append(length)
        assert all(l % 3 == 0 for l in lengths), lengths
    report(6, True, f"max degree, deficiency on {cases} instances; "
                    "color-union cycles divisible by 3")


def test_criterion_7_canonicalization_invariance_and_idempotence():
    rng = random.Random(777)
    corpus = [build(ConstructionSpec(v, 3)) for v in ("c1", "c2", "c3", "c4")]
    corpus.append(transversal_design(3))
    corpus.append(build(ConstructionSpec("c1", 4)))
    base = [canonical_form(s) for s in corpus]
    perms_done = 0
    per_system = 1000 // len(corpus) + 1
    for s, f in zip(corpus, base):
        for _ in range(per_system):
            perm = list(range(s.n))
            rng.shuffle(perm)
            relabeled = make_system(s.n, [[perm[v] for v in e] for e in s.edges])
            assert canonical_form(relabeled) == f
            perms_done += 1
        again = canonical_form(f.system())
        assert again.edges == f.edges and again.labeling == tuple(range(s.n))
    assert perms_done >= 1000
    report("7a", True, f"invariance over {perms_done} relabelings; idempotence")


def test_criterion_7_k4_nonisomorphic_c1_instances():
    """Faithful to the stated criterion; expected to fail.

    The criterion asks the k=4 sweep of the general construction to show
    at least two non-isomorphic outputs.  Exhausting the whole parameter
    space at k=4 (every usable 2-factor up to relabeling, every valid
    special-edge pair, every decomposition of the remainder) yields a
    single isomorphism class, each equality backed by an explicit vertex
    bijection, so no sweep can exhibit two.  Non-isomorphic instances
    first appear at k=5 (see test_canon).  Details in the repository
    notes; the check below keeps the criterion's own wording.
    """
    forms = {canonical_form(s).to_bytes() for _, s in c1_offset_sweep(4)}
    for seed in range(10):
        s = build(ConstructionSpec("c1", 4, seed=seed))
        forms.add(canonical_form(s).to_bytes())
    report("7b", len(forms) >= 2,
           f"k=4 sweep produced {len(forms)} class(es); criterion wants >= 2")


def test_criterion_8_classification_at_k3():
    sweep_forms = {canonical_form(s) for _, s in k3_full_sweep()}
    enum_forms = enumerate_extremal(10, 10)
    extra = {f.to_bytes().hex() for f in enum_forms - sweep_forms}
    missing = {f.to_bytes().hex() for f in sweep_forms - enum_forms}
    report(8, enum_forms == sweep_forms,
           f"{len(enum_forms)} enumerated classes vs {len(sweep_forms)} from the "
           f"sweep; extra={extra or '{}'} missing={missing or '{}'}")


@pytest.mark.nightly
def test_classification_at_k4():
    # the paper's n = 3k+1 characterization one size up (about a minute): every
    # 17-edge sail-free system on 13 vertices is c1's
    want = canonical_form(build(ConstructionSpec("c1", 4)))
    assert enumerate_extremal(13, 17) == {want}


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    cases = [
        ("c1", 3, "extremal-3k+1"), ("c2", 3, "extremal-3k+1"),
        ("c3", 3, "extremal-3k+1"), ("c4", 3, "extremal-3k+1"),
        ("td", 3, "td"), ("truncated", 2, "truncated"),
    ]
    for variant, k, role in cases:
        path = tmp_path / f"{variant}.txt"
        assert cli_main(["construct", "--type", variant, "--k", str(k),
                         "--out", str(path)]) == 0
        assert cli_main(["check", str(path), "--role", role]) == 0
        capsys.readouterr()
    sail_path = tmp_path / "sail.txt"
    sail_path.write_text(serialize_system(make_system(7, SAIL7_EDGES)))
    code = cli_main(["check", str(sail_path)])
    out = capsys.readouterr().out
    witness_printed = "apex 0" in out and "(1, 3, 5)" in out
    report(9, code == 1 and witness_printed,
           "round trips exit 0; sail fixture exits 1 with its witness")
