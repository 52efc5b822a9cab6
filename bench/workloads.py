"""The benchmark's workloads: inputs built from a seed, and an oracle per call.

A workload is a list of items.  One round runs every item once; the
benchmark repeats rounds for its time budget.  Each item's check compares
the answer against something the measured code does not compute itself:
the published maxima, the fan-free bound, the definitional sail scan, a
pinned class count, or an explicit edge-set comparison.  README.md in this
directory says why each workload was chosen.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import sailfree
from sailfree import SearchOptions

# (variant, k) inputs of the canon workload, in the order they run.
CANON_INPUTS = (("c1", 3), ("c2", 3), ("c3", 3), ("c4", 3),
                ("c1", 4), ("td", 4), ("truncated", 4))
QUICK_CANON_INPUTS = (("c1", 3),)
# Relabelings drawn per canon input; round r uses relabeling r mod this.
RELABELINGS = 8

# Classes of sail-free linear systems with m edges on n vertices.  (8, 5)
# and (7, 4) were pinned by one-off enumerate_extremal runs with
# wlog_first_edge=False, which agreed with the default (33 s and 0.8 s on
# a 2-core x86-64 machine).  (8, 6) and (9, 9) are single classes checked
# against the designs below.
CLASS_COUNTS = {(7, 4): 2, (8, 5): 3, (8, 6): 1, (9, 9): 1}


@dataclass(frozen=True)
class Item:
    """One timed call and the oracle for its answer."""

    name: str
    run: Callable[[int], object]  # round index -> answer
    check: Callable[[object, int], Optional[str]]  # failure message or None
    search: bool  # True when the call runs the search kernel


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    workers: int


def canon_metric_names() -> list[str]:
    return [f"canon.ms.{v}-k{k}" for v, k in CANON_INPUTS]


def _check_forms(forms, n: int, m: int, expected=None) -> Optional[str]:
    """Every form is a linear, sail-free (n, m) system; the set is as pinned."""
    if len(forms) != CLASS_COUNTS[(n, m)]:
        return f"({n},{m}): {len(forms)} classes, expected {CLASS_COUNTS[(n, m)]}"
    if expected is not None and forms != {expected}:
        return f"({n},{m}): class differs from the design's canonical form"
    for f in forms:
        if f.n != n or len(f.edges) != m:
            return f"({n},{m}): form has n={f.n} m={len(f.edges)}"
        system = sailfree.make_system(n, [tuple(e) for e in f.edges])
        if sailfree.find_sail_bruteforce(system) is not None:
            return f"({n},{m}): form contains a sail"
    return None


def _max_item(n: int, expected: int, workers: int) -> Item:
    def run(_r):
        return sailfree.max_sail_free(n, SearchOptions(worker_count=workers))

    def check(report, _r):
        if report.max_edges != expected or not report.exhausted:
            return (f"max_sail_free({n}) = {report.max_edges}, exhausted="
                    f"{report.exhausted}; expected {expected}, True")
        witness = sailfree.make_system(n, [tuple(e) for e in report.witness.edges])
        if witness.m != expected:
            return f"max_sail_free({n}) witness has {witness.m} edges"
        if sailfree.find_sail_bruteforce(witness) is not None:
            return f"max_sail_free({n}) witness contains a sail"
        return None

    return Item(f"max-{n}", run, check, search=True)


def _refute_item(n: int, m: int, workers: int) -> Item:
    # m exceeds floor(n^2/9), the fan-free bound, so no system may be found.
    def run(_r):
        return sailfree.enumerate_extremal(n, m, SearchOptions(worker_count=workers))

    def check(forms, _r):
        return None if not forms else f"({n},{m}): found {len(forms)} classes, expected none"

    return Item(f"refute-{n}-{m}", run, check, search=True)


def _enum_item(n: int, m: int, expected=None) -> Item:
    def run(_r):
        return sailfree.enumerate_extremal(n, m)

    def check(forms, _r):
        return _check_forms(forms, n, m, expected)

    return Item(f"enum-{n}-{m}", run, check, search=True)


def _relabeled(system, perm):
    return sailfree.make_system(system.n, [[perm[x] for x in e] for e in system.edges])


def _iso_item(name: str, system, relabeled: list) -> Item:
    def run(r):
        return sailfree.isomorphism(system, relabeled[r % len(relabeled)])

    def check(mapping, r):
        target = relabeled[r % len(relabeled)]
        if mapping is None:
            return f"{name}: no isomorphism onto a relabeled copy"
        if sorted(mapping) != list(range(system.n)):
            return f"{name}: mapping is not a bijection"
        image = {tuple(sorted(mapping[x] for x in e)) for e in system.edges}
        if image != {tuple(e) for e in target.edges}:
            return f"{name}: mapping does not carry the edges onto the copy"
        return None

    return Item(name, run, check, search=False)


def _build_canon_inputs(seed: int, inputs) -> tuple[list, float]:
    """Generator outputs for the seed, and the time the generators took."""
    rng = random.Random(seed)
    systems = []
    t0 = time.perf_counter()
    for variant, k in inputs:
        spec = sailfree.ConstructionSpec(variant, k, seed=rng.randrange(1 << 30))
        systems.append((f"{variant}-k{k}", sailfree.build(spec)))
    return systems, (time.perf_counter() - t0) * 1e3


def build_ms(seed: int, quick: bool, repeats: int) -> float:
    """Median time of building the canon workload's generator outputs."""
    inputs = QUICK_CANON_INPUTS if quick else CANON_INPUTS
    times = sorted(_build_canon_inputs(seed, inputs)[1] for _ in range(repeats))
    return times[len(times) // 2]


def make(name: str, seed: int, quick: bool = False) -> Workload:
    """Build the named workload's inputs and oracles from the seed."""
    if name in ("prove", "prove-par"):
        workers = 2 if name == "prove-par" else 1
        items = [_max_item(8, 6, workers)]
        if not quick:
            items.append(_refute_item(9, 10, workers))
        return Workload(name, tuple(items), workers)
    if name == "classify":
        if quick:
            return Workload(name, (_enum_item(7, 4),), 1)
        td3 = sailfree.canonical_form(sailfree.transversal_design(3))
        trunc2 = sailfree.canonical_form(sailfree.truncated_design(2))
        items = (_enum_item(8, 5), _enum_item(8, 6, trunc2), _enum_item(9, 9, td3))
        return Workload(name, items, 1)
    if name == "canon":
        systems, _ = _build_canon_inputs(seed, QUICK_CANON_INPUTS if quick else CANON_INPUTS)
        rng = random.Random(seed ^ 0x5A11)
        items = []
        for label, system in systems:
            copies = []
            for _ in range(RELABELINGS):
                perm = list(range(system.n))
                rng.shuffle(perm)
                copies.append(_relabeled(system, perm))
            items.append(_iso_item(label, system, copies))
        return Workload(name, tuple(items), 1)
    raise ValueError(f"unknown workload {name!r}")
