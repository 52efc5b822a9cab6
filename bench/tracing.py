"""Per-layer measurement from outside the program.

Nothing here edits the package.  The tracer swaps names in
``sailfree.search`` (and ``sailfree.canon``) for the length of a traced
run and puts them back afterwards:

* ``SailGuard`` becomes a subclass that counts pushes by result code and
  pops.  Timing every push would cost more than the push, so guard time is
  derived from these counts and the per-op costs of the replay below.
* ``_max_kernel`` / ``_enum_kernel`` become wrappers that, in a forked pool
  worker, add the worker's counts to a shared array when a task ends.
  Under the ``spawn`` start method workers import an unpatched package and
  their counts are not seen.
* ``canonical_form`` becomes a wrapper that counts calls and adds up their
  wall time.

The replay records the push/pop stream of the prove workload's search up
to a fixed node limit and replays it against a fresh ``SailGuard``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from array import array

import sailfree.canon as canon_mod
import sailfree.search as search_mod
from sailfree import SearchOptions
from sailfree.errors import LimitExceeded

ACCEPTED, LINEARITY, SAIL, POPS = range(4)


class Tracer:
    """Counts guard operations and canon calls while installed (a context manager)."""

    def __init__(self):
        self.counts = [0, 0, 0, 0]  # accepted, linearity, sail rejections, pops
        self.shared = mp.Array("q", 4)  # the same counts, summed over pool workers
        self.canon_calls = 0
        self.canon_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def _swap(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        counts, shared, parent = self.counts, self.shared, os.getpid()
        base = search_mod.SailGuard
        push, pop = base._push_fast, base._pop_fast

        class CountingGuard(base):
            __slots__ = ()

            def _push_fast(self, t, tm, pm):
                code = push(self, t, tm, pm)
                counts[code] += 1
                return code

            def _pop_fast(self):
                counts[POPS] += 1
                return pop(self)

        def flushing(kernel):
            def run(*args, **kwargs):
                if os.getpid() == parent:
                    return kernel(*args, **kwargs)
                before = counts[:]
                try:
                    return kernel(*args, **kwargs)
                finally:
                    with shared.get_lock():
                        for i in range(4):
                            shared[i] += counts[i] - before[i]
            return run

        real_canon = canon_mod.canonical_form

        def timed_canonical_form(system):
            t0 = time.perf_counter()
            try:
                return real_canon(system)
            finally:
                self.canon_s += time.perf_counter() - t0
                self.canon_calls += 1

        self._swap(search_mod, "SailGuard", CountingGuard)
        self._swap(search_mod, "_max_kernel", flushing(search_mod._max_kernel))
        self._swap(search_mod, "_enum_kernel", flushing(search_mod._enum_kernel))
        self._swap(search_mod, "canonical_form", timed_canonical_form)
        self._swap(canon_mod, "canonical_form", timed_canonical_form)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def take(self) -> tuple[list[int], int, float]:
        """Guard counts (this process plus pool workers), canon calls and
        canon seconds since the last take; resets them."""
        with self.shared.get_lock():
            counts = [c + s for c, s in zip(self.counts, self.shared)]
            self.shared[:] = [0, 0, 0, 0]
        out = (counts, self.canon_calls, self.canon_s)
        self.counts[:] = [0, 0, 0, 0]
        self.canon_calls, self.canon_s = 0, 0.0
        return out


def record_stream(n: int, m: int, node_limit: int) -> array:
    """Push/pop stream of enumerate_extremal(n, m) cut at node_limit.

    A push is stored as triple index << 2 | result code, a pop as -1.
    """
    stream = array("i")
    triples = search_mod._tables(n)[0]
    index = {t: i for i, t in enumerate(triples)}
    base = search_mod.SailGuard
    push, pop = base._push_fast, base._pop_fast

    class RecordingGuard(base):
        __slots__ = ()

        def _push_fast(self, t, tm, pm):
            code = push(self, t, tm, pm)
            stream.append(index[t] << 2 | code)
            return code

        def _pop_fast(self):
            stream.append(-1)
            return pop(self)

    search_mod.SailGuard = RecordingGuard
    try:
        search_mod.enumerate_extremal(n, m, SearchOptions(node_limit=node_limit))
    except LimitExceeded:
        pass
    finally:
        search_mod.SailGuard = base
    return stream


def _replay(n, stream, push, pop) -> int:
    """Apply the stream; returns how many pushes disagreed with their record."""
    triples, vmasks, pmasks = search_mod._tables(n)
    wrong = 0
    for op in stream:
        if op < 0:
            pop()
        else:
            i = op >> 2
            if push(triples[i], vmasks[i], pmasks[i]) != op & 3:
                wrong += 1
    return wrong


def _split_replay(n, stream, push, pop) -> tuple[int, int]:
    """Nanoseconds inside push calls and inside pop calls, each op timed."""
    triples, vmasks, pmasks = search_mod._tables(n)
    clock = time.perf_counter_ns
    push_ns = pop_ns = 0
    for op in stream:
        if op < 0:
            t0 = clock()
            pop()
            pop_ns += clock() - t0
        else:
            i = op >> 2
            t, tm, pm = triples[i], vmasks[i], pmasks[i]
            t0 = clock()
            push(t, tm, pm)
            push_ns += clock() - t0
    return push_ns, pop_ns


def replay_costs(n: int, stream: array) -> tuple[float, float, int]:
    """(ns per push, ns per pop, pushes that disagreed with their record).

    One aggregate timer covers a whole replay against a fresh guard; a
    replay with stub calls gives the loop's own cost, which is taken off.
    The remainder is split between pushes and pops in the proportion a
    third, per-op timed replay measures (each op's share of the timer's own
    cost is taken off that replay first).
    """
    pushes = sum(1 for op in stream if op >= 0)
    pops = len(stream) - pushes

    guard = search_mod.SailGuard(n)
    t0 = time.perf_counter_ns()
    wrong = _replay(n, stream, guard._push_fast, guard._pop_fast)
    total = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    _replay(n, stream, lambda t, tm, pm: 0, lambda: None)
    loop = time.perf_counter_ns() - t0

    guard = search_mod.SailGuard(n)
    push_ns, pop_ns = _split_replay(n, stream, guard._push_fast, guard._pop_fast)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(len(stream)):
        clock() - clock()
    timer = (clock() - t0) / len(stream)
    push_net = max(push_ns - pushes * timer, 1.0)
    pop_net = max(pop_ns - pops * timer, 1.0)

    net = max(total - loop, 1.0)
    share = push_net / (push_net + pop_net)
    return net * share / pushes, net * (1 - share) / max(pops, 1), wrong
