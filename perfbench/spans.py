"""Thread-aware span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side only: `install` rebinds the
module-level names through which one layer calls another (cli -> census,
census -> hankel / ranklaw / witness, ranklaw and witness -> hankel, and
census's own engine helpers), and `uninstall` puts the originals back.
No file of the package is changed.

A wrapped call that can have wrapped callees pushes a frame on a
per-thread stack, so its self time is its duration minus the time its
wrapped callees took.  Coarse calls (CLI jobs, enumeration entry points,
block maps, blocks, suites) are also kept as full spans: id, name, start,
end, parent, run id and thread.  The others are only aggregated, because
a run makes millions of them.  Leaf calls (rank kernels, field draws,
materialize, det) push no frame: their durations go to an array shared
by all threads, which also gives their call counts and quantiles.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

perf = time.perf_counter


class Agg:
    __slots__ = ("calls", "total", "self_time", "extra", "durations")

    def __init__(self, durations=None):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0  # a count attached to the call, e.g. tuples covered
        self.durations = durations


class _ThreadState:
    __slots__ = ("stack", "aggs", "spans", "ctx")

    def __init__(self):
        self.stack: list[list] = []  # frames: [start, child_time, id, parent]
        self.aggs: dict = {}
        self.spans: list[tuple] = []
        self.ctx = "other"  # "enum" or "mc" inside those spans


class Recorder:
    """Collects spans and aggregates from every thread that calls in."""

    def __init__(self):
        self.local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._leaves: dict = {}
        self._ids = itertools.count(1)
        self.run_id = 0  # index of the CLI job being traced

    def state(self) -> _ThreadState:
        try:
            return self.local.state
        except AttributeError:
            st = self.local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def enter(self, st: _ThreadState, record: bool, parent: int | None = None) -> list:
        if parent is None:
            parent = st.stack[-1][2] if st.stack else 0
        frame = [perf(), 0.0, next(self._ids) if record else parent, parent]
        st.stack.append(frame)
        return frame

    def leave(self, st: _ThreadState, frame: list, key: tuple, record: bool,
              extra: int = 0) -> float:
        end = perf()
        st.stack.pop()
        dur = end - frame[0]
        if st.stack:
            st.stack[-1][1] += dur
        agg = self.agg(st, key)
        agg.calls += 1
        agg.total += dur
        agg.self_time += dur - frame[1]
        agg.extra += extra
        if record:
            st.spans.append((frame[2], key[0], frame[0], end, frame[3], self.run_id,
                             threading.get_ident()))
        return dur

    @staticmethod
    def agg(st: _ThreadState, key: tuple) -> Agg:
        agg = st.aggs.get(key)
        if agg is None:
            agg = st.aggs[key] = Agg()
        return agg

    def leaf_durations(self, key: tuple) -> array:
        """The shared duration array of one leaf key (name, kind, ctx)."""
        durs = self._leaves.get(key)
        if durs is None:
            with self._lock:
                durs = self._leaves.setdefault(key, array("d"))
        return durs

    def merged(self) -> dict:
        """Aggregates of all threads and leaves, keyed by (name, kind, ctx)."""
        out: dict = {}
        with self._lock:
            states = list(self._states)
            leaves = dict(self._leaves)
        for st in states:
            for key, agg in st.aggs.items():
                tot = out.setdefault(key, Agg())
                tot.calls += agg.calls
                tot.total += agg.total
                tot.self_time += agg.self_time
                tot.extra += agg.extra
        for key, durs in leaves.items():
            agg = out[key] = Agg(durs)
            agg.calls = len(durs)
            agg.total = agg.self_time = sum(durs)
        return out

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._states)
        return sorted(itertools.chain.from_iterable(st.spans for st in states))


def field_kind(spec) -> str:
    if spec.d == 1:
        return "prime"
    return "ext_table" if spec.order <= 1024 else "ext_large"


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _span(rec: Recorder, name: str, fn, *, record=False, kind_of=None, ctx=None, extra_of=None,
          keep=False):
    """Wrap fn in a frame; ctx sets the thread's context while it runs.

    With keep, durations also go to the leaf array `<name>.durations`.
    """
    durs = rec.leaf_durations((name + ".durations", "", "")) if keep else None

    def traced(*args, **kwargs):
        st = rec.state()
        kind = kind_of(*args, **kwargs) if kind_of else ""
        extra = extra_of(*args, **kwargs) if extra_of else 0
        saved = st.ctx
        if ctx:
            st.ctx = ctx
        frame = rec.enter(st, record)
        try:
            return fn(*args, **kwargs)
        finally:
            st.ctx = saved
            dur = rec.leave(st, frame, (name, kind, ""), record, extra)
            if keep:
                durs.append(dur)

    traced.__wrapped__ = fn
    return traced


def _timed_leaf(rec: Recorder, fn, durs: array):
    """A leaf whose key is fixed: its durations go straight to `durs`."""
    local, append = rec.local, durs.append

    def traced(*args):
        t0 = perf()
        out = fn(*args)
        dur = perf() - t0
        append(dur)
        try:
            stack = local.state.stack
        except AttributeError:  # a thread no traced block started
            stack = rec.state().stack
        if stack:
            stack[-1][1] += dur
        return out

    traced.__wrapped__ = fn
    return traced


def _leaf(rec: Recorder, name: str, fn, kind_of):
    """A leaf keyed by the field kind of its arguments and the thread's context."""

    def traced(*args):
        st = rec.state()
        t0 = perf()
        out = fn(*args)
        dur = perf() - t0
        rec.leaf_durations((name, kind_of(*args), st.ctx)).append(dur)
        if st.stack:
            st.stack[-1][1] += dur
        return out

    traced.__wrapped__ = fn
    return traced


class TracedBlock:
    """A block function run by `_map_blocks`, possibly on a pool thread.

    The parent span id is passed in because a pool thread's own stack is
    empty.  Busy time is the thread's CPU time, so waiting for the
    interpreter lock does not count as work.
    """

    def __init__(self, rec: Recorder, fn, parent: int, ctx: str):
        self.rec, self.fn, self.parent, self.ctx = rec, fn, parent, ctx

    def __call__(self, block):
        rec = self.rec
        st = rec.state()
        saved = st.ctx
        st.ctx = self.ctx
        cpu0 = time.thread_time()
        frame = rec.enter(st, True, self.parent)
        try:
            return self.fn(block)
        finally:
            st.ctx = saved
            rec.leave(st, frame, ("census.block", "", ""), True)
            rec.agg(st, ("census.block.cpu", "", "")).total += time.thread_time() - cpu0


def _map_blocks_wrapper(rec: Recorder, fn):
    def traced(block_fn, blocks, jobs):
        st = rec.state()
        frame = rec.enter(st, True)
        try:
            return fn(TracedBlock(rec, block_fn, frame[2], st.ctx), blocks, jobs)
        finally:
            wall = rec.leave(st, frame, ("census.map_blocks", "", ""), True)
            # efficiency is busy / capacity, and capacity is wall x jobs
            rec.agg(st, ("census.par.capacity", "", "")).total += wall * jobs

    traced.__wrapped__ = fn
    return traced


def _rank_kernel_wrapper(rec: Recorder, factory):
    """Time the kernel factory (it may build tables) and each kernel call.

    A kernel is used inside the span that made it, so its context is the
    one at creation, even when pool threads call it.
    """

    def traced(spec):
        st = rec.state()
        kind = field_kind(spec)
        frame = rec.enter(st, False)
        try:
            kern = factory(spec)
        finally:
            rec.leave(st, frame, ("census.rank_kernel_setup", kind, st.ctx), False)
        return _timed_leaf(rec, kern, rec.leaf_durations(("hankel.rank", kind, st.ctx)))

    traced.__wrapped__ = factory
    return traced


def _query_tuples(query, *args, **kwargs) -> int:
    return query.field.order ** (query.m + query.n + 1 - query.k)


def _census_tuples(field, m, n, prefix=None, *args, **kwargs) -> int:
    k = 0 if prefix is None else len(prefix)
    return field.order ** (m + n + 1 - k)


# census-side name -> metric label
WITNESS_FUNCS = {
    "solve_tail": "solve_tail",
    "alpha": "alpha",
    "beta": "beta",
    "is_weakly_nice": "is_weakly_nice",
    "is_strongly_nice": "is_strongly_nice",
    "sumlast_sides": "sumlast_sides",
    "_annihilates_codes": "annihilates",
}


def install(rec: Recorder) -> list[tuple]:
    """Rebind the layer-crossing names; returns what `uninstall` needs.

    A name the package no longer has is skipped, and its metrics read 0.
    """
    from hankelcensus import census, cli, ranklaw, witness

    targets = []

    def put(mod, name, make):
        if hasattr(mod, name):
            orig = getattr(mod, name)
            targets.append((mod, name, orig))
            setattr(mod, name, make(orig))

    def spec_kind(spec, *a, **k):
        return field_kind(spec)

    def matrix_kind(M, *a, **k):
        return field_kind(M.field)

    def tuple_kind(x, *a, **k):
        return field_kind(x.field)

    def query_kind(query, *a, **k):
        return field_kind(query.field)

    # cli -> gf and cli -> census
    put(cli, "parse_field", lambda f: _span(rec, "gf.parse_field", f))
    put(cli, "verify", lambda f: _span(rec, "census.verify", f, record=True))
    put(cli, "monte_carlo_rank_le", lambda f: _span(
        rec, "census.mc", f, record=True, kind_of=query_kind, ctx="mc",
        extra_of=lambda query, trials, *a, **k: trials))
    for mod in (cli, census):
        put(mod, "brute_count_rank_le", lambda f: _span(
            rec, "census.enum", f, record=True, ctx="enum", kind_of=query_kind,
            extra_of=_query_tuples))
        put(mod, "brute_census", lambda f: _span(
            rec, "census.enum", f, record=True, ctx="enum", kind_of=spec_kind,
            extra_of=_census_tuples))
    # census engine helpers
    put(census, "_map_blocks", lambda f: _map_blocks_wrapper(rec, f))
    put(census, "_rank_kernel", lambda f: _rank_kernel_wrapper(rec, f))
    put(census, "_draw_codes", lambda f: _leaf(rec, "census.draw", f, spec_kind))
    put(census, "_prefix_family", lambda f: _span(rec, "census.prefix_family", f, record=True))
    suites = getattr(census, "_SUITE_FUNCS", None)
    if isinstance(suites, dict):
        for name in list(suites):
            orig = suites[name]
            targets.append((suites, name, orig))
            suites[name] = _span(rec, f"census.suite.{name}", orig, record=True)
    # census -> hankel / ranklaw / witness, ranklaw and witness -> hankel
    put(census, "_rank_codes", lambda f: _leaf(rec, "hankel.rank", f, spec_kind))
    put(census, "det", lambda f: _leaf(rec, "hankel.det", f, matrix_kind))
    put(ranklaw, "_rank_codes", lambda f: _leaf(rec, "hankel.rank", f, spec_kind))
    for name in ("rank_gauss", "left_kernel_dim"):
        put(ranklaw, name, lambda f: _leaf(rec, "hankel.rank", f, matrix_kind))
    for mod in (ranklaw, witness):
        put(mod, "materialize_hankel", lambda f: _leaf(rec, "hankel.materialize", f, tuple_kind))
    put(census, "rank_le_fast", lambda f: _span(rec, "ranklaw.rank_le_fast", f, keep=True))
    put(census, "elkies_identity_sides", lambda f: _span(rec, "ranklaw.elkies", f, keep=True))
    for name, label in WITNESS_FUNCS.items():
        put(census, name, lambda f, label=label: _span(rec, f"witness.{label}", f))
    return targets


def uninstall(targets: list[tuple]) -> None:
    for obj, name, orig in reversed(targets):
        if isinstance(obj, dict):
            obj[name] = orig
        else:
            setattr(obj, name, orig)
