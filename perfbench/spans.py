"""Span recording from outside the library.

``Tracer.install`` replaces every module attribute of ``sheafcalc`` that
binds a public function (plus the few private helpers and methods named
in ``EXTRA_SPANS``) with a wrapper that records one span per call; the
returned callable puts the originals back.  Nothing in ``src/`` knows
about it, and with no wrappers installed the library runs untouched.

A span has a name, a start, an end, a parent span and an operation id.
Self time is a span's duration minus the time its child spans cover;
the wrappers' own bookkeeping sits outside both.  Counters are computed
at the call boundary from arguments and results, so they repeat exactly
from one round to the next.
"""

from __future__ import annotations

import gzip
import inspect
import time
import types
from array import array
from collections import defaultdict

from common import MODULES

# private functions and methods that get spans of their own
EXTRA_SPANS = (
    ("cellsheaf", None, "_localize_obstruction"),
    ("complexes", "SimplicialComplex", "k_faces"),
    ("poset", "FinitePoset", "join"),
)


def _bits(values) -> int:
    top = 0
    for x in values:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > top:
            top = b
    return top


def _count_decompose(tracer, args, result):
    m = args[0]
    c = tracer.counts
    c["rationals.decompose.cells"] += m.rows * m.cols
    c["rationals.decompose.nonzeros"] += sum(1 for x in m.data if x)
    bits = max(_bits(m.data), _bits(result.rref.data))
    if bits > c["rationals.decompose.max_bits"]:
        c["rationals.decompose.max_bits"] = bits


def _count_matmul(tracer, args, result):
    a, b = args[0], args[1]
    tracer.counts["rationals.matmul.mults"] += a.rows * a.cols * b.cols


def _count_modal_iterate(tracer, args, result):
    tracer.counts["modal.modal_iterate.steps"] += result.steps


def _count_downsets(tracer, args, result):
    tracer.counts["poset.downset_family.masks"] += 1 << len(args[0])
    tracer.counts["poset.downset_family.found"] += len(result)


COUNTERS = {
    "rationals.decompose": _count_decompose,
    "rationals.matmul": _count_matmul,
    "modal.modal_iterate": _count_modal_iterate,
    "poset.downset_family": _count_downsets,
}

# generator functions: the count of items they yield, no span
YIELD_COUNTERS = {
    "finsheaf.irredundant_covers": "finsheaf.irredundant_covers.covers",
    "finsheaf.matching_families": "finsheaf.matching_families.families",
}


class Tracer:
    """Aggregates spans per name and per (name, parent name); keeps the
    raw spans of one recording window for the JSON-lines dump."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = -1
        self.active = False  # only inside an operation's root span
        self._stack = []   # frames: [span id, name index, covered seconds]
        self._next_id = 0
        self.recording = False
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self.origin = time.perf_counter()

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def reset_stats(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # ------------------------------------------------------ span core

    def _enter(self, idx, t0):
        sid = -1
        if self.recording:
            sid = self._next_id
            self._next_id += 1
            stack = self._stack
            self._name.append(idx)
            self._start.append(t0 - self.origin)
            self._end.append(0.0)
            self._parent.append(stack[-1][0] if stack else -1)
            self._op.append(self.op)
        frame = [sid, idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, t0, t1):
        stack = self._stack
        stack.pop()
        idx = frame[1]
        own = (t1 - t0) - frame[2]
        self.calls[idx] += 1
        self.self_s[idx] += own
        if stack:
            pair = (idx, stack[-1][1])
            self.calls[pair] += 1
            self.self_s[pair] += own
        if frame[0] >= 0:
            self._end[frame[0]] = t1 - self.origin

    def _cover(self, t_enter):
        # the whole wrapper, bookkeeping included, is not parent time
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - t_enter

    def operation(self, name):
        """Root span of one operation; wrappers record only inside one."""
        return _Span(self, self.name_index(name))

    # ------------------------------------------------------- wrapping

    def _wrap(self, fn, name):
        idx = self.name_index(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        enter, leave, cover = self._enter, self._exit, self._cover
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_enter = clock()
            frame = enter(idx, t_enter)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, t0, clock())
                cover(t_enter)
                raise
            leave(frame, t0, clock())
            if counter is not None:
                counter(tracer, args, result)
            cover(t_enter)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, counter_name):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    counts[counter_name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            counter_name = YIELD_COUNTERS.get(name)
            return None if counter_name is None else \
                self._wrap_generator(fn, counter_name)
        return self._wrap(fn, name)

    def install(self, lib):
        """Wrap every binding of a public sheafcalc function, in every
        module that binds it.  Returns a callable that undoes it."""
        wrappers = {}
        undo = []

        def wrapped(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrapper_for(fn, name)
            return wrappers[fn]

        extra = {(m, attr) for m, owner, attr in EXTRA_SPANS if owner is None}
        for mod_name in MODULES + ("__init__",):
            mod = lib.package if mod_name == "__init__" else getattr(lib, mod_name)
            for attr, value in list(vars(mod).items()):
                if not (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("sheafcalc")):
                    continue
                home = value.__module__.rsplit(".", 1)[-1]
                if attr.startswith("_") and (home, attr) not in extra:
                    continue
                w = wrapped(value, f"{home}.{value.__name__}")
                if w is not None:
                    setattr(mod, attr, w)
                    undo.append((mod, attr, value))
        for mod_name, owner, attr in EXTRA_SPANS:
            if owner is None:
                continue
            cls = getattr(getattr(lib, mod_name), owner)
            fn = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(fn, f"{mod_name}.{attr}"))
            undo.append((cls, attr, fn))
        # actions are held by the dispatch table, not by module names
        actions = lib.cli.ACTIONS
        saved = dict(actions)
        for key, spec in saved.items():
            actions[key] = type(spec)(spec.paths, spec.options,
                                      self._wrap(spec.fn, "cli.action"), spec.help)
        undo.append((actions, None, saved))

        def uninstall():
            for target, attr, value in reversed(undo):
                if attr is None:
                    target.clear()
                    target.update(value)
                else:
                    setattr(target, attr, value)

        return uninstall

    # ------------------------------------------------------ reporting

    def stat(self, name, parent=None):
        """(calls, self seconds) for a span name, optionally restricted
        to spans whose parent has the given name."""
        if name not in self._index or (parent is not None
                                       and parent not in self._index):
            return 0, 0.0
        key = self._index[name]
        if parent is not None:
            key = (key, self._index[parent])
        return self.calls.get(key, 0), self.self_s.get(key, 0.0)

    def write_spans(self, path):
        """One JSON object per line: id, name, start, end, parent, op.
        Times are seconds since the tracer was made; parent is null for
        a root span."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i in range(len(self._name)):
                parent = self._parent[i]
                out.write(
                    f'{{"id":{i},"name":"{names[self._name[i]]}",'
                    f'"start":{self._start[i]:.9f},"end":{self._end[i]:.9f},'
                    f'"parent":{"null" if parent < 0 else parent},'
                    f'"op":{self._op[i]}}}\n')
        return len(self._name)


class _Span:
    __slots__ = ("tracer", "idx", "frame", "t0")

    def __init__(self, tracer, idx):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        self.tracer.active = True
        self.t0 = time.perf_counter()
        self.frame = self.tracer._enter(self.idx, self.t0)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, self.t0, time.perf_counter())
        self.tracer.active = False
        return False
