"""Span tracing around needlab's public functions, from outside the package.

``Tracer.install`` replaces each listed function, in its defining module
and in every needlab module that imported it, with a wrapper that records
one span per call: (name, start, end, parent).  Spans stay in memory
until ``write``; ``remove`` puts the originals back.  Self time is a
span's duration minus the durations of its direct children, accumulated
as calls return.  Private helpers are not wrapped, so their time counts
as self time of the public function that called them.  A generator
function (``gen.enumerate_closed``) counts one call when it is called and
records one span per resumption, since its work happens as it is consumed.
"""
from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

#: Wrapped functions by module.  ``NameSupply.for_terms`` is a classmethod.
TRACED = {
    "terms": (
        "subst", "subst_shared", "freshen", "hygienize", "free_vars", "canon",
        "alpha_eq", "erase", "strip_value_labels", "NameSupply.for_terms",
    ),
    "frames": ("plug", "is_answer_frames", "split_inner_partial", "split_outer_partial"),
    "syntax": ("print_term", "parse"),
    "need": ("eval_sr", "contract", "is_answer", "compatible_reducts", "joinable"),
    "af": ("eval_af", "eval_afmod", "eval_name", "step_name"),
    "ck": ("eval_ck", "step_ck", "build", "build_step_term"),
    "ckh": ("eval_ckh", "step_ckh", "buildL"),
    "lstep": ("eval_lstep", "step_lstep", "is_cl", "substlab"),
    "oracle": ("enumerate_decompositions",),
    "gen": ("gen_closed", "enumerate_closed"),
    "harness": ("run_eval", "check_simulation", "close_answer_value"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """Span recorder for the functions in ``TRACED``; install, run, remove, write."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list = []  # [span id, child seconds] of calls in progress
        self._restore: list = []

    def _wrap(self, index: int, fn):
        name_ids, parents, starts, ends = self._name, self._parent, self._start, self._end
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def span(call, args, kwargs, counted):
            sid = len(starts)
            name_ids.append(index)
            parents.append(open_spans[-1][0] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                starts[sid] = start
                ends[sid] = end
                calls[index] += counted
                self_s[index] += duration - frame[1]
                if open_spans:
                    open_spans[-1][1] += duration

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                calls[index] += 1
                resume = fn(*args, **kwargs).__next__
                while True:
                    try:
                        item = span(resume, (), {}, 0)
                    except StopIteration:
                        return
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            return span(fn, args, kwargs, 1)

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "needlab" or n.startswith("needlab.")]
        for index, name in enumerate(NAMES):
            module_name, attr = name.split(".", 1)
            module = sys.modules[f"needlab.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self._wrap(index, original.__func__)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original)
            for mod in package:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: id, name, start, end, parent (-1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start,end,parent\n")
            for i in range(len(self._start)):
                out.write(
                    f"{i},{NAMES[self._name[i]]},{self._start[i]:.9f},"
                    f"{self._end[i]:.9f},{self._parent[i]}\n"
                )
