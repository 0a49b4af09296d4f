"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each public function of the traced ``semilat``
modules, at every module attribute it is bound under (``cli.jh_match``,
``groups.jh_match``, ``oracle.jh_match`` ...), with a wrapper that records a
span: name, start and end in integer nanoseconds, parent span and job id.
The functions in COUNTED, which ``verify`` and ``groups`` call up to
millions of times, are counted, not timed.  ``uninstall()`` restores every
original binding.

Spans stay in memory for one round; ``take_round()`` folds them into
per-name totals (calls, total time, self time) and returns the raw spans.
Self time is a span's duration minus the durations of its direct children;
with integer clocks the self times of one job add up exactly to the job's
duration, which ``check_round`` verifies together with the nesting.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("poset", "semilattice", "projectivity", "matching", "oracle",
          "generators", "groups", "dot", "cli")
COUNTED = {"semilattice.join", "projectivity.prime_up_projective",
           "semilattice.is_maximal_chain", "poset.Poset.dual"}
CLASS_METHODS = {"poset": {"Poset": ("from_cover_list", "interval", "dual")}}
JOB = "job"  # root span of one CLI invocation, recorded by the benchmark


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, total, self
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_init(self, init):
        counts = self.counts

        def __init__(poset, name, elements, *rest):
            counts["poset.elements_built"] += len(elements)
            init(poset, name, elements, *rest)

        return __init__

    def _wrap(self, name: str, fn):
        short = name.replace("poset.Poset.", "poset.")
        if name in COUNTED:
            return self._counter(short + ".calls", fn)
        return self._span(short, fn, _count_cells if short == "oracle.projectivity_relation" else None)

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.stack.append(len(self.spans))
        self.spans.append((JOB, perf_counter_ns(), None, -1, job_id))

    def end_job(self, stdout: str, code: int | None) -> None:
        idx = self.stack.pop()
        name, t0, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, t0, perf_counter_ns(), parent, job)
        self.counts["cli.stdout_bytes"] += len(stdout.encode())
        if code in (1, 2):
            self.counts[f"cli.exit_{code}"] += 1

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"semilat.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                    self._set(cls, meth, raw, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        # Poset.__init__ is the one constructor behind from_cover_list,
        # interval and dual; its wrapper adds up the elements of every poset.
        poset_cls = modules["poset"].Poset
        self._set(poset_cls, "__init__", poset_cls.__dict__["__init__"],
                  self._counting_init(poset_cls.__dict__["__init__"]))
        for name, mod in list(sys.modules.items()):
            if name == "semilat" or name.startswith("semilat."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._set(mod, attr, obj, wrappers[id(obj)][1])

    def _set(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def take_round(self) -> list:
        """Fold the spans recorded since the last call into the totals."""
        spans, self.spans[:] = list(self.spans), []
        selfs = span_self_ns(spans)
        check_round(spans, selfs)
        for (name, t0, t1, _, _), own in zip(spans, selfs):
            acc = self.totals[name]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += own
        return spans


def span_self_ns(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(spans, child)]


class TraceError(Exception):
    """The recorded spans do not form well-nested per-job trees."""


def check_round(spans: list, selfs: list[int]) -> None:
    """Children nest inside their parent within one job, no self time is
    negative, and each job's self times plus its untraced gap (the root's
    self time) equal the job's traced duration."""
    per_job_self: dict[int, int] = defaultdict(int)
    roots = {}
    for (name, t0, t1, parent, job), own in zip(spans, selfs):
        if own < 0:
            raise TraceError(f"negative self time {own} ns for {name}")
        per_job_self[job] += own
        if parent < 0:
            if name != JOB or job in roots:
                raise TraceError(f"span {name} of job {job} has no parent")
            roots[job] = t1 - t0
            continue
        _, p0, p1, _, pjob = spans[parent]
        if not (p0 <= t0 <= t1 <= p1 and pjob == job):
            raise TraceError(f"span {name} is not nested in its parent")
    for job, duration in roots.items():
        if per_job_self[job] != duration:
            raise TraceError(f"job {job}: self times sum to {per_job_self[job]}, duration {duration}")


def _count_cells(tracer: Tracer, relation) -> None:
    tracer.counts["oracle.cells_requested"] += relation.n ** 2
