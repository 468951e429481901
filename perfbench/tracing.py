"""Per-layer tracing of wcent from outside the package.

``Tracer.install`` wraps the public functions and methods in ``TARGETS`` and
rebinds each wrapped name in every loaded ``wcent`` module (and, for
methods, on the class), so calls between wcent modules go through the
wrappers too.  Nothing under ``src/`` changes.

Each wrapper counts calls and adds its self time (duration minus the time
its wrapped children cover) to its group.  Functions called fewer than
about 1e5 times per pass also record one span each: name, start, end and
parent span.  Hot functions (``AGGREGATE``) keep only the aggregate counter
and timer.  The wrapper's own cost is charged to the wrapped call, so a
parent's self time is not inflated by its children's instrumentation: the
part outside the wrapper's clock reads is measured once at install time on
a wrapped no-op and added to each call's duration.

Private helpers are not wrapped: time in ``affine._normal_insert`` lands
in the self time of the public caller (``act_mode``, ``VacuumVector.__mul__``,
``VacuumVector.derive``).
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

from workloads import table_terms

# (defining module, function or Class.method, group).  A group is the
# "<layer>.<name>" prefix of the per-layer metrics.
TARGETS = [
    ("centralizer", "bracket", "centralizer.bracket"),
    ("centralizer", "lie_bracket", "centralizer.bracket"),
    ("centralizer", "trace_form", "centralizer.form"),
    ("centralizer", "critical_form", "centralizer.form"),
    ("diffpoly", "DiffPoly.__mul__", "diffpoly.mul"),
    ("diffpoly", "DiffPoly.partials", "diffpoly.partials"),
    ("diffpoly", "DiffPoly.substitute_consts", "diffpoly.substitute"),
    ("pva", "w_membership", "pva.membership"),
    ("pva", "lambda_bracket_gen", "pva.bracket_gen"),
    ("pva", "generator_bracket", "pva.bracket_gen"),
    ("pva", "lambda_bracket", "pva.master"),
    ("pva", "w_bracket", "pva.w_bracket"),
    ("pva", "project_lambda", "pva.project"),
    ("pva", "parabolic_project", "pva.project"),
    ("pva", "pva_axiom_suite", "pva.axioms"),
    ("cdet", "w_generators", "cdet.generators"),
    ("cdet", "column_determinant", "cdet.column_det"),
    ("cdet", "DiffOp.__mul__", "cdet.diffop_mul"),
    ("cdet", "miura_generators", "cdet.miura"),
    ("cdet", "miura_image", "cdet.miura"),
    ("cdet", "jacobian_independence", "cdet.jacobian"),
    ("affine", "ss_vectors", "affine.ss_vectors"),
    ("affine", "center_check", "affine.center_check"),
    ("affine", "act_mode", "affine.act_mode"),
    ("affine", "VacuumVector.__mul__", "affine.vmul"),
    ("affine", "VacuumVector.derive", "affine.derive"),
    ("affine", "w_correspondence", "affine.correspondence"),
    ("serialize", "generator_table_to_json", "serialize"),
    ("serialize", "generator_table_from_json", "serialize"),
    ("serialize", "sugawara_table_to_json", "serialize"),
    ("serialize", "sugawara_table_from_json", "serialize"),
    ("serialize", "lambdapoly_to_json", "serialize"),
]

# Called more than about 1e5 times in one pass of some workload.
AGGREGATE = {"centralizer.bracket", "centralizer.form", "diffpoly.mul"}


def _count_zero(stat, result):
    if not result:
        stat.zero += 1


def _count_ss_terms(stat, table):
    stat.terms += table_terms(table)


HOOKS = {"centralizer.bracket": _count_zero, "affine.ss_vectors": _count_ss_terms}


class GroupStat:
    __slots__ = ("calls", "self_s", "zero", "terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.zero = 0
        self.terms = 0


class Tracer:
    """Wraps the targets of one process; create one per process, install once."""

    def __init__(self):
        self.names: list[str] = []             # span name table
        self.spans: list = []                  # [name index, start, end, parent span or -1]
        self.stats: dict[str, GroupStat] = {}
        # Frames of the active wrapped calls: [enclosing span index, child time].
        self._stack: list = [[-1, 0.0]]

    def install(self, package) -> None:
        self._outside = {aggregate: _outside_cost(aggregate) for aggregate in (True, False)}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for modname, target, group in TARGETS:
            owner = sys.modules["%s.%s" % (package.__name__, modname)]
            if "." in target:
                clsname, attr = target.split(".")
                cls = getattr(owner, clsname)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, "%s.%s" % (modname, target), group)
                for name, value in list(cls.__dict__.items()):
                    if value is original:  # e.g. DiffPoly.__rmul__ = __mul__
                        setattr(cls, name, wrapper)
            else:
                original = getattr(owner, target)
                wrapper = self._wrap(original, "%s.%s" % (modname, target), group)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)

    def _wrap(self, fn, name, group):
        stat = self.stats.setdefault(group, GroupStat())
        if group in AGGREGATE:
            return _make_wrapper(fn, stat, HOOKS.get(group), self._stack,
                                 self._outside[True])
        self.names.append(name)
        return _make_wrapper(fn, stat, HOOKS.get(group), self._stack,
                             self._outside[False], self.spans, len(self.names) - 1)

    def layer_metrics(self) -> dict:
        """Counts and self times by group, in the per-layer metric names."""
        out = {}
        for group, st in self.stats.items():
            out[group + ".calls"] = st.calls
            out[group + ".self_s"] = st.self_s
        br = self.stats["centralizer.bracket"]
        out["centralizer.bracket.zero_ratio"] = br.zero / br.calls if br.calls else 0.0
        out["affine.ss_terms"] = self.stats["affine.ss_vectors"].terms
        return out

    def span_dump(self) -> dict:
        """The spans recorded so far."""
        return {"names": list(self.names), "spans": list(self.spans),
                "fields": ["name", "start", "end", "parent"]}


def _make_wrapper(fn, stat, hook, stack, outside, spans=None, name_index=None):
    """Wrap ``fn``: count its calls and keep its self time in ``stat``.

    ``outside`` is the wrapper's own per-call cost outside its clock reads
    (see ``_outside_cost``).  It is charged to the wrapped call, and taken
    off the caller's self time with the rest of the call.  With ``spans``,
    each call also appends [name_index, start, end, parent span].
    """
    clock = perf_counter
    if spans is None:
        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if hook is not None:
                hook(stat, result)
            dur = clock() - t0 + outside
            stack[-1][1] += dur
            stat.calls += 1
            stat.self_s += dur - frame[1]
            return result
    else:
        def wrapper(*args, **kwargs):
            t0 = clock()
            span = [name_index, t0, None, stack[-1][0]]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if hook is not None:
                hook(stat, result)
            t1 = clock()
            span[2] = t1
            dur = t1 - t0 + outside
            stack[-1][1] += dur
            stat.calls += 1
            stat.self_s += dur - frame[1]
            return result
    return functools.update_wrapper(wrapper, fn)


def _outside_cost(aggregate: bool, calls: int = 20000, repeats: int = 5) -> float:
    """Median per-call time a wrapper spends outside its own clock reads.

    That is the call into the wrapper, its argument packing and its
    bookkeeping after the second clock read.  Measured on a wrapped no-op,
    as the wrapper's wall time less the loop's and less the time it
    measured itself.
    """
    def noop(a, b, c):
        return None

    costs = []
    for _ in range(repeats):
        stack = [[-1, 0.0]]
        wrapper = _make_wrapper(noop, GroupStat(), None, stack, 0.0,
                                None if aggregate else [], 0)
        t0 = perf_counter()
        for _ in range(calls):
            wrapper(1, 2, 3)
        wrapped = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            pass
        loop = perf_counter() - t0
        costs.append((wrapped - loop - stack[0][1]) / calls)
    return max(statistics.median(costs), 0.0)
