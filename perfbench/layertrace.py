"""Per-layer tracing of engelkit, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of every layer
(the modules of ``engelkit``) by wrappers that record spans.  A name bound
elsewhere by ``from ... import`` is replaced in every module that binds it,
and the ``Expr`` operators, reflected aliases included, are replaced on the
class.  ``uninstall`` puts every original back.

Attribution rules:

* A span's self time is its duration minus the time its child spans cover,
  so within an item the self times of all spans add up to the item's time.
  The item's own span collects what no layer span covers (``other_s``).
* A call made from inside the same layer opens no span and is not counted;
  its time belongs to the caller.  Only the functions named in ``_NAMED``
  keep their own spans and counts inside their layer, except in the flat
  layers ``linalg`` and ``symexpr``, where ``rank`` calling ``row_echelon``
  or ``diff`` calling ``partial`` stays one call.
* ``linalg`` and ``forms`` compute with ``Expr`` entries; ``symexpr`` calls
  made from inside them are counted but open no span, so their arithmetic
  is part of the linalg or forms self time.
* Every other call opens a span; counts record calls into a layer, plus
  the inner calls of the named functions outside the flat layers.
* ``symexpr.op_incl_s`` is the inclusive time of every counted ``Expr``
  operator call, absorbed ones included: the whole cost of the arithmetic,
  whichever layer's self time holds it.

Spans are kept in memory, one row per span, and written out at the end.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from fractions import Fraction

MODULES = ("symexpr", "linalg", "forms", "engel", "kerr", "g2alg", "tanaka",
           "models", "cubicalg", "cli")
FLAT_LAYERS = {"symexpr", "linalg"}
ABSORBS_SYMEXPR = {"linalg", "forms"}

# Span names; ``<layer>.<what>`` reports as ``<layer>.<what>_self_s``.
SELF_METRICS = (
    "symexpr.op", "symexpr.diff", "symexpr.substitute", "symexpr.parse",
    "symexpr.other",
    "linalg.rank_qx", "linalg.inverse_qx", "linalg.det_qx", "linalg.other_qx",
    "linalg.q",
    "forms.lie_bracket", "forms.wedge", "forms.d", "forms.expand", "forms.growth",
    "forms.other",
    "engel.invariants", "engel.classify", "engel.geometry", "engel.tautological",
    "engel.flat_reduction", "engel.other",
    "kerr.solve", "kerr.fibration", "kerr.other",
    "g2alg", "tanaka", "models", "cubicalg", "cli",
)
COUNT_METRICS = (
    "symexpr.ops", "symexpr.diff_calls",
    "linalg.rank_qx_calls", "linalg.rank_rows_in", "linalg.rank_out",
    "linalg.mat_mul_calls",
    "forms.lie_bracket_calls", "forms.coframe_builds", "forms.generic_rank_calls",
    "engel.adapted_coframe_calls", "engel.invariants_closed_form_calls",
    "kerr.solve_calls", "kerr.newton_iterations",
    "g2alg.commutator_table_calls",
)
ITEM = "item"

_EXPR_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# (layer, qualified name) -> (span name, count metric or None)
_NAMED = {
    ("symexpr", "Expr.diff"): ("symexpr.diff", "symexpr.diff_calls"),
    ("symexpr", "Expr.partial"): ("symexpr.diff", "symexpr.diff_calls"),
    ("symexpr", "diff"): ("symexpr.diff", "symexpr.diff_calls"),
    ("symexpr", "partial"): ("symexpr.diff", "symexpr.diff_calls"),
    ("symexpr", "Expr.substitute"): ("symexpr.substitute", None),
    ("symexpr", "substitute"): ("symexpr.substitute", None),
    ("symexpr", "parse"): ("symexpr.parse", None),
    ("forms", "lie_bracket"): ("forms.lie_bracket", "forms.lie_bracket_calls"),
    ("forms", "distribution_growth"): ("forms.growth", None),
    ("forms", "generic_rank"): ("forms.other", "forms.generic_rank_calls"),
    ("forms", "DifferentialForm.wedge"): ("forms.wedge", None),
    ("forms", "DifferentialForm.d"): ("forms.d", None),
    ("forms", "CoframeChart.expand_one_form"): ("forms.expand", None),
    ("forms", "CoframeChart.expand_two_form"): ("forms.expand", None),
    ("forms", "CoframeChart.__init__"): ("forms.other", "forms.coframe_builds"),
    ("engel", "adapted_coframe"): ("engel.other", "engel.adapted_coframe_calls"),
    ("engel", "invariants_closed_form"):
        ("engel.invariants", "engel.invariants_closed_form_calls"),
    ("engel", "invariants_from_structure_equations"): ("engel.invariants", None),
    ("engel", "classify"): ("engel.classify", None),
    ("engel", "classify_at"): ("engel.classify", None),
    ("engel", "geometric_checks"): ("engel.geometry", None),
    ("engel", "tautological_forms"): ("engel.tautological", None),
    ("engel", "verify_flat_reduction"): ("engel.flat_reduction", None),
    ("kerr", "solve_kerr_numeric"): ("kerr.solve", "kerr.solve_calls"),
    ("kerr", "coordinate_change_check"): ("kerr.fibration", None),
    ("g2alg", "commutator_table"): ("g2alg", "g2alg.commutator_table_calls"),
    ("cli", "run"): ("cli", None),
}
_DEFAULT_SPAN = {"symexpr": "symexpr.other", "forms": "forms.other",
                 "engel": "engel.other", "kerr": "kerr.other"}
_LINALG_QX = {"rank": "linalg.rank_qx", "inverse": "linalg.inverse_qx",
              "det": "linalg.det_qx"}


def _first_scalar(value):
    while isinstance(value, (list, tuple)) and value:
        value = value[0]
    return value


class Tracer:
    def __init__(self):
        from engelkit.symexpr import Expr

        self._expr_type = Expr
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("H")
        self._item = array("q")
        # open frames: [span index, name id, layer, start, covered by children]
        self._stack: list[list] = []
        self._self = defaultdict(float)
        self.counts = defaultdict(int)
        self.item_count = 0
        self.item_seconds = 0.0
        self.worst_gap = 0.0
        self.op_seconds = 0.0  # all Expr operator time, absorbed calls included
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name: str, layer: str) -> list:
        index = len(self._start)
        parent = self._stack[-1][0] if self._stack else -1
        name_id = self._name_id(name)
        start = time.perf_counter()
        self._start.append(start)
        self._end.append(start)
        self._parent.append(parent)
        self._name.append(name_id)
        self._item.append(self.item_count)
        frame = [index, name_id, layer, start, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        index, name_id, _, start, covered = frame
        self._end[index] = end
        duration = end - start
        self._self[self._names[name_id]] += duration - covered
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    def begin_item(self) -> None:
        self._item_self = dict(self._self)
        self._item_frame = self._open(ITEM, ITEM)

    def end_item(self) -> None:
        duration = self._close(self._item_frame)
        spent = sum(self._self[k] - self._item_self.get(k, 0.0) for k in self._self)
        self.worst_gap = max(self.worst_gap, abs(spent - duration))
        self.item_seconds += duration
        self.item_count += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, span_of, count: str | None, on_result=None,
              named: bool = False):
        tracer = self
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        inclusive = count == "symexpr.ops"

        def traced(*args, **kwargs):
            top = stack[-1][2] if stack else None
            if top == layer and (layer in FLAT_LAYERS or not named):
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            if layer == "symexpr" and top in ABSORBS_SYMEXPR:
                if not inclusive:
                    return fn(*args, **kwargs)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.op_seconds += clock() - started
            frame = tracer._open(span_of(args) if callable(span_of) else span_of, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
                if inclusive:
                    tracer.op_seconds += duration
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _linalg_span(self, fn_name: str):
        expr_type = self._expr_type

        def span_of(args):
            if args and isinstance(_first_scalar(args[0]), expr_type):
                return _LINALG_QX.get(fn_name, "linalg.other_qx")
            return "linalg.q"
        return span_of

    def _on_rank(self, args, result) -> None:
        if args and isinstance(_first_scalar(args[0]), self._expr_type):
            self.counts["linalg.rank_qx_calls"] += 1
            self.counts["linalg.rank_rows_in"] += len(args[0])
            self.counts["linalg.rank_out"] += result

    def _on_solve(self, args, result) -> None:
        self.counts["kerr.newton_iterations"] += result.iterations

    def _plan(self, layer: str, qualname: str):
        """(span name or chooser, count metric, result hook) for one callable."""
        if layer == "linalg":
            count = "linalg.mat_mul_calls" if qualname == "mat_mul" else None
            hook = self._on_rank if qualname == "rank" else None
            return self._linalg_span(qualname), count, hook
        if (layer, qualname) in _NAMED:
            span, count = _NAMED[(layer, qualname)]
            hook = self._on_solve if span == "kerr.solve" else None
            return span, count, hook
        if layer == "symexpr" and qualname.startswith("Expr.__"):
            return "symexpr.op", "symexpr.ops", None
        return _DEFAULT_SPAN.get(layer, layer), None, None

    def install(self) -> None:
        import engelkit

        modules = {name: importlib.import_module(f"engelkit.{name}") for name in MODULES}
        everywhere = [engelkit, *modules.values()]
        for layer, module in modules.items():
            targets = []
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    for meth, fn in list(vars(value).items()):
                        qualname = f"{attr}.{meth}"
                        wanted = not meth.startswith("_") or (layer, qualname) in _NAMED \
                            or (value is self._expr_type and meth in _EXPR_OPERATORS)
                        if wanted and inspect.isfunction(fn):
                            targets.append((value, meth, qualname, fn))
                elif inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper):
                    targets.append((None, attr, attr, value))
            for owner, attr, qualname, fn in targets:
                span, count, hook = self._plan(layer, qualname)
                wrapped = self._wrap(fn, layer, span, count, hook,
                                     named=(layer, qualname) in _NAMED)
                if owner is not None:
                    self._set(owner, attr, wrapped)
                    continue
                for mod in everywhere:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, name, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, items_per_s: float) -> dict[str, dict]:
        """Per-item means of every self time and count, and the traced run's
        ``items_per_s`` (computed by the caller as in an untraced run)."""
        n = max(self.item_count, 1)
        out: dict[str, dict] = {}
        for name in SELF_METRICS:
            out[f"{name}_self_s" if "." in name else f"{name}.self_s"] = \
                {"value": self._self.get(name, 0.0) / n, "unit": "s/item"}
        out["other_s"] = {"value": self._self.get(ITEM, 0.0) / n, "unit": "s/item"}
        out["symexpr.op_incl_s"] = {"value": self.op_seconds / n, "unit": "s/item"}
        for name in COUNT_METRICS:
            out[name] = {"value": self.counts.get(name, 0) / n, "unit": "1/item"}
        rows_in = self.counts.get("linalg.rank_rows_in", 0)
        ratio = Fraction(self.counts.get("linalg.rank_out", 0), rows_in) if rows_in else 0
        out["linalg.rank_useful_ratio"] = {"value": float(ratio), "unit": "ratio"}
        out["trace.item_s"] = {"value": self.item_seconds / n, "unit": "s"}
        out["trace.items_per_s"] = {"value": items_per_s, "unit": "1/s"}
        out["trace.spans"] = {"value": len(self._start) / n, "unit": "1/item"}
        return out

    def write(self, path) -> None:
        """One CSV row per span: item, span, parent, name, start, end."""
        t0 = self._start[0] if self._start else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("item", "span", "parent", "name", "start_s", "end_s"))
            for i in range(len(self._start)):
                writer.writerow((self._item[i], i, self._parent[i],
                                 self._names[self._name[i]],
                                 f"{self._start[i] - t0:.9f}",
                                 f"{self._end[i] - t0:.9f}"))
