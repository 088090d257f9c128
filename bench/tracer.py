"""Per-layer tracing of braidjones from outside the package.

``Tracer.install`` replaces every binding of every public function and
method of the package's modules with a wrapper that records a span: module
globals (``analysis`` and ``cli`` hold their own ``jones``), class
attributes (``LaurentPoly.__rmul__`` and ``__radd__`` are attributes of
their own) and the re-exports of ``braidjones/__init__``. Self time is a
span's duration minus the time its child spans cover, computed as each span
closes. Spans stay in memory, up to ``SPAN_CAP``, and are written out when
the run ends. ``uninstall`` puts the original bindings back.

Generator functions (``BraidWord.letters``, ``LaurentPoly.terms``) and
properties are not wrapped: a wrapper would time only their creation.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("laurent", "braid", "engine", "bracket", "fibonacci", "analysis", "cli", "selftest")
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
SPAN_CAP = 200_000
BUCKETS = ((64, "le64"), (512, "le512"))

MUL = ("laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__rmul__")
ADD = ("laurent.LaurentPoly.__add__", "laurent.LaurentPoly.__radd__")
EXACT_DIV = "laurent.LaurentPoly.exact_div"
JONES = "engine.jones"


def _bucket(size: int) -> str:
    for limit, name in BUCKETS:
        if size <= limit:
            return name
    return "gt512"


def _terms(x) -> int:
    """Term count of a ring operand, which may be a plain int."""
    return (1 if x else 0) if isinstance(x, int) else len(x)


class Tracer:
    def __init__(self) -> None:
        self.on = True
        self.stack: list[list] = []  # open spans: [child time, id, name]
        self.stats: dict[str, list] = {}  # span name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.next_id = 0
        self.memos: dict[int, tuple[dict, int]] = {}  # table, size when first seen
        self.memo_supported = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        stack, spans = self.stack, self.spans
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [0.0, tracer.next_id, name]
            parent = stack[-1][1] if stack else -1
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += own
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent, name, start, end))
            if after is not None:
                after(args, result, duration, own)
            return result

        return traced

    # per-span counters ------------------------------------------------------

    def _after_mul(self, args, result, duration, own):
        a, b = _terms(args[0]), _terms(args[1])
        self._add("laurent.mul.term_products", a * b)
        self._add("laurent.mul.self_s." + _bucket(max(a, b)), own)

    def _after_exact_div(self, args, result, duration, own):
        self._add("laurent.exact_div.term_ops", len(result) * _terms(args[1]))
        self._add("laurent.exact_div.self_s." + _bucket(len(args[0])), own)

    def _before_jones(self, args, kwargs):
        memo = args[1] if len(args) > 1 else kwargs.get("memo")
        if type(memo) is dict and id(memo) not in self.memos:
            self.memos[id(memo)] = (memo, len(memo))

    def _after_oracle(self, args, result, duration, own):
        if any(frame[2] == JONES for frame in self.stack):
            self._add("engine.oracle_calls", 1)
            self._add("engine.oracle_s", duration)

    def _after_naive(self, args, result, duration, own):
        crossings = sum(abs(s.exp) for s in args[0].syllables)
        self._add("bracket.naive.states", 2**crossings)

    def _hooks(self, name: str):
        if name in MUL:
            return None, self._after_mul
        if name == EXACT_DIV:
            return None, self._after_exact_div
        if name == JONES:
            return self._before_jones, None
        if name == "bracket.jones_via_bracket":
            return None, self._after_oracle
        if name == "bracket.bracket_naive":
            return None, self._after_naive
        return None, None

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            wrapped = self.wrap(name, fn, *self._hooks(name))
            self._set(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        from braidjones import engine

        self.memo_supported = "memo" in inspect.signature(engine.jones).parameters
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"braidjones.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, *self._hooks(name))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "braidjones" and not modname.startswith("braidjones."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(f"{span_id} {parent} {name} {start:.9f} {end:.9f}\n")

    def summary(self) -> dict:
        """Aggregates that can be summed across processes."""
        return {
            "stats": self.stats,
            "counts": self.counts,
            "memo_entries": sum(len(m) - start for m, start in self.memos.values()),
            "memo_supported": self.memo_supported,
            "spans": len(self.spans),
            "spans_dropped": max(0, self.next_id - len(self.spans)),
        }


def merge(summaries: list[dict]) -> dict:
    out = {"stats": {}, "counts": {}, "memo_entries": 0, "spans": 0, "spans_dropped": 0,
           "memo_supported": all(s["memo_supported"] for s in summaries)}
    for s in summaries:
        for name, (calls, total, own) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        for key in ("memo_entries", "spans", "spans_dropped"):
            out[key] += s[key]
    return out


def layer_metrics(summary: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit)."""
    stats, counts = summary["stats"], summary["counts"]
    memo_supported = summary["memo_supported"]

    def total(names, field):
        return sum(stats[n][field] for n in names if n in stats)

    def prefixed(prefix, field):
        return sum(v[field] for k, v in stats.items() if k.startswith(prefix))

    out: dict[str, tuple[float, str]] = {}
    out["laurent.mul.calls"] = (total(MUL, 0), "count")
    out["laurent.mul.term_products"] = (counts.get("laurent.mul.term_products", 0), "count")
    out["laurent.mul.self_s"] = (total(MUL, 2), "s")
    for b in ("le64", "le512", "gt512"):
        out[f"laurent.mul.self_s.{b}"] = (counts.get(f"laurent.mul.self_s.{b}", 0.0), "s")
    out["laurent.exact_div.calls"] = (total([EXACT_DIV], 0), "count")
    out["laurent.exact_div.term_ops"] = (counts.get("laurent.exact_div.term_ops", 0), "count")
    out["laurent.exact_div.self_s"] = (total([EXACT_DIV], 2), "s")
    for b in ("le64", "le512", "gt512"):
        out[f"laurent.exact_div.self_s.{b}"] = (counts.get(f"laurent.exact_div.self_s.{b}", 0.0), "s")
    out["laurent.add.calls"] = (total(ADD, 0), "count")
    out["laurent.add.self_s"] = (total(ADD, 2), "s")
    out["laurent.share"] = (prefixed("laurent.", 2) / wall_s if wall_s > 0 else 0.0, "ratio")
    out["braid.canonical.calls"] = (total(["braid.BraidWord.canonical"], 0), "count")
    out["braid.canonical.self_s"] = (total(["braid.BraidWord.canonical"], 2), "s")
    jones_calls = total([JONES], 0)
    out["engine.jones.calls"] = (jones_calls, "count")
    out["engine.jones.self_s"] = (total([JONES], 2), "s")
    entries = summary["memo_entries"] if memo_supported else 0
    out["engine.memo.entries"] = (entries, "count")
    hit = 1 - entries / jones_calls if memo_supported and jones_calls else 0.0
    out["engine.memo.hit_ratio"] = (hit, "ratio")
    out["engine.oracle_calls"] = (counts.get("engine.oracle_calls", 0), "count")
    out["engine.oracle_s"] = (counts.get("engine.oracle_s", 0.0), "s")
    out["engine.family.steps"] = (total(["engine.step_up", "engine.step_down"], 0), "count")
    out["engine.genfun.coefficient_s"] = (total(["engine.GeneratingFunction.coefficient"], 1), "s")
    out["bracket.tl.calls"] = (total(["bracket.bracket_tl"], 0), "count")
    out["bracket.tl.self_s"] = (total(["bracket.bracket_tl"], 2), "s")
    out["bracket.naive.calls"] = (total(["bracket.bracket_naive"], 0), "count")
    out["bracket.naive.states"] = (counts.get("bracket.naive.states", 0), "count")
    out["bracket.naive.self_s"] = (total(["bracket.bracket_naive"], 2), "s")
    out["fibonacci.calls"] = (prefixed("fibonacci.", 0), "count")
    out["fibonacci.self_s"] = (prefixed("fibonacci.", 2), "s")
    out["analysis.calls"] = (prefixed("analysis.", 0), "count")
    out["analysis.self_s"] = (prefixed("analysis.", 2), "s")
    return out
