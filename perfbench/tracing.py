"""Span tracer for meadows, installed from outside the package.

:meth:`Tracer.install` replaces public functions and methods of each meadows module
with wrappers that record one span per call: metric name, start, end, parent
span and request id.  Module functions are replaced in every meadows namespace
that holds them, so calls between modules are seen too.  ``eval_exact`` is
left alone inside ``meadows.terms``, where it recurses, so that only
top-level evaluations become spans.  Spans are kept in flat arrays and
written out by :meth:`Tracer.write`; per-metric call counts and self times
(span time minus the time of child spans) are summed as spans close.
"""

from __future__ import annotations

import json
import sys
import time
import zipfile
from array import array
from collections import defaultdict
from pathlib import Path

from meadows import approx, axioms, cli, complexes, exact, finite, simplify, terms

import oracles

REQUEST = "request"
_COMPLEX_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "inv", "__truediv__", "__rtruediv__", "conj", "re_part", "sign", "ssqrt", "__eq__",
)
_DEPTH_SPLIT = 3  # operand depth <= 3 is "lo", deeper is "hi"


class Tracer:
    def __init__(self) -> None:
        self.metric_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.stack: list[list[int]] = []
        self.request_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.max_depth = 0
        self.terms: dict[str, dict[int, list]] = defaultdict(dict)
        self._patches: list[tuple[object, str, object]] = []

    def metric(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.metric_names)
            self.metric_names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def spanned(self, fn, pick):
        """``fn`` wrapped to record a span under the metric id ``pick(args)``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests = self.parents, self.requests
        calls, self_ns, stack = self.calls, self.self_ns, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            mid = pick(args)
            index = len(names)
            names.append(mid)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[index] = t1
                elapsed = t1 - t0
                self_ns[mid] += elapsed - frame[1]
                calls[mid] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def request(self, call):
        """Run one benchmark request as a root span with a fresh request id."""
        self.request_id += 1
        return self.spanned(call, lambda args, mid=self.metric(REQUEST): mid)()

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, metric: str, hook=None) -> None:
        mid = self.metric(metric)
        wrapped = self.spanned(cls.__dict__[attr], lambda args: mid)
        self._set(cls, attr, hook(wrapped) if hook else wrapped)

    def _function(self, module, attr: str, wrapper, skip_home: bool = False) -> None:
        original = getattr(module, attr)
        for mod in [m for k, m in sys.modules.items() if k == "meadows" or k.startswith("meadows.")]:
            if skip_home and mod is module:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _traced_function(self, module, attr: str, metric: str, hook=None, skip_home=False) -> None:
        mid = self.metric(metric)
        wrapped = self.spanned(getattr(module, attr), lambda args: mid)
        self._function(module, attr, hook(wrapped) if hook else wrapped, skip_home)

    def install(self) -> None:
        counts = self.counts
        Real, Session = exact.Real, exact.Session

        def by_depth(metric: str):
            lo, hi = self.metric(f"{metric}.lo"), self.metric(f"{metric}.hi")

            def pick(args):
                depth = args[0].depth
                if len(args) > 1 and isinstance(args[1], Real):
                    depth = max(depth, args[1].depth)
                return lo if depth <= _DEPTH_SPLIT else hi

            return pick

        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._method(Real, attr, "exact.add")
        for attr, metric in (("__mul__", "exact.mul"), ("__rmul__", "exact.mul"), ("inv", "exact.inv"), ("sign", "exact.sign")):
            self._set(Real, attr, self.spanned(Real.__dict__[attr], by_depth(metric)))

        def ssqrt_hook(fn):
            def ssqrt(value):
                session = value.session
                before = session.depth
                out = fn(value)
                counts["adjoins"] += session.depth - before
                self.max_depth = max(self.max_depth, session.depth)
                return out

            return ssqrt

        self._method(Real, "ssqrt", "exact.ssqrt", ssqrt_hook)
        session_init = Session.__init__

        def counted_init(session, *args, **kwargs):
            counts["sessions"] += 1
            session_init(session, *args, **kwargs)

        self._set(Session, "__init__", counted_init)

        for attr in _COMPLEX_OPS:
            self._method(complexes.Complex, attr, "complexes.ops")
        for attr in ("element", "add", "sub", "mul", "neg"):
            self._method(finite.PrimeField, attr, "finite.ops")
        self._method(finite.PrimeField, "inv", "finite.inv")
        self._traced_function(finite, "lagrange_holds", "finite.lagrange")
        self._traced_function(finite, "scan_lagrange", "finite.lagrange")

        self._traced_function(approx, "approx_decimal", "approx.decimal")
        self._traced_function(terms, "parse", "terms.parse")
        self._traced_function(terms, "render", "terms.render")
        self._traced_function(terms, "gen_random_term", "terms.gen")
        self._traced_function(terms, "gen_random_context", "terms.gen")

        def sized(metric: str):
            seen = self.terms[metric]

            def hook(fn):
                def evaluate(term, *args, **kwargs):
                    entry = seen.get(id(term))
                    if entry is None:
                        seen[id(term)] = [term, 1]
                    else:
                        entry[1] += 1
                    return fn(term, *args, **kwargs)

                return evaluate

            return hook

        self._traced_function(terms, "eval_exact", "terms.eval_exact", sized("terms.eval_exact"), skip_home=True)
        self._traced_function(terms, "eval_mod_p", "terms.eval_mod_p", sized("terms.eval_mod_p"))

        def check_hook(fn):
            def checked(*args, **kwargs):
                report = fn(*args, **kwargs)
                counts["trials"] += report.trials
                if report.satisfied is not None:
                    counts["conditional_trials"] += report.trials
                    counts["satisfied"] += report.satisfied
                return report

            return checked

        for attr in ("check_equation", "check_conditional", "check_complex_law", "check_propagation"):
            self._traced_function(axioms, attr, "axioms.check", check_hook)
        self._traced_function(axioms, "random_value", "axioms.random_value")

        def rewrite_hook(fn):
            def rewrite(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["rewrite_steps"] += result.steps
                return result

            return rewrite

        self._traced_function(simplify, "rewrite_simplify", "simplify.rewrite", rewrite_hook)
        for attr in ("normalize_closed", "decide_closed_eq", "sign_of_closed"):
            self._traced_function(simplify, attr, "simplify.closed")
        self._traced_function(simplify, "value_to_term", "simplify.value_to_term")
        self._traced_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _calls(self, metric: str) -> int:
        mid = self._ids.get(metric)
        return 0 if mid is None else self.calls[mid]

    def _self_s(self, metric: str) -> float:
        mid = self._ids.get(metric)
        return 0.0 if mid is None else self.self_ns[mid] / 1e9

    def _nodes(self, metric: str) -> int:
        return sum(oracles.size(term) * n for term, n in self.terms[metric].values())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        c, s = self._calls, self._self_s
        out: dict[str, tuple[float, str]] = {
            "exact.sessions": (self.counts["sessions"], "count"),
            "exact.max_depth": (self.max_depth, "count"),
            "exact.add.calls": (c("exact.add"), "count"),
            "exact.add.self_s": (s("exact.add"), "s"),
        }
        for op in ("mul", "inv", "sign"):
            for band in ("lo", "hi"):
                out[f"exact.{op}.calls.{band}"] = (c(f"exact.{op}.{band}"), "count")
                out[f"exact.{op}.self_s.{band}"] = (s(f"exact.{op}.{band}"), "s")
        ssqrt_calls = c("exact.ssqrt")
        out["exact.ssqrt.calls"] = (ssqrt_calls, "count")
        out["exact.ssqrt.self_s"] = (s("exact.ssqrt"), "s")
        out["exact.ssqrt.adjoin_ratio"] = (self.counts["adjoins"] / ssqrt_calls if ssqrt_calls else 0.0, "ratio")
        for metric in ("approx.decimal", "complexes.ops", "finite.ops", "finite.inv", "finite.lagrange",
                       "terms.parse", "terms.render", "axioms.check", "axioms.random_value",
                       "simplify.rewrite", "simplify.closed", "cli.main"):
            out[f"{metric}.calls"] = (c(metric), "count")
            out[f"{metric}.self_s"] = (s(metric), "s")
        for metric in ("terms.eval_exact", "terms.eval_mod_p"):
            out[f"{metric}.nodes"] = (self._nodes(metric), "count")
            out[f"{metric}.self_s"] = (s(metric), "s")
        out["terms.gen.self_s"] = (s("terms.gen"), "s")
        out["axioms.trials"] = (self.counts["trials"], "count")
        cond = self.counts["conditional_trials"]
        out["axioms.satisfied_ratio"] = (self.counts["satisfied"] / cond if cond else 0.0, "ratio")
        out["simplify.rewrite.steps"] = (self.counts["rewrite_steps"], "count")
        out["simplify.value_to_term.self_s"] = (s("simplify.value_to_term"), "s")
        return out

    def exact_calls(self) -> int:
        """Calls that reached the exact kernel, sessions included."""
        kernel = [n for n in self.metric_names if n.startswith("exact.")]
        return self.counts["sessions"] + sum(self._calls(n) for n in kernel)

    def write(self, path: Path, header: dict) -> None:
        """Write every span: a JSON header plus one column of machine integers per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.names, "start_ns": self.starts, "end_ns": self.ends,
                   "parent": self.parents, "request": self.requests}
        header = dict(header, spans=len(self.names), metrics=self.metric_names, byteorder=sys.byteorder,
                      columns={k: v.typecode for k, v in columns.items()})
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as z:
            z.writestr("header.json", json.dumps(header, indent=1))
            for name, data in columns.items():
                z.writestr(name, data.tobytes())
