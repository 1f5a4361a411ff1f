"""Spans around privcoal's public functions, installed from outside.

The program carries no instrumentation, so the tracer rebinds each
traced name to a wrapper in every privcoal module that holds it:
`from .symfun import elem_sym_all` copies the binding into `coalition`,
and only rebinding that copy catches the calls made there.  A traced
name missing from the program is listed in `absent` and skipped.

Each call records a span (name, start, end, parent span, op id) in
memory; spans are written out once at the end.  Self time is a span's
duration minus the time its child spans cover.  Calls and self time are
aggregated for every call; the span log itself is capped so a scan of
millions of tracks cannot exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

# (module, attribute) per layer; "Class.method" names a method.
TARGETS = (
    ("field", "PrimeField.inv"),
    ("symfun", "elem_sym_all"),
    ("symfun", "elem_sym"),
    ("symfun", "vandermonde_det"),
    ("linalg", "row_echelon"),
    ("linalg", "in_rowspan"),
    ("linalg", "solve_square"),
    ("linalg", "solve_affine"),
    ("coalition", "is_privileged"),
    ("coalition", "privileged_rank_oracle"),
    ("scheme", "deal"),
    ("scheme", "recover"),
    ("scheme", "recover_full"),
    ("scheme", "recover_privileged"),
    ("scheme", "extension_track"),
    ("scheme", "derive_access_structure"),
    ("audit", "perfectness_report"),
    ("audit", "consistent_polynomials"),
    ("cli", "main"),
)

PACKAGE = "privcoal"
SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.absent: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list[int]] = []  # [name index, start, child ns, span id]
        self._next_span = 1
        self._restore: list[tuple[object, str, object]] = []
        # counters for the ratio metrics
        self.privileged_true = 0
        self.oracle_calls = 0
        self.coalition_recovers = 0
        self.coalition_recover_oracle_calls = 0
        self.recover_repeats = 0
        self._recover_keys: set = set()
        self.vectors_yielded = 0

    # -- spans -------------------------------------------------------
    def _enter(self, idx: int, span_id: int | None = None) -> list[int]:
        if span_id is None:
            self.calls[idx] += 1
            span_id = self._next_span
            self._next_span += 1
        frame = [idx, perf_counter_ns(), 0, span_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list[int], record: bool = True) -> int:
        end = perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        self.self_ns[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if record:
            self._record(frame[0], frame[1], end, frame[3])
        return end

    def _record(self, idx: int, start: int, end: int, span_id: int) -> None:
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][3] if self._stack else 0
            self.spans.append((span_id, idx, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _wrap_function(self, idx: int, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = observe.before(args, kwargs) if observe else None
            frame = tracer._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
            if observe:
                observe.after(token, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, idx: int, fn):
        """Times a generator only while it runs; one span from first resume
        to close, whose self time excludes the consumer's work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tracer.calls[idx] += 1
            span_id = tracer._next_span
            tracer._next_span += 1
            first = None
            last = None
            try:
                while True:
                    frame = tracer._enter(idx, span_id)
                    first = first or frame[1]
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = tracer._leave(frame, record=False)
                    tracer.vectors_yielded += 1
                    yield value
            finally:
                inner.close()
                if first is not None:
                    tracer._record(idx, first, last, span_id)

        return wrapper

    # -- installation ------------------------------------------------
    def install(self) -> None:
        layers = {}
        for module_name in dict.fromkeys(m for m, _ in TARGETS):
            try:
                layers[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                layers[module_name] = None
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            idx = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            module = layers[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap_function(idx, fn, None))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(idx, fn)
            else:
                wrapper = self._wrap_function(idx, fn, self._observer(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- counters ----------------------------------------------------
    def _observer(self, name: str):
        if name == "coalition.is_privileged":
            return _Observer(after=self._after_is_privileged)
        if name == "coalition.privileged_rank_oracle":
            return _Observer(after=self._after_oracle)
        if name == "scheme.recover":
            return _Observer(before=self._before_recover, after=self._after_recover)
        return None

    def _after_is_privileged(self, token, args, kwargs, result) -> None:
        self.privileged_true += bool(result)

    def _after_oracle(self, token, args, kwargs, result) -> None:
        self.oracle_calls += 1

    def _before_recover(self, args, kwargs):
        if len(args) != 3:
            return False, self.oracle_calls
        shares, j, cfg = args
        pairs = shares.items() if hasattr(shares, "items") else shares
        ids = tuple(sorted(i for i, _ in pairs))
        key = (ids, j, cfg.t, cfg.field.p)
        if key in self._recover_keys:
            self.recover_repeats += 1
        self._recover_keys.add(key)
        return len(ids) < cfg.t, self.oracle_calls

    def _after_recover(self, token, args, kwargs, result) -> None:
        coalition_route, oracle_before = token
        if coalition_route:
            self.coalition_recovers += 1
            self.coalition_recover_oracle_calls += self.oracle_calls - oracle_before

    # -- output ------------------------------------------------------
    def per_layer(self, ops: int, cells: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time for every target, and the ratios."""
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx] / ops, "calls/op")
            out[f"{name}.self_ms"] = (self.self_ns[idx] / ops / 1e6, "ms/op")
        calls = dict(zip(self.names, self.calls))
        priv_calls = calls.get("coalition.is_privileged", 0)
        recover_calls = calls.get("scheme.recover", 0)
        out["coalition.hit_ratio"] = (
            self.privileged_true / priv_calls if priv_calls else 0.0, "ratio")
        out["scheme.oracle_per_recover"] = (
            self.coalition_recover_oracle_calls / self.coalition_recovers
            if self.coalition_recovers else 0.0, "calls/recover")
        out["scheme.repeat_share"] = (
            self.recover_repeats / recover_calls if recover_calls else 0.0, "ratio")
        out["audit.vectors"] = (self.vectors_yielded / ops, "vectors/op")
        out["audit.vectors_per_cell"] = (
            self.vectors_yielded / cells if cells else 0.0, "vectors/cell")
        return out

    def write(self, path: str) -> None:
        doc = {
            "names": self.names,
            "absent": self.absent,
            "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "dropped": self.dropped,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


class _Observer:
    def __init__(self, before=None, after=None) -> None:
        self.before = before or (lambda args, kwargs: None)
        self.after = after or (lambda token, args, kwargs, result: None)
