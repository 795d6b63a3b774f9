"""Outside-in tracing of the hsagg public functions.

While a Tracer is installed, every traced function is replaced by a
wrapper at each place a caller looks it up: every module attribute of the
hsagg package that holds the original function object, plus the
``Matrix`` methods on their class.  A wrapper records a span (name, start,
end, parent span, op id) only while an op is active, so checks the
benchmark makes between ops add nothing.  Spans stay in memory as flat
arrays and are written out once, at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute); the module attribute is the original.
FUNCTIONS = [
    ("protocol.build_scheme", "hsagg.protocol", "build_scheme"),
    ("protocol.run_round", "hsagg.protocol", "run_round"),
    ("protocol.sample_source_key", "hsagg.protocol", "sample_source_key"),
    ("protocol.derive_keys", "hsagg.protocol", "derive_keys"),
    ("protocol.user_encode", "hsagg.protocol", "user_encode"),
    ("protocol.relay_encode", "hsagg.protocol", "relay_encode"),
    ("protocol.server_decode", "hsagg.protocol", "server_decode"),
    ("protocol.direct_sum", "hsagg.protocol", "direct_sum"),
    ("protocol.random_inputs", "hsagg.protocol", "random_inputs"),
    ("key_design.select_field", "hsagg.key_design", "select_field"),
    ("key_design.build_keys", "hsagg.key_design", "build_keys"),
    ("key_design.validate_scheme", "hsagg.key_design", "validate_scheme"),
    ("key_design.circulant_ratio_valid", "hsagg.key_design", "circulant_ratio_valid"),
    ("code_design.build_code_design", "hsagg.code_design", "build_code_design"),
    ("audit.full_audit", "hsagg.audit", "full_audit"),
    ("audit.algebraic_audit", "hsagg.audit", "algebraic_audit"),
    ("audit.exhaustive_mi_audit", "hsagg.audit", "exhaustive_mi_audit"),
    ("audit.exhaustive_recovery_audit", "hsagg.audit", "exhaustive_recovery_audit"),
    ("rates.measured_rates", "hsagg.rates", "measured_rates"),
    ("cli.main", "hsagg.cli", "main"),
]

MATRIX_METHODS = {
    "rank": "gf.Matrix.rank",
    "solve": "gf.Matrix.solve",
    "inverse": "gf.Matrix.inverse",
    "nullspace": "gf.Matrix.nullspace",
    "__matmul__": "gf.Matrix.matmul",
}


def round_field_ops(params, inputs) -> int:
    """Field multiply-adds of one run_round, computed from (K, B, L, source_key_len).

    Per block: key derivation K*n, user encode K*B*(B+1), relay sums K*B,
    server decode B*K, where B is the coded block size.
    """
    K, bs, n = params.K, params.block_size, params.source_key_len
    blocks = len(inputs[1]) // bs
    return blocks * (K * n + K * bs * (bs + 1) + 2 * K * bs)


def audit_states(params, L) -> int:
    """Realizations one exhaustive audit enumerates: q^(K*L + (L/B)*n)."""
    blocks = L // params.block_size
    return params.field.q ** (params.K * L + blocks * params.source_key_len)


def _count_run_round(args, kwargs, result):
    return "protocol.field_ops", round_field_ops(args[0], args[1])


def _count_full_audit(args, kwargs, result):
    level = kwargs.get("level", args[1] if len(args) > 1 else "algebraic")
    if level != "exhaustive":
        return None
    params = args[0]
    L = kwargs.get("L", args[2] if len(args) > 2 else None)
    return "audit.states", audit_states(params, params.block_size if L is None else L)


def _count_build_keys(args, kwargs, result):
    if result.regime == "circulant":
        return "key_design.circulant_built", 1
    return None


COUNTERS = {
    "protocol.run_round": _count_run_round,
    "audit.full_audit": _count_full_audit,
    "key_design.build_keys": _count_build_keys,
}


class Tracer:
    """Install with ``with Tracer() as tr``; mark ops with begin/end."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.counters: dict[str, int] = defaultdict(int)
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self.ops += 1

    def end(self) -> None:
        self._op = -1
        self._stack.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer._op)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            if counter is not None:
                hit = counter(args, kwargs, result)
                if hit is not None:
                    tracer.counters[hit[0]] += hit[1]
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "hsagg" or n.startswith("hsagg.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        matrix = sys.modules["hsagg.gf"].Matrix
        for method, name in MATRIX_METHODS.items():
            original = matrix.__dict__[method]
            self._restore.append((matrix, method, original))
            setattr(matrix, method, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span: (name id, duration minus the time of its direct children)."""
        names = np.asarray(self.span_name)
        parent = np.asarray(self.span_parent)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur - child

    def per_op(self) -> dict[str, float]:
        """Per-op call counts, self times and counters, keyed by metric name."""
        ops = max(self.ops, 1)
        names, self_s = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=self_s, minlength=len(self.names))
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[name_id]) / ops
            out[f"{name}.self_s"] = float(totals[name_id]) / ops
        for name, value in self.counters.items():
            out[name] = value / ops
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            op=np.asarray(self.span_op),
        )
