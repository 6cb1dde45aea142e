"""Per-layer spans for the traced benchmark run, installed from outside.

`instrument` wraps every public function of the anchorlab layer modules and
rebinds each name that refers to one: the defining module's global, every
`from ... import` copy in another module, tuples of functions such as
`batteries.DEFAULT_BATTERY`, and default arguments that hold such a tuple.
Calls inside a module resolve through its globals, so they are caught too.

A span's inclusive time counts only the outermost call of a name, and its
self time excludes the spans it opened. Everything stays in memory; the
benchmark reads `Tracer.stats` and `Tracer.counts` when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import math
import sys
import time
import types

LAYERS = (
    "datamodel",
    "numkern",
    "estimators",
    "sparse",
    "modelsel",
    "scm",
    "batteries",
)

# Called once per coordinate update inside the descent loop: a span there
# would time the tracer rather than the solver.
UNTRACED = frozenset({"sparse.soft_threshold"})

FITS = frozenset({"estimators.fit_anchor", "estimators.fit_iv", "sparse.fit_anchor_lasso"})


class Stat:
    __slots__ = ("calls", "failed", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.s = 0.0
        self.self_s = 0.0


def _qr_flop(basis) -> float:
    """Householder QR plus forming the thin Q of an n x q block."""
    shape = getattr(basis, "shape", ())
    if len(shape) != 2:
        return 0.0
    n, q = shape
    k = min(n, q)
    return 2.0 * (2.0 * n * q * k - (2.0 / 3.0) * k**3)


class Tracer:
    """Span statistics keyed by "<layer>.<function>" plus work counters."""

    def __init__(self):
        self.stats = collections.defaultdict(Stat)
        self.counts = collections.Counter()
        self._stack = []  # [name, seconds covered by child spans]
        self._active = collections.Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._active[name] -= 1
            if self._stack:
                self._stack[-1][1] += elapsed
            stat = self.stats[name]
            stat.calls += 1
            stat.self_s += elapsed - frame[1]
            if self._active[name] == 0:
                stat.s += elapsed
            if not ok:
                stat.failed += 1

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        if name in FITS and not any(f[0] in FITS for f in self._stack):
            self.counts["fits"] += 1
        with self.span(name):
            result = fn(*args, **kwargs)
        self._count(name, parent, args, kwargs, result)
        return result

    def _count(self, name, parent, args, kwargs, result):
        counts = self.counts
        if name == "datamodel.read_csv":
            config = args[1] if len(args) > 1 else kwargs["config"]
            width = (
                result.d + 1 + len(config.get("anchors", []))
                + len(config.get("drop_columns", []))
            )
            counts["read_csv.cells"] += result.n * width
        elif name == "datamodel.write_csv":
            ds = args[1] if len(args) > 1 else kwargs["ds"]
            labels = args[2] if len(args) > 2 else kwargs.get("anchor_labels")
            counts["write_csv.cells"] += ds.n * (1 + ds.d + (1 if labels is not None else ds.q))
        elif name == "numkern.orthonormal_range":
            counts["qr_flop"] += _qr_flop(args[0] if args else kwargs["basis"])
        elif name == "sparse.lasso_coordinate_descent":
            _, sweeps, _, converged = result
            design = args[0] if args else kwargs["design"]
            counts["cd_sweeps"] += sweeps
            counts["cd_updates"] += sweeps * design.shape[1]
            counts["cd_nonconverged"] += not converged
        elif name == "estimators.fit_anchor":
            gamma = args[1] if len(args) > 1 else kwargs["gamma"]
            if gamma != math.inf:
                counts["fit_anchor.finite"] += 1
            if parent == "sparse.fit_anchor_lasso":
                # an unpenalised lasso call delegates to the dense solve
                counts["fit_anchor_lasso.delegated"] += 1


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _package_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "anchorlab" or key.startswith("anchorlab."))
    ]


def instrument(tracer: Tracer):
    """Install spans on every public layer function; returns an undo callable."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"anchorlab.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in UNTRACED
                or not isinstance(value, types.FunctionType)
                or value.__module__ != module.__name__
            ):
                continue
            wrapped[value] = _wrapper(tracer, name, value)

    def swap(value):
        if isinstance(value, types.FunctionType):
            return wrapped.get(value, value)
        if isinstance(value, tuple) and any(
            isinstance(v, types.FunctionType) and v in wrapped for v in value
        ):
            return tuple(swap(v) for v in value)
        return value

    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not value:
                undo.append(functools.partial(setattr, module, attr, value))
                setattr(module, attr, new)
            if isinstance(value, types.FunctionType) and value.__defaults__:
                defaults = tuple(swap(v) for v in value.__defaults__)
                if any(a is not b for a, b in zip(defaults, value.__defaults__)):
                    undo.append(
                        functools.partial(setattr, value, "__defaults__", value.__defaults__)
                    )
                    value.__defaults__ = defaults

    def restore():
        for action in reversed(undo):
            action()

    return restore
