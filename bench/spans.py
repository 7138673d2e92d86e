"""Span tracing and result observation installed from outside the package.

Nothing under ``src/`` knows about this module.  It replaces functions at
every ``shintani.*`` module attribute that binds them (``from .qf import
enumerate_classes`` binds ``shintani.lifting.enumerate_classes`` as well as
``shintani.qf.enumerate_classes``), and restores them on exit.

A span is one call of a wrapped function.  A layer's self time is the sum,
over its spans, of the span's duration minus the part its child spans
cover, measured in CPU time of the span's thread (``time.thread_time``).
Span stacks are kept per thread, and the tasks of the ``lifting`` thread
pool open ``lifting`` spans on the worker threads.  CPU time keeps the
attribution honest under ``--threads 2``: a thread waiting for the pool or
for the interpreter lock is not busy, so per-layer self times sum to the
pass's CPU time rather than to a multiple of its wall time.  The top-level
spans of the main thread are also timed on the wall clock, to show how much
of a pass the spans cover.

``arith`` helpers and the methods of value classes (``QuadForm``,
``MomentDist2``, ``TaggedDist2``, ``SymPoly`` arithmetic) are not wrapped:
they are small and hot, and their time counts in the caller's self time.
``SymPoly.act`` is the one method wrapped, for ``modsym.act_calls``.
"""

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter, thread_time

LAYERS = ("cosets", "qf", "modsym", "dist", "manin", "ocsymb", "linalg",
          "lifting", "cli")

# Private functions wrapped besides each layer's public ones: ``_act_blocks``
# is imported by ``ocsymb``, and ``_map_indices`` runs the thread pool.
PRIVATE = {"dist": ("_act_blocks",), "lifting": ("_map_indices",)}
METHODS = {"modsym": (("SymPoly", "act"),)}
SPANS = "#spans"


class Patches:
    """Rebind package attributes and undo every rebinding on exit."""

    def __init__(self):
        self._undo = []

    def rebind(self, module, name, new):
        """Point every shintani module attribute bound to module.name at new."""
        old = getattr(module, name)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != "shintani" and not mod_name.startswith("shintani."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self.set(mod, attr, new)

    def set(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)
        return False


class LiftGuard:
    """Count the expansions each op computes and how many are nonzero.

    Installed on ``theta_classical`` and ``theta_oc`` in every pass, traced
    or not; it adds one ``is_zero`` test per expansion.
    """

    def __init__(self):
        self.lifts = 0
        self.nonzero = 0
        self._lock = threading.Lock()

    def reset(self):
        self.lifts = self.nonzero = 0

    def install(self, patches):
        from shintani import lifting

        for name in ("theta_classical", "theta_oc"):
            patches.rebind(lifting, name, self._observe(getattr(lifting, name)))

    def _observe(self, fn):
        guard = self

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            with guard._lock:
                guard.lifts += 1
                guard.nonzero += not result.is_zero()
            return result

        return observed


class Tracer:
    """Per-layer self time, and the counts the per-layer metrics read."""

    def __init__(self):
        self._local = threading.local()
        self._accs = []
        self._main = threading.main_thread()
        self.top_s = 0.0
        self.counts = Counter()
        self.enumerated = set()
        self.p1_levels = set()
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.acc
        except AttributeError:
            local.stack, local.acc = [], Counter()
            self._accs.append(local.acc)
            return local.stack, local.acc

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def wrap(self, layer, fn, hook=None):
        """fn timed as a span of layer; hook(args, kwargs, result) counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, acc = tracer._state()
            top = not stack
            if top:
                wall0 = perf_counter()
            span = [thread_time(), 0.0]  # CPU start, CPU time of children
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                cpu = thread_time() - span[0]
                acc[layer] += cpu - span[1]
                acc[SPANS] += 1
                if top:
                    if threading.current_thread() is tracer._main:
                        tracer.top_s += perf_counter() - wall0
                else:
                    stack[-1][1] += cpu
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _traced_map(self, original):
        """_map_indices whose tasks are lifting spans on their own thread."""
        tracer = self

        def mapped(fn, ns, threads):
            ns = list(ns)
            tracer.count("lifting.coeffs", len(ns))
            return original(tracer.wrap("lifting", fn), ns, threads)

        return functools.wraps(original)(mapped)

    def totals(self):
        """({layer: self seconds}, number of spans closed)."""
        total = Counter()
        for acc in self._accs:
            total.update(acc)
        return {layer: total.get(layer, 0.0) for layer in LAYERS}, total[SPANS]

    def install(self, patches):
        hooks = self._hooks()
        for layer in LAYERS:
            module = importlib.import_module(f"shintani.{layer}")
            names = [name for name, obj in vars(module).items()
                     if not name.startswith("_") and _defined_in(obj, module)]
            names += PRIVATE.get(layer, ())
            for name in names:
                fn = getattr(module, name)
                if name == "_map_indices":
                    fn = self._traced_map(fn)
                hook = hooks.get(f"{layer}.{name}")
                patches.rebind(module, name, self.wrap(layer, fn, hook))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                hook = hooks.get(f"{layer}.{cls_name}.{meth}")
                patches.set(cls, meth,
                            self.wrap(layer, getattr(cls, meth), hook))

    def _hooks(self):
        def counter(name):
            return lambda args, kwargs, result: self.count(name)

        def enumerate_hook(args, kwargs, result):
            self.count("qf.enumerate_calls")
            self.count("qf.classes", len(result))
            with self._lock:
                self.enumerated.add(tuple(args))

        def p1_hook(args, kwargs, result):
            with self._lock:
                self.p1_levels.add(args[0])

        def up_hook(args, kwargs, result):
            d = args[1] if len(args) > 1 else kwargs.get("d")
            if d is not None:
                self.count("ocsymb.up_columns", result.shape[1])

        def zpm_hook(args, kwargs, result):
            shape = getattr(args[0], "shape", None) or (len(args[0]),
                                                        len(args[0][0]))
            self.count("linalg.zpm_calls")
            self.count("linalg.zpm_cells", int(shape[0]) * int(shape[1]))

        return {
            "qf.enumerate_classes": enumerate_hook,
            "cosets.p1_classes": p1_hook,
            "modsym.SymPoly.act": counter("modsym.act_calls"),
            "dist.act_S0": counter("dist.act_calls"),
            "manin.apply_double_coset": counter("manin.double_coset_calls"),
            "ocsymb.up_matrix": up_hook,
            "linalg.zpm_kernel": zpm_hook,
            "linalg.zpm_solve": zpm_hook,
            "linalg.frac_rref": counter("linalg.frac_calls"),
            "linalg.frac_nullspace": counter("linalg.frac_calls"),
            "linalg.frac_solve": counter("linalg.frac_calls"),
        }


def _defined_in(obj, module):
    if inspect.isclass(obj) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__
