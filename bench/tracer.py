"""In-memory span tracer that wraps the public functions of `entlink`.

Nothing under `src/entlink` knows about it.  `Tracer.install()` replaces
every public function of every `entlink` module at each name it is bound
to (so `twolink.absorption_time`, imported from `markov`, is wrapped as
well as `markov.absorption_time`), plus `DensityOperator.__init__`.  Each
call records a span (name, start, end, parent, label, attributes) in a
list; nothing is written until the pass has ended.

The benchmark labels the part of the pass it is in (for example the
ladder rung `m8`) through `Tracer.label`; spans carry the label that was
current when they opened.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


def _lp_attrs(args, kwargs, result):
    # keep the LP itself; its nonzeros are counted after the pass
    return {"lp": args[0] if args else kwargs["lp"]}


def _density_attrs(args, kwargs, result):
    mat = args[1] if len(args) > 1 else kwargs["mat"]
    return {"dim": int(np.shape(mat)[0])}


def _channel_attrs(args, kwargs, result):
    rho = args[0] if args else kwargs["rho_joint"]
    return {"dim": rho.dim}


def _cli_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    return {"selftest": "--selftest" in argv}


def _run_all_attrs(args, kwargs, result):
    return {"records": [float(r["seconds"]) for r in result]}


def _two_link_mc_attrs(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    steps = int(result["wait_samples"].sum()) + result["exhausted"] * cfg.horizon
    return {"steps": steps, "trials": cfg.trials,
            "exhausted": int(result["exhausted"])}


def _elem_mc_attrs(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    horizon = result["freq"].shape[0]
    return {"steps": cfg.trials * (horizon - 1), "trials": cfg.trials,
            "exhausted": 0}


# span name -> attribute extractor (args, kwargs, result) -> dict
ATTRS = {
    "lp.solve": _lp_attrs,
    "qstate.DensityOperator": _density_attrs,
    "qstate.swap_chain_channel": _channel_attrs,
    "qstate.ghz_swap_channel": _channel_attrs,
    "cli.main": _cli_attrs,
    "selftest.run_all": _run_all_attrs,
    "mc.simulate_two_link": _two_link_mc_attrs,
    "mc.simulate_elem": _elem_mc_attrs,
}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "label", "attrs")

    def __init__(self, name, parent, label):
        self.name, self.parent, self.label = name, parent, label
        self.t0 = self.t1 = 0.0
        self.attrs = None

    @property
    def dur(self):
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._label = ""

    @contextmanager
    def label(self, text):
        prev, self._label = self._label, text
        try:
            yield
        finally:
            self._label = prev

    def _wrap(self, fn, name):
        extract = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self._label)
            self.spans.append(span)
            self._stack.append(idx)
            span.t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = _clock()
                self._stack.pop()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result
        return wrapper

    def install(self, package="entlink"):
        """Wrap every public function of every loaded `package` module at
        every module-level name bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package + ".")
                        or obj.__name__.startswith("_")):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.split(".", 1)[1]
                    wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(mod, attr, wrapped[obj])
        qstate = sys.modules[package + ".qstate"]
        cls = qstate.DensityOperator
        cls.__init__ = self._wrap(cls.__init__, "qstate.DensityOperator")

    def self_times(self):
        """Each span's duration minus the time its wrapped children took."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]
