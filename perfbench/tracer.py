"""Spans and counters recorded from outside the program.

The tracer replaces each traced public function of ``thetachar`` with a
wrapper at every module binding that callers use (``from .theta import
theta_null`` in ``verify`` is a separate binding from ``theta.theta_null``).
Each wrapper records one span: name, start, end, parent span, check id and
level label.  Functions named in ``COUNTED`` get a counter only, because
wrapper overhead would swamp their own time.  Spans stay in memory until
``write_spans`` is called at the end of the run.  Nothing under ``src/`` is
edited, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions that get a span; besides the ones the metrics
# name, this holds every public function through which one layer calls
# another, so that each layer's self time excludes the layers below it
SPANNED = {
    "theta": ("theta", "theta_null", "theta_grad", "jacobian_nullwert"),
    "verify": (
        "validate_tau", "require_valid_tau", "bitangent_frame", "det3",
        "s_value", "jacobi_check", "iota_value", "weber_sign",
        "sign_transport", "weber_verify", "family_for_pair",
        "random_fundamental_system",
    ),
    "aronhold": (
        "enumerate_aronhold_sets", "basis_for_pair", "weber_systems",
        "is_aronhold", "family_from_fundamental",
    ),
    "symplectic": (
        "find_sigma", "lift_sp", "phi_transform", "random_symplectic_f2",
        "act_f2",
    ),
    "formats": ("load_tau",),
}
# layer -> public functions that are only counted
COUNTED = {"chars": ("sum3", "arf", "lift01")}

# theta functions that sum the lattice, with the position of their tau argument
LATTICE_SUMS = {"theta.theta": 2, "theta.theta_grad": 1}

NAME, START, END, PARENT, CHECK, LABEL = range(6)
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "check", "label")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.points: Counter = Counter()  # level label -> lattice points summed
        self.check_id = -1  # -1 marks set-up and per-matrix preparation
        self.label = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._radius_cache: dict = {}
        self._theta = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.check_id, self.label])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _lattice_points(self, args, kwargs, tau_pos: int) -> int:
        theta_mod = self._theta
        tau = kwargs["tau"] if "tau" in kwargs else args[tau_pos]
        if "cfg" in kwargs:
            cfg = kwargs["cfg"]
        elif len(args) > tau_pos + 1:
            cfg = args[tau_pos + 1]
        else:
            cfg = theta_mod.DEFAULT_CONFIG
        # every path the benchmark drives evaluates at z = 0, so the radius
        # has no Im z widening
        key = (tau.y_min, tau.g, cfg.radius, cfg.target_tail)
        radius = self._radius_cache.get(key)
        if radius is None:
            radius = cfg.radius or theta_mod.auto_radius(tau.y_min, tau.g,
                                                         cfg.target_tail)
            self._radius_cache[key] = radius
        return (2 * radius + 1) ** tau.g

    def _spanned(self, name: str, fn):
        tau_pos = LATTICE_SUMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tau_pos is not None:
                self.points[self.label] += self._lattice_points(args, kwargs, tau_pos)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every thetachar module binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._theta = importlib.import_module("thetachar.theta")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "thetachar" or n.startswith("thetachar.")]
        plan = [(layer, fn, self._spanned) for layer, fns in SPANNED.items() for fn in fns]
        plan += [(layer, fn, self._counted) for layer, fns in COUNTED.items() for fn in fns]
        for layer, fn_name, make in plan:
            original = getattr(importlib.import_module(f"thetachar.{layer}"), fn_name)
            wrapper = make(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh,
                      separators=(",", ":"))
            fh.write("\n")


def aggregate(spans) -> dict:
    """Per-span-name and per-layer totals derived from closed spans.

    Returns calls and inclusive seconds per span name, calls per (name,
    parent name), and self seconds per layer (the first dotted component of
    the name), also split by level label.  A span's self time is its
    duration minus the durations of its direct children; spans of one
    thread nest, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    calls_under: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    incl_by_label: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    self_by_label: defaultdict = defaultdict(float)
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        if s[PARENT] >= 0:
            calls_under[(name, spans[s[PARENT]][NAME])] += 1
        incl[name] += dur / 1e9
        incl_by_label[(name, s[LABEL])] += dur / 1e9
        own = (dur - child_ns[i]) / 1e9
        self_s[layer] += own
        self_by_label[(layer, s[LABEL])] += own
    return {
        "calls": calls,
        "calls_under": calls_under,
        "s": incl,
        "s_by_label": incl_by_label,
        "self_s": self_s,
        "self_s_by_label": self_by_label,
    }
