"""Spans around kstab's public functions, recorded from the benchmark's side.

``Tracer.installed()`` replaces each traced function at every name a call
site looks it up by (module globals such as ``kstab.cli.count_and_weigh``
and ``kstab.futaki.count_and_weigh``, class attributes such as
``GridOperators.jacobian``, and ``scipy.sparse.linalg.splu``) and restores
the originals on exit.  A span records its name, start, end, parent and a
few counts read from the call's arguments or result.  Spans stay in memory
until the run writes them out.  Per-crease internals such as
``_DirectionProfile.eval`` are private and are not wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int           # position in the tracer's span list
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    task: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _box_points(args, kwargs, res):
    P, _, k = args[:3]
    n = 1
    for lo, hi in P.bounding_box():
        n *= math.floor(hi * k) - math.ceil(lo * k) + 1
    return {"points": res.d_k, "box_points": n}


def _lattice_points(args, kwargs, res):
    """d_k of an integral polygon by Pick's theorem: A k^2 + (B/2) k + 1."""
    P, _, k = args[:3]
    vs = P.vertices
    area2 = boundary = 0
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        area2 += x0 * y1 - x1 * y0
        boundary += math.gcd(int(x1 - x0), int(y1 - y0))
    return {"points": int(abs(area2) * k * k + boundary * k) // 2 + 1}


# (span name, owner, attribute, counts read from (args, kwargs, result))
TARGETS = [
    ("cli.main", "kstab.cli", "main", None),
    ("polytope.parse", "kstab.polytope", "parse_polytope_text", None),
    ("polytope.measures", "kstab.polytope", "measures", None),
    ("stability.crease_search", "kstab.stability", "crease_search",
     lambda a, k, r: {"creases": r.n_creases, "directions": r.n_directions}),
    ("stability.admissible_offsets", "kstab.stability", "admissible_offsets", None),
    ("futaki.count_and_weigh", "kstab.futaki", "count_and_weigh", _box_points),
    ("futaki.expansion", "kstab.futaki", "expansion", None),
    ("futaki.filtration", "kstab.futaki", "filtration_futaki", _lattice_points),
    ("geometry.grid_build", "kstab.geometry:PotentialGrid", "build", None),
    ("geometry.hessian", "kstab.geometry", "hessian_field", None),
    ("geometry.inverse_hessian", "kstab.geometry", "inverse_hessian_field", None),
    ("geometry.residual", "kstab.geometry", "abreu_residual_field", None),
    ("geometry.dump", "kstab.geometry", "grid_dump_rows", None),
    ("solver.solve", "kstab.solver", "solve", lambda a, k, r: {"iterations": r.iterations}),
    ("solver.ops_build", "kstab.solver:GridOperators", "__init__", None),
    ("solver.preconditioner", "kstab.solver:GridOperators", "preconditioner", None),
    ("solver.jacobian", "kstab.solver:GridOperators", "jacobian", None),
    ("solver.mabuchi", "kstab.solver", "mabuchi", None),
    ("solver.splu", "scipy.sparse.linalg", "splu",
     lambda a, k, r: {"fill": r.L.nnz + r.U.nnz}),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.task)
            stack.append(len(spans))
            spans.append(span)
            try:
                res = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, res)
            return res

        return traced

    @contextlib.contextmanager
    def installed(self, task: int):
        """Trace every target while the block runs, as task number `task`."""
        self.task = task
        undo = []
        try:
            for name, owner, attr, info in TARGETS:
                obj = _resolve(owner)
                if isinstance(obj, type):
                    orig = obj.__dict__[attr]
                    if isinstance(orig, classmethod):
                        new = classmethod(self.wrap(name, orig.__func__, info))
                    else:
                        new = self.wrap(name, orig, info)
                    undo.append((obj, attr, orig))
                    setattr(obj, attr, new)
                    continue
                orig = getattr(obj, attr)
                new = self.wrap(name, orig, info)
                modules = [m for key, m in list(sys.modules.items())
                           if m is obj or key == "kstab" or key.startswith("kstab.")]
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, new)
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one task's consecutive spans.

    A name's total time counts only its outermost spans; self time is a
    span's duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    base = spans[0].index if spans else 0
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent - base] += s.duration

    def ancestors(s):
        while s.parent >= 0:
            s = spans[s.parent - base]
            yield s.name

    total, calls, self_time, counts = {}, {}, {}, {}
    gn_factor_s = 0.0
    gn_factor_calls = 0
    fill = 0
    for i, s in enumerate(spans):
        up = set(ancestors(s))
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.duration - child_time[i]
        if s.name not in up:
            total[s.name] = total.get(s.name, 0.0) + s.duration
        for key, value in s.info.items():
            ck = f"{s.name}.{key}"
            counts[ck] = counts.get(ck, 0) + value
        if s.name == "solver.splu":
            fill = max(fill, s.info.get("fill", 0))
            if "solver.preconditioner" not in up:
                gn_factor_s += s.duration
                gn_factor_calls += 1

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    creases = c("stability.crease_search.creases")
    points = c("futaki.count_and_weigh.points")
    iterations = c("solver.solve.iterations")
    trials = max(n("solver.mabuchi") - n("solver.solve"), 0)
    return {
        "polytope.parse_s": t("polytope.parse"),
        "polytope.parse_calls": n("polytope.parse"),
        "polytope.measures_s": t("polytope.measures"),
        "polytope.measures_calls": n("polytope.measures"),
        "stability.crease_search_s": t("stability.crease_search"),
        "stability.us_per_crease": ratio(t("stability.crease_search") * 1e6, creases),
        "stability.offsets_s": t("stability.admissible_offsets"),
        "stability.offsets_calls": n("stability.admissible_offsets"),
        "stability.creases": creases,
        "stability.directions": c("stability.crease_search.directions"),
        "futaki.count_s": t("futaki.count_and_weigh"),
        "futaki.count_calls": n("futaki.count_and_weigh"),
        "futaki.points": points,
        "futaki.box_points": c("futaki.count_and_weigh.box_points"),
        "futaki.hit_ratio": ratio(points, c("futaki.count_and_weigh.box_points")),
        "futaki.points_per_s": ratio(points, t("futaki.count_and_weigh")),
        "futaki.fit_s": self_time.get("futaki.expansion", 0.0),
        "futaki.filtration_s": t("futaki.filtration"),
        "futaki.filtration_points": c("futaki.filtration.points"),
        "geometry.grid_build_s": t("geometry.grid_build"),
        "geometry.hessian_s": t("geometry.hessian"),
        "geometry.hessian_calls": n("geometry.hessian"),
        "geometry.inverse_hessian_s": t("geometry.inverse_hessian"),
        "geometry.residual_s": t("geometry.residual"),
        "geometry.dump_s": t("geometry.dump"),
        "solver.factor_s": t("solver.splu"),
        "solver.factor_calls": n("solver.splu"),
        "solver.gn_factor_s": gn_factor_s,
        "solver.gn_attempts": n("solver.jacobian"),
        "solver.factor_per_gn": ratio(gn_factor_calls, n("solver.jacobian")),
        "solver.factor_fill": fill,
        "solver.jacobian_s": t("solver.jacobian"),
        "solver.precond_s": t("solver.preconditioner"),
        "solver.ops_build_s": t("solver.ops_build"),
        "solver.mabuchi_s": t("solver.mabuchi"),
        "solver.trials": trials,
        "solver.iterations": iterations,
        "solver.accept_ratio": ratio(iterations - n("solver.solve"), trials),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


def unit_of(metric: str) -> str:
    special = {"stability.us_per_crease": "us", "futaki.points_per_s": "1/s",
               "cli.bytes_written": "bytes", "futaki.hit_ratio": "ratio",
               "solver.factor_per_gn": "ratio", "solver.accept_ratio": "ratio",
               "trace_overhead": "ratio"}
    if metric in special:
        return special[metric]
    return "s" if metric.endswith("_s") else "count"
