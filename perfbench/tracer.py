"""Spans and counters recorded around the public functions of each kvhsim layer.

Nothing inside `kvhsim` changes: `install` replaces every binding of a traced
function in every loaded `kvhsim` module with a wrapper. A function imported
by name into another module (`flow_with_action`, `interpolate_field`,
`self_broadcast`, `apply_prequantum`, ...) is bound there too, so patching
only its defining module would miss those calls. A helper called once per
step (`_rk4_step`) is counted without a span, so that its counters come from
the calls the program makes, at little cost.

A span is `[name, start, end, parent, request]`; `parent` is the index of the
enclosing span (-1 at the top) and `request` identifies the CLI invocation
that caused it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # request -> key -> value
        self.request = None
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][END] = self.clock()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def add(self, increments: dict):
        counts = self.counts[self.request]
        for key, value in increments.items():
            counts[key] += value

    def wrap(self, name, fn, count=None):
        """Wrapper of fn recording one span per call.

        name is a string or a function of the positional arguments (for a
        method, of `self` and the rest). count(arguments, result) returns the
        counter increments of one call; `arguments` maps every parameter name
        to its value, defaults included.
        """
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            index = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.add(count(bound.arguments, result))
            return result

        return functools.wraps(fn)(traced)

    def counted(self, fn, count):
        """Wrapper of fn adding count(args, kwargs) to the counters, without a span.

        For helpers called too often for a span per call to be cheap.
        """
        def traced(*args, **kwargs):
            self.add(count(args, kwargs))
            return fn(*args, **kwargs)

        return functools.wraps(fn)(traced)

    def totals(self, request=None) -> dict:
        """Counter totals over every request, or for one request."""
        out = defaultdict(float)
        for req, counts in self.counts.items():
            if request is None or req == request:
                for key, value in counts.items():
                    out[key] += value
        return out


def covered_length(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans, request=None) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that calls itself is not counted twice. Self time is a span's duration
    minus the part of it that its child spans cover.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        if request is not None and span[REQUEST] != request:
            continue
        name, start, end = span[NAME], span[START], span[END]
        stats = out[name]
        stats["calls"] += 1
        kids = [(spans[c][START], spans[c][END]) for c in children[i]]
        stats["self_s"] += (end - start) - covered_length(kids, start, end)
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            stats["s"] += end - start
    return dict(out)


# -- what is traced ---------------------------------------------------------

def _steps(t_final, dt):
    from kvhsim.grid import time_steps

    return time_steps(t_final, dt)[0]


def _count_deriv(a, out):
    grid = a["self"]
    name = _deriv_name((grid,))
    return {f"{name}.bytes_computed": a["values"].nbytes + out.nbytes}


def _deriv_name(args):
    return "grid.fft_deriv" if args[0].bc == "periodic" else "grid.fd4_deriv"


def _count_flow(a, out):
    return {"hamiltonian.flow.nodes": math.prod(getattr(a["q0"], "shape", ()))}


def _count_flow_step(args, kwargs):
    # _rk4_step(H, q, p, a, h, with_action): one RK4 step of every node in q
    q = args[1] if len(args) > 1 else kwargs["q"]
    return {"hamiltonian.flow.node_steps": getattr(q, "size", 1)}


def _count_exits(a, out):
    return {"hamiltonian.flow.exited": int(out.sum())}


def _count_evolve(a, out):
    steps = _steps(a["t_final"], a["dt"])
    grid = a["psi0"].grid
    return {
        "kvh.evolve.steps": steps,
        "kvh.evolve.node_steps": steps * grid.n_q * grid.n_p,
        "kvh.evolve.sim_time": a["t_final"] if steps else 0.0,
    }


def _count_interpolate(a, out):
    return {"kvh.interpolate.points": math.prod(getattr(a["q"], "shape", ()))}


def _count_polar(a, out):
    steps = _steps(a["t_final"], a["dt"])
    grid = a["pair"].S.grid
    return {
        "madelung.evolve_polar.steps": steps,
        "madelung.evolve_polar.node_steps": steps * grid.n_q * grid.n_p,
    }


def _count_qhd(a, out):
    return {"qhd.evolve.steps": _steps(a["t_final"], a["dt"])}


def _count_kernel(a, out):
    # 8 n^3 real flops per dense complex n x n matmul: 8 matmuls per RK4
    # step, 2 for the one-shot conjugation of the characteristics method
    n = a["theta0"].K.shape[0]
    matmul_gflop = 8.0 * n**3 / 1e9
    if a["method"] == "rk4":
        steps = _steps(a["t_final"], a["dt"])
        return {"vonneumann.evolve_kernel.steps": steps,
                "vonneumann.evolve_kernel.gflop_computed": 8 * steps * matmul_gflop}
    return {"vonneumann.evolve_kernel.gflop_computed": 2 * matmul_gflop}


def _count_file(prefix, key):
    def count(a, out):
        return {f"{prefix}.bytes": os.path.getsize(a[key])}
    return count


# (module, function, span name, counter)
FUNCTIONS = (
    ("hamiltonian", "flow_with_action", "hamiltonian.flow", _count_flow),
    ("hamiltonian", "out_of_domain_mask", "hamiltonian.exit_mask", _count_exits),
    ("hamiltonian", "self_broadcast", "hamiltonian.resample", None),
    ("kvh", "evolve", "kvh.evolve", _count_evolve),
    ("kvh", "characteristics_oracle", "kvh.oracle", None),
    ("kvh", "interpolate_field", "kvh.interpolate", _count_interpolate),
    ("kvh", "apply_prequantum", "kvh.prequantum", None),
    ("liouville", "evolve_pushforward", "liouville.pushforward", None),
    ("madelung", "evolve_polar", "madelung.evolve_polar", _count_polar),
    ("madelung", "classical_density", "madelung.classical_density", None),
    ("madelung", "one_form_transport_residual", "madelung.transport_residual", None),
    ("contact", "apply_van_hove", "contact.van_hove", None),
    ("contact", "equivariance_residual", "contact.equivariance", None),
    ("qhd", "schrodinger_evolve", "qhd.evolve", _count_qhd),
    ("qhd", "continuity_residual", "qhd.residuals", None),
    ("qhd", "bohm_potential_residual", "qhd.residuals", None),
    ("vonneumann", "evolve_kernel", "vonneumann.evolve_kernel", _count_kernel),
    ("vonneumann", "kernel_propagator", "vonneumann.propagator", None),
    ("vonneumann", "hydro_from_kernel", "vonneumann.hydro_extract", None),
    ("vonneumann", "point_particle_kernel", "vonneumann.point_kernel", None),
    ("fieldio", "save_field", "fieldio.save", _count_file("fieldio.save", "path")),
    ("fieldio", "load_field", "fieldio.load", _count_file("fieldio.load", "path")),
)

# (module, function, counter): counted on every call, without a span
COUNTED = (
    ("hamiltonian", "_rk4_step", _count_flow_step),
)

# (module, class, method, span name, counter)
METHODS = (
    ("grid", "PhaseGrid", "ddq", _deriv_name, _count_deriv),
    ("grid", "PhaseGrid", "ddp", _deriv_name, _count_deriv),
    ("vonneumann", "VNKernel", "eigenvalues", "vonneumann.eigenvalues", None),
)


def kvhsim_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kvhsim" or n.startswith("kvhsim."))]


def install(tracer: Tracer):
    """Wrap every traced kvhsim function and method; returns an undo callable."""
    import importlib

    from kvhsim import cli

    undo = []

    def replace(owner, attr, new):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def replace_everywhere(original, wrapped):
        for mod in kvhsim_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, attr, wrapped)

    for module, function, name, count in FUNCTIONS:
        original = getattr(importlib.import_module(f"kvhsim.{module}"), function)
        replace_everywhere(original, tracer.wrap(name, original, count))
    for module, function, count in COUNTED:
        original = getattr(importlib.import_module(f"kvhsim.{module}"), function)
        replace_everywhere(original, tracer.counted(original, count))
    for module, cls_name, method, name, count in METHODS:
        cls = getattr(importlib.import_module(f"kvhsim.{module}"), cls_name)
        replace(cls, method, tracer.wrap(name, getattr(cls, method), count))
    for check, fn in list(cli.CHECKS.items()):
        replace(cli.CHECKS, check, tracer.wrap(f"cli.check.{check}", fn))

    def restore():
        for owner, attr, old in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    return restore


# -- per-layer metrics ------------------------------------------------------

CHECK_NAMES = (
    "unitarity", "energy", "characteristics", "commutators", "naturality",
    "madelung", "transport", "equivariance", "vonneumann", "sigma-defect", "qhd",
)

# span name -> span statistics reported for it
SPAN_STATS = {
    "grid.fft_deriv": ("calls", "s"),
    "grid.fd4_deriv": ("calls", "s"),
    "hamiltonian.flow": ("calls", "s"),
    "hamiltonian.resample": ("calls", "s"),
    "kvh.evolve": ("calls", "s", "self_s"),
    "kvh.oracle": ("s", "self_s"),
    "kvh.interpolate": ("calls", "s"),
    "kvh.prequantum": ("calls", "s"),
    "liouville.pushforward": ("calls", "s", "self_s"),
    "madelung.evolve_polar": ("calls", "s", "self_s"),
    "madelung.classical_density": ("s",),
    "madelung.transport_residual": ("s",),
    "contact.van_hove": ("calls", "s", "self_s"),
    "contact.equivariance": ("s",),
    "qhd.evolve": ("s",),
    "qhd.residuals": ("s",),
    "vonneumann.evolve_kernel": ("s",),
    "vonneumann.propagator": ("s",),
    "vonneumann.hydro_extract": ("s",),
    "vonneumann.point_kernel": ("s",),
    "vonneumann.eigenvalues": ("s",),
    "fieldio.save": ("calls", "s"),
    "fieldio.load": ("calls", "s"),
    **{f"cli.check.{c}": ("s",) for c in CHECK_NAMES},
}

COUNTERS = (
    "grid.fft_deriv.bytes_computed",
    "hamiltonian.flow.node_steps",
    "kvh.evolve.steps",
    "kvh.evolve.node_steps",
    "kvh.interpolate.points",
    "madelung.evolve_polar.steps",
    "madelung.evolve_polar.node_steps",
    "qhd.evolve.steps",
    "vonneumann.evolve_kernel.steps",
    "vonneumann.evolve_kernel.gflop_computed",
    "fieldio.save.bytes",
    "fieldio.load.bytes",
)

# metric -> (numerator, denominator), each a counter or a span statistic
RATIOS = {
    "hamiltonian.flow.node_steps_per_s": ("hamiltonian.flow.node_steps", "hamiltonian.flow.s"),
    "hamiltonian.flow.exit_fraction": ("hamiltonian.flow.exited", "hamiltonian.flow.nodes"),
    "kvh.evolve.sim_time_per_s": ("kvh.evolve.sim_time", "kvh.evolve.s"),
    "vonneumann.evolve_kernel.gflop_per_s": (
        "vonneumann.evolve_kernel.gflop_computed", "vonneumann.evolve_kernel.s"),
}


# last part of a metric name -> its unit
UNITS = {
    "calls": "count", "steps": "count", "node_steps": "count", "points": "count",
    "s": "s", "self_s": "s", "overhead_s": "s",
    "bytes": "B", "bytes_computed": "B",
    "gflop_computed": "GFLOP", "gflop_per_s": "GFLOP/s",
    "node_steps_per_s": "1/s", "sim_time_per_s": "s/s", "exit_fraction": "ratio",
    "headroom_digits": "decades",
}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything the tracer recorded.

    A layer the workload never calls reports 0 calls and 0 seconds.
    """
    stats = summarize(tracer.spans)
    totals = tracer.totals()
    out = {f"{name}.{stat}": stats.get(name, {}).get(stat, 0)
           for name, wanted in SPAN_STATS.items() for stat in wanted}
    for key in COUNTERS:
        out[key] = totals.get(key, 0)
    values = {**totals, **out}
    for key, (num, den) in RATIOS.items():
        d = values.get(den, 0)
        out[key] = values.get(num, 0) / d if d else 0.0
    return out
