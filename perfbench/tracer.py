"""Outside-in tracing of the sagt modules.

`Tracer.install()` rebinds, in every sagt module, each module-level name
that refers to a public sagt function (``from .schedules import grid_eval``
makes several), the HamiltonianFamily evaluation methods, and
`numpy.linalg.eigh`, to wrappers that record a span per call: name, start,
end, parent span, op id and a work count (s-points, steps, batch size).
Spans are recorded only while an op is current, are kept in memory, and
`write()` puts them out at the end.  `uninstall()` restores every binding.

Self time of a span is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

import functools
import gzip
import importlib
from collections import defaultdict

import numpy as np

import sagt

MODULES = (
    "operators",
    "schedules",
    "model",
    "spectral",
    "counterdiabatic",
    "evolution",
    "cost",
    "cli",
)
FAMILY_METHODS = ("sector_matrix", "sector_matrix_grid", "matrix")
RUN_SPANS = ("evolution.run_state_teleport", "evolution.run_gate_teleport")
OBSERVER = "evolution.observer"
EIGH = "numpy.linalg.eigh"
OP_SPAN = "bench.op"


def _points(args):
    return int(np.size(args[1])) if len(args) > 1 else 0


def _eigh_batch(args, kwargs, result):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _sweep_points(args, kwargs, result):
    return sum(len(report.grid) for report in result)


COUNTS = {
    "schedules.grid_eval": lambda a, k, r: _points(a),
    "schedules.chi": lambda a, k, r: _points(a),
    "model.sector_matrix_grid": lambda a, k, r: _points(a),
    "spectral.frame_grid": lambda a, k, r: _points(a),
    "spectral.frame_derivative_grid": lambda a, k, r: _points(a),
    "counterdiabatic.block_cd_grid": lambda a, k, r: _points(a),
    "counterdiabatic.sector_cd_grid": lambda a, k, r: _points(a),
    "evolution.propagate": lambda a, k, r: int(a[2]),
    "cost.cost_sweep": _sweep_points,
    EIGH: _eigh_batch,
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # span times: wall time without speed-probe time
        self.spans = []  # (name, start, end, parent, op, count)
        self.stack = []
        self.op = None
        self.apply_flop = 0  # computed flops of per-step state application
        self._saved = []

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = self.clock
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, n)

        return traced

    def _wrap_propagate(self, fn):
        traced = self.wrap("evolution.propagate", fn)

        @functools.wraps(fn)
        def propagate(family, psi0, steps, tau=None, observer=None):
            if self.op is not None:
                n = family.sectors
                # one 8x8 complex matrix on 8**(n-1) columns per sector per
                # step, 8 real flops per complex multiply-add
                self.apply_flop += int(steps) * n * 8 ** (n + 1) * 8
                if observer is not None:
                    observer = self.wrap(OBSERVER, observer)
            return traced(family, psi0, steps, tau=tau, observer=observer)

        return propagate

    def run_op(self, op_id, fn):
        """Call fn() as op `op_id` under a root span for the benchmark's
        own share of the op."""
        self.op = op_id
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self.op = None

    # -- installing -----------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [sagt] + [importlib.import_module(f"sagt.{name}") for name in MODULES]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (
                    isinstance(obj, type)
                    or not callable(obj)
                    or not origin.startswith("sagt.")
                    or obj.__name__.startswith("_")
                ):
                    continue
                if id(obj) not in wrappers:
                    name = f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name == "evolution.propagate":
                        wrappers[id(obj)] = self._wrap_propagate(obj)
                    else:
                        wrappers[id(obj)] = self.wrap(name, obj)
                self._rebind(module, attr, wrappers[id(obj)])
        family = sagt.model.HamiltonianFamily
        for method in FAMILY_METHODS:
            self._rebind(family, method, self.wrap(f"model.{method}", getattr(family, method)))
        self._rebind(np.linalg, "eigh", self.wrap(EIGH, np.linalg.eigh))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\tcount\n")
            for name, start, end, parent, op, n in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{n}\n")


def layer_metrics(spans):
    """Per-layer totals from recorded spans (see README.md for the map from
    each one to the end-to-end metric it should move)."""
    dur = [end - start for (_, start, end, _, _, _) in spans]
    child = [0.0] * len(spans)
    in_fd = [False] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:  # parents precede their children
            child[parent] += dur[i]
            in_fd[i] = in_fd[parent] or spans[parent][0] == "spectral.frame_derivative_grid"

    calls, total, own, work = (defaultdict(float) for _ in range(4))
    layer_own, layer_calls = defaultdict(float), defaultdict(float)
    eigh_s = eigh_matrices = fd_frames = under_run = 0.0
    last_rung = {}  # run span -> steps of its latest propagate
    for i, (name, _, _, parent, _, n) in enumerate(spans):
        layer = OBSERVER if name == OBSERVER else name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        calls[name] += 1
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        work[name] += n
        layer_own[layer] += dur[i] - child[i]
        layer_calls[layer] += 1
        if name == EIGH and parent_name.startswith("evolution."):
            eigh_s += dur[i]
            eigh_matrices += n
        if name == "spectral.frame_grid" and in_fd[i]:
            fd_frames += n
        if name == "evolution.propagate" and parent_name in RUN_SPANS:
            last_rung[parent] = n
            under_run += dur[i]
    final_steps = sum(last_rung.values())

    steps = work["evolution.propagate"]
    frames = work["spectral.frame_grid"]
    run_s = sum(total[name] for name in RUN_SPANS)
    return {
        "evolution.self_s": layer_own["evolution"],
        "evolution.eigh_s": eigh_s,
        "evolution.eigh_matrices": eigh_matrices,
        "evolution.rungs": calls["evolution.propagate"],
        "evolution.steps": steps,
        "evolution.final_rung_share": final_steps / steps if steps else 0.0,
        "evolution.propagate_s": total["evolution.propagate"],
        "evolution.steps_per_s": steps / total["evolution.propagate"] if steps else 0.0,
        "evolution.observer_s": total[OBSERVER],
        "evolution.observer_calls": calls[OBSERVER],
        "evolution.protocol_overhead_s": run_s - under_run,
        "model.generator_calls": calls["model.sector_matrix_grid"],
        "model.generator_points": work["model.sector_matrix_grid"],
        "model.generator_s": total["model.sector_matrix_grid"],
        "model.generator_self_s": own["model.sector_matrix_grid"],
        "model.dense_calls": calls["model.matrix"],
        "model.dense_s": total["model.matrix"],
        "model.state_prep_s": total["model.initial_state"] + total["model.target_state"],
        "model.self_s": layer_own["model"],
        "spectral.frame_calls": calls["spectral.frame_grid"],
        "spectral.frames": frames,
        "spectral.self_s": layer_own["spectral"],
        "spectral.fd_frames_share": fd_frames / frames if frames else 0.0,
        "counterdiabatic.calls": layer_calls["counterdiabatic"],
        "counterdiabatic.points": work["counterdiabatic.block_cd_grid"],
        "counterdiabatic.self_s": layer_own["counterdiabatic"],
        "schedules.calls": layer_calls["schedules"],
        "schedules.points": work["schedules.grid_eval"],
        "schedules.self_s": layer_own["schedules"],
        "cost.calls": layer_calls["cost"],
        "cost.self_s": layer_own["cost"],
        "cost.closed_form_s": total["cost.cost_closed_form"],
        "cost.numeric_s": total["cost.cost_numeric"],
        "cost.curve_points": work["cost.cost_sweep"],
        "operators.calls": layer_calls["operators"],
        "operators.self_s": layer_own["operators"],
        "cli.calls": layer_calls["cli"],
        "cli.self_s": layer_own["cli"],
        "bench.self_s": layer_own["bench"],
        "covered_s": sum(layer_own.values()),
    }
