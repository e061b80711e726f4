"""Measurement core of the benchmark; run.py is the entry point.

Import only after run.py has pinned the BLAS thread count and put the
checkout's src/ first on sys.path.
"""

import contextlib
import json
import marshal
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracer_mod
import workloads
from reference import ReferenceTable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("evolution.self_s", "s"),
    ("evolution.apply_gflop_computed", "GFLOP"),
    ("evolution.eigh_s", "s"),
    ("evolution.eigh_matrices", "count"),
    ("evolution.rungs", "count"),
    ("evolution.steps", "count"),
    ("evolution.final_rung_share", "1"),
    ("evolution.steps_per_s", "1/s"),
    ("evolution.propagate_s", "s"),
    ("evolution.observer_s", "s"),
    ("evolution.observer_calls", "count"),
    ("evolution.protocol_overhead_s", "s"),
    ("model.generator_calls", "count"),
    ("model.generator_points", "count"),
    ("model.generator_s", "s"),
    ("model.generator_self_s", "s"),
    ("model.dense_calls", "count"),
    ("model.dense_s", "s"),
    ("model.state_prep_s", "s"),
    ("model.self_s", "s"),
    ("spectral.frame_calls", "count"),
    ("spectral.frames", "count"),
    ("spectral.self_s", "s"),
    ("spectral.fd_frames_share", "1"),
    ("counterdiabatic.calls", "count"),
    ("counterdiabatic.points", "count"),
    ("counterdiabatic.self_s", "s"),
    ("schedules.calls", "count"),
    ("schedules.points", "count"),
    ("schedules.self_s", "s"),
    ("cost.calls", "count"),
    ("cost.self_s", "s"),
    ("cost.closed_form_s", "s"),
    ("cost.numeric_s", "s"),
    ("cost.curve_points", "count"),
    ("operators.calls", "count"),
    ("operators.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("bench.self_s", "s"),
    ("bench.shared_op_frac", "1"),
    ("trace.overhead_frac", "1"),
    ("trace.coverage_frac", "1"),
)
def _command(argv, **kwargs):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10, **kwargs)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    caches = {}
    if shutil.which("getconf"):
        for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            caches[name] = _command(["getconf", name])
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        # never look for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git["commit"] = _command(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env)
        status = _command(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"], env=env
        )
        git["dirty"] = None if status is None else bool(status)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": os.uname().machine,
        "caches": caches,
        "git": git,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


class SpeedProbe:
    """Machine speed, from a fixed kernel timed around and during timed work.

    Shared hosts change speed under a process: on the 2-core shared x86_64
    virtual machine this benchmark was built on, a fixed kernel ran 1.6x
    slower for seconds to minutes at a time (another tenant on the sibling
    hardware thread, most likely), and timed work moved with it.  The
    kernel is timed before and after each timed call and every INTERVAL_S
    during it, from a SIGALRM handler; two samples alone left multi-second
    ops scaled by a chance reading.  `clock()` is the wall clock with the
    handler's time taken out; the call's time on it is turned into
    reference seconds: seconds at the speed at which the kernel takes
    `ref_s`.  Raw wall times are kept in the result file.
    """

    INTERVAL_S = 0.2

    def __init__(self, kernel, ref_s):
        self.kernel, self.ref_s = kernel, ref_s
        self.spent = 0.0  # seconds spent in the SIGALRM handler so far
        self.last = self.sample()

    def clock(self):
        return time.perf_counter() - self.spent

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def scale(self):
        """Reference seconds per wall second since the previous sample."""
        before, self.last = self.last, self.sample()
        return self.ref_s / (0.5 * (before + self.last))

    @contextlib.contextmanager
    def timing(self):
        """Time the body; the yielded dict receives wall_s and ref_s."""
        samples, timing = [self.last], {}

        def tick(signum, frame):
            start = time.perf_counter()
            samples.append(self.sample())
            self.spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = self.clock()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            wall = self.clock() - start
            self.last = self.sample()
            samples.append(self.last)
            timing["wall_s"] = wall
            timing["ref_s"] = wall * self.ref_s / statistics.fmean(samples)


def op_probe():
    """Speed of the ops' mix: a batched 8x8 eigh, the exponential assembly
    and a Python loop of 8x8 contractions; 2.5 ms in the fast phase."""
    a = np.random.default_rng(0).normal(size=(128, 8, 8))
    h = a + a.transpose(0, 2, 1)
    eigh = np.linalg.eigh  # bound before a tracer can wrap it

    def kernel():
        w, v = eigh(h)
        u = np.einsum("kij,kj,klj->kil", v, np.exp(-0.01j * w), v)
        psi = np.ones((8, 8), dtype=complex)
        for k in range(len(u)):
            psi = np.tensordot(u[k], psi, axes=([1], [0]))

    return SpeedProbe(kernel, 0.0025)


def import_probe():
    """Speed of set-up work.  Starting an interpreter and importing is
    unmarshalling and building namespaces, and its wall time did not follow
    the ops' kernel; it did follow (correlation 0.82 over 40 spawns) this
    one, which unmarshals a fixed code object and builds a dict; 1.7 ms in
    the fast phase."""
    source = "".join(f"def f{i}(x):\n    return x + {i}\n" for i in range(300))
    blob = marshal.dumps(compile(source, "<probe>", "exec"))

    def kernel():
        for _ in range(3):
            marshal.loads(blob)
            {str(i): i for i in range(3000)}

    return SpeedProbe(kernel, 0.0017)


def setup_seconds(workload, repeats):
    """Median time, in reference seconds, from spawning a fresh interpreter
    to its "ready"."""
    probe = import_probe()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        _, err = child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(wall * probe.scale())  # sampled once the child has exited
    return statistics.median(times)


def run_ops(ops, probe, tracer=None, op_base=0):
    """Run ops one after another; time each call, check outside the timing.
    Traced or not, every call is speed-sampled around and during it; the
    tracer's clock leaves the sampling time out of the spans."""
    probe.last = probe.sample()
    records = []
    for i, op in enumerate(ops):
        output = error = None
        try:
            with probe.timing() as timing:
                if tracer is None:
                    output = op.run()
                else:
                    output = tracer.run_op(op_base + i, op.run)
        except Exception as exc:  # a failing op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append(
            {
                "label": op.label,
                "key": op.key,
                "latency_s": timing["wall_s"],
                "ref_s": timing["ref_s"],
                "error": error,
                "bytes_out": len(output[1]) if op.key[0] == "sweep" and error is None else 0,
            }
        )
    return records


def shared_fraction(records):
    seen, shared = set(), 0
    for rec in records:
        shared += rec["key"] in seen
        seen.add(rec["key"])
    return shared / len(records)


def end_to_end(records, workload, setup_s):
    # latencies of the certified ops; of all ops if none was certified
    timed = [r for r in records if r["error"] is None] or records
    ref = np.array([r["ref_s"] for r in timed])
    wall = np.array([r["latency_s"] for r in timed])
    certified = sum(r["error"] is None for r in records)
    pct = workloads.TAIL_PERCENTILE[workload]
    tail = float(np.percentile(ref, pct))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": certified / sum(r["ref_s"] for r in records),
        "op_p50_ms": float(np.median(ref)) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "tail_percentile": pct,
        "ops_beyond_tail": int((ref > tail).sum()),
        "certified_ops": certified,
        "wall_ops_per_s": certified / sum(r["latency_s"] for r in records),
        "wall_op_p50_ms": float(np.median(wall)) * 1e3,
        "reference_s_per_wall_s": float(ref.sum() / wall.sum()),
    }
    return metrics, details


def per_layer(traced, plain, tracer):
    metrics = tracer_mod.layer_metrics(tracer.spans)
    traced_wall = sum(r["latency_s"] for r in traced)
    metrics["trace.coverage_frac"] = metrics.pop("covered_s") / traced_wall
    # every round has the same composition; injected ops ride along with
    # the traced round only, so they are left out here
    like = [sum(r["ref_s"] for r in rs if r["key"][0] != "injected") for rs in (traced, plain)]
    metrics["trace.overhead_frac"] = like[0] / like[1] - 1
    metrics["evolution.apply_gflop_computed"] = tracer.apply_flop / 1e9
    metrics["cli.bytes_out"] = sum(r["bytes_out"] for r in traced)
    metrics["bench.shared_op_frac"] = shared_fraction(traced)
    return metrics


def measure(args, reference):
    """Run the workload; returns (records, metrics, details)."""
    tiny = args.tiny
    extra = workloads.injected_bad_ops(reference) if args.inject_bad else []

    def round_ops(index):
        ops = workloads.make_round(args.workload, args.seed, index, reference, tiny)
        return ops + (extra if index == 0 else [])

    # ops, speed probes and set-up spawns all on one CPU, so that the probe
    # measures the CPU the timed work ran on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for op in workloads.warmup_ops(args.workload, reference):
        op.run()
    probe = op_probe()

    if not args.trace:
        setup_s = setup_seconds(args.workload, 1 if tiny else SETUP_REPEATS)
        records, index = [], 0
        start = time.perf_counter()
        while index == 0 or time.perf_counter() - start < args.seconds:
            records += run_ops(round_ops(index), probe)
            index += 1
        metrics, details = end_to_end(records, args.workload, setup_s)
        details.update(rounds=index, measured_s=time.perf_counter() - start, cpu=cpu)
        details["shared_op_frac"] = shared_fraction(records)
        return records, metrics, details

    tracer = tracer_mod.Tracer(probe.clock)
    traced, plain = [], []
    pairs = 1 if tiny else workloads.TRACE_ROUNDS[args.workload]
    for i in range(pairs):
        tracer.install()
        try:
            traced += run_ops(round_ops(2 * i), probe, tracer, op_base=len(traced))
        finally:
            tracer.uninstall()
        plain += run_ops(round_ops(2 * i + 1), probe)
    metrics = per_layer(traced, plain, tracer)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    details = {"traced_rounds": pairs, "spans": len(tracer.spans), "spans_file": spans_path.name,
               "cpu": cpu}
    return traced + plain, metrics, details


def _number(value, unit):
    return int(round(value)) if unit in ("count", "B") else float(value)


def report(args):
    """Measure, print the readable lines and the result line, and keep the
    full result (environment block included) under perfbench/out/."""
    env = environment(args)
    records, metrics, details = measure(args, ReferenceTable())
    failed = [r for r in records if r["error"] is not None]
    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": _number(metrics[name], unit), "unit": unit} for name, unit in table
        },
    }

    for name, unit in table:
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(
            f"op_tail_ms is p{details['tail_percentile']} of {details['certified_ops']} "
            f"certified ops, {details['ops_beyond_tail']} beyond it; times are reference "
            f"seconds (x{details['reference_s_per_wall_s']:.3f} of wall time); wall clock: "
            f"{details['wall_ops_per_s']:.6g} ops/s, p50 {details['wall_op_p50_ms']:.6g} ms"
        )
    print(f"{'failed_frac':34s} {len(failed) / len(records):>16.6g} 1")
    for rec in failed[:10]:
        print(f"failed: {rec['label']}: {rec['error']}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    full = dict(result, env=env, details=details, failed_frac=len(failed) / len(records))
    full["failures"] = [{"op": r["label"], "error": r["error"]} for r in failed]
    full["ops"] = [[r["label"], r["latency_s"], r["ref_s"]] for r in records]
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
