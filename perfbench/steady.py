"""Steadiness check: two sets of repeated runs of the same code.

    python3 perfbench/steady.py [--out FILE] [--traced]

Runs the benchmark command of BENCHMARK.json with --trace 0, REPEATS times
per set and workload, each run on its own seed (FIRST_SEED onwards),
cycling through the workloads so that drift in the machine hits all of
them alike; set 2 follows set 1.  For every workload and end-to-end metric
it prints each set's median, quartiles and spread ((q3 - q1) / median),
and says whether the sets agree within the metric's bound: both spreads
within the bound, and the two medians apart by no more than the bound
(|drift| <= bound, drift being set 2's median against set 1's, positive
when worse).  It also prints, without a bound, the spread and drift of the
raw wall-clock figures wall_ops_per_s and wall_op_p50_ms, so that a claimed
gain in reference seconds can be compared with wall time.  --traced adds
one traced run per workload.  The summary goes to --out (default
perfbench/out/steady.json).  Exit code 0 when every workload agrees, 1
when one does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 5
SETS = 2
FIRST_SEED = 1000
WALL_METRICS = (
    {"name": "wall_ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "wall_op_p50_ms", "unit": "ms", "better": "lower"},
)


def run_once(spec, workload, seed, trace):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    full = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"workload": workload, "seed": seed, "wall_s": wall, "result": result,
            "env": full["env"], "details": full["details"]}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric, first, second):
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "out" / "steady.json"))
    parser.add_argument("--traced", action="store_true", help="add a traced run per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    runs = []
    for s in range(SETS):
        for r in range(REPEATS):
            for name in names:
                seed = FIRST_SEED + s * REPEATS + r
                run = run_once(spec, name, seed, 0)
                run["set"] = s
                runs.append(run)
                res = run["result"]
                print(
                    f"set {s + 1} {name:14s} seed {seed}: {run['wall_s']:6.1f}s "
                    f"failed {res['failed']}/{res['attempted']}",
                    file=sys.stderr,
                )

    summary, agree_all = {}, True
    print(f"{'workload':14s} {'metric':14s} {'unit':5s} {'bound':>5s}  "
          + "  ".join(f"set{s + 1} median [q1, q3] spread" for s in range(SETS)))
    for name in names:
        mine = [[r for r in runs if r["workload"] == name and r["set"] == s] for s in range(SETS)]
        attempted = sum(r["result"]["attempted"] for rs in mine for r in rs)
        failed = sum(r["result"]["failed"] for rs in mine for r in rs)
        rows = {}
        for m in spec["end_to_end"] + list(WALL_METRICS):
            if "bound" in m:
                values = [[r["result"]["metrics"][m["name"]]["value"] for r in rs] for rs in mine]
            else:
                values = [[r["details"][m["name"]] for r in rs] for rs in mine]
            per_set = [stats(v) for v in values]
            drift = worse_by(m, per_set[0]["median"], per_set[1]["median"])
            bound = m.get("bound")
            ok = bound is None or (
                all(p["spread"] <= bound for p in per_set) and abs(drift) <= bound
            )
            agree_all &= ok
            rows[m["name"]] = {"unit": m["unit"], "bound": bound, "sets": per_set,
                               "pooled": stats(sum(values, [])), "drift": drift, "agree": ok}
            cells = "  ".join(
                f"{p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}] {p['spread']:.3f}"
                for p in per_set
            )
            verdict = "(no bound)" if bound is None else "ok" if ok else "DISAGREE"
            shown = "-" if bound is None else f"{bound:5.2f}"
            print(f"{name:14s} {m['name']:14s} {m['unit']:5s} {shown:>5s}  {cells}"
                  f"  drift {drift:+.3f} {verdict}")
        print(f"{name:14s} {'failed_frac':14s} {'1':5s} {'':5s}  {failed / attempted:.3g} "
              f"({failed} of {attempted} ops)")
        summary[name] = {"metrics": rows, "attempted": attempted, "failed": failed}

    traced = []
    if args.traced:
        for name in names:
            traced.append(run_once(spec, name, FIRST_SEED, 1))
    print("sets agree within bounds" if agree_all else "sets DISAGREE", file=sys.stderr)

    out = {
        "benchmark": spec,
        "repeats": REPEATS,
        "sets": SETS,
        "first_seed": FIRST_SEED,
        "env": runs[0]["env"],
        "agree": agree_all,
        "summary": summary,
        "runs": runs,
        "traced": traced,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
