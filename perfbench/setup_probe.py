"""Set-up as a user pays it: a fresh interpreter imports sagt, builds the
three built-in schedules (each runs make_schedule's validation) and the
first family of the workload, then prints "ready".  run.py times this
from process start to that line.

    python3 perfbench/setup_probe.py single-sector|multi-sector|cost-curves
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sagt  # noqa: E402


def first_family(workload, schedules):
    if workload == "multi-sector":
        base = sagt.multi_sector_family(3, 1.0, schedules["trigonometric"])
        rotated = sagt.rotate_family(base, sagt.embed_on_outputs(sagt.named_gate("toffoli"), 3))
        return sagt.superadiabatic_family(rotated, 1.0)
    if workload == "cost-curves":
        from sagt import cli  # noqa: F401  (its sweeps go through the CLI)
    return sagt.superadiabatic_family(sagt.single_sector_family(1.0, schedules["linear"]), 1.0)


if __name__ == "__main__":
    kinds = ("linear", "trigonometric", "exponential")
    schedules = {kind: sagt.builtin_schedule(kind) for kind in kinds}
    first_family(sys.argv[1], schedules)
    print("ready", flush=True)
