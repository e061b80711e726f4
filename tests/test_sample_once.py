"""One schedule evaluation per s-grid.

schedules.sample evaluates each of the four schedule functions once, and
the drive, the frame, the velocity term and the cost weights all read that
one sample.  A raw Schedule whose callables count their calls pins this
down for the three consumers that sample a grid: the generator, the cost
quadrature and the observables of a run's reported rung.
"""

from collections import Counter

import numpy as np
import pytest

import sagt
from sagt import cost
from sagt.evolution import MODES
from sagt.model import HamiltonianFamily
from sagt.schedules import Schedule, builtin_schedule

NAMES = ("eta_i", "eta_f", "deta_i", "deta_f")


def counting_schedule(kind):
    """A raw copy of a built-in schedule and the Counter of its calls."""
    base = builtin_schedule(kind)
    calls = Counter()

    def counted(name):
        fn = getattr(base, name)

        def call(s):
            calls[name] += 1
            return fn(s)

        return call

    return Schedule(name=base.name, **{name: counted(name) for name in NAMES}), calls


def each_called(times):
    return {name: times for name in NAMES}


@pytest.mark.parametrize("mode", MODES)
def test_one_sample_per_generator_grid(mode):
    sch, calls = counting_schedule("trigonometric")
    family = sagt.single_sector_family(1.0, sch)
    if mode == "superadiabatic":
        family = sagt.superadiabatic_family(family, 0.7)
    family.block_matrix_grid(np.linspace(0.0, 1.0, 33))
    assert calls == each_called(1)
    family.sector_matrix(0.3)
    assert calls == each_called(2)


def record_levels(monkeypatch, tag=lambda: None):
    """A list that gets (node count, tag()) at every Simpson sum of cost."""
    levels = []
    simpson = cost._simpson

    def counted(values, width):
        levels.append((len(values), tag()))
        return simpson(values, width)

    monkeypatch.setattr(cost, "_simpson", counted)
    return levels


@pytest.mark.parametrize("kind", ["linear", "exponential"])
def test_one_sample_per_simpson_level(monkeypatch, kind):
    levels = record_levels(monkeypatch)
    for price in (lambda s: cost.cost_closed_form(s, 0.5), cost.adiabatic_cost):
        levels.clear()
        sch, calls = counting_schedule(kind)
        price(sch)
        assert len(levels) >= 2
        assert calls == each_called(len(levels))


def test_cost_sweep_samples_each_schedule_once_per_level(monkeypatch):
    first, first_calls = counting_schedule("linear")
    second, second_calls = counting_schedule("exponential")
    # the tag tells the levels of `second` (sampled already) from `first`'s
    levels = record_levels(monkeypatch, tag=lambda: bool(second_calls))
    cost.cost_sweep([first, second], [0.1, 1.0, 10.0, 1000.0])
    for calls, flag in ((first_calls, False), (second_calls, True)):
        used = {n for n, reached in levels if reached is flag}
        assert len(used) >= 2
        assert calls == each_called(len(used))


def count_coordinate_grids(monkeypatch):
    """A list that gets the point count of every family.coordinate_grid."""
    generators = []
    form = HamiltonianFamily.coordinate_grid

    def counted(self, s_values):
        generators.append(len(s_values))
        return form(self, s_values)

    monkeypatch.setattr(HamiltonianFamily, "coordinate_grid", counted)
    return generators


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("gate", [None, "cnot"])
def test_the_reported_rung_samples_its_checkpoints_once(monkeypatch, mode, gate):
    generators = count_coordinate_grids(monkeypatch)
    sch, calls = counting_schedule("trigonometric")
    if gate is None:
        record = sagt.run_state_teleport(1, sch, 1.0, mode, [0.6, 0.8])
    else:
        record = sagt.run_gate_teleport(gate, sch, 1.0, mode, [0.6, 0.8, 0.0, 0.0])
    assert len(record.ground_overlap_trace) == 21
    # one sample per propagation pass, and one for all 21 checkpoints
    assert calls == each_called(len(generators) + 1)


@pytest.mark.parametrize("mode", MODES)
def test_an_observed_propagation_forms_its_generator_once(monkeypatch, mode):
    # 4,000 steps in 20 observer segments of 200 fill one pass of 4,096
    generators = count_coordinate_grids(monkeypatch)
    sch, calls = counting_schedule("trigonometric")
    family = sagt.single_sector_family(1.0, sch)
    if mode == "superadiabatic":
        family = sagt.superadiabatic_family(family, 1.0)
    seen = []
    psi0 = sagt.initial_state([0.6, 0.8], 1)
    sagt.propagate(family, psi0, 4000, tau=1.0, observer=lambda s, psi: seen.append(s))
    assert len(seen) == 21
    assert generators == [4000]
    assert calls == each_called(1)
