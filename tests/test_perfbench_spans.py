"""The traced benchmark's hooks into the library stay in place.

``perfbench/spans.py`` wraps library functions by module and
qualified name, and reads the sampling plan from the third positional
argument of the Monte Carlo entry points.  Renaming any of them breaks
``perfbench/run.py --trace 1`` without a change under ``perfbench/``,
so these checks load that module from its file and only read it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from spherebell import correlation, geometry, quantum

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for module_name, qualname in load_spans().TARGETS:
        module = importlib.import_module(f"spherebell.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            # methods are rebound on the class that defines them
            assert attr in vars(getattr(module, owner_name)), qualname
        else:
            assert callable(getattr(module, attr)), qualname


def test_correlation_mc_takes_the_plan_third():
    assert list(inspect.signature(correlation.correlation_mc).parameters)[2] == "plan"


@pytest.mark.parametrize(
    "fn",
    [
        correlation.correlation_mc_grid,
        quantum.mc_quantum_correlation,
        quantum.mc_quantum_curve,
    ],
    ids=lambda fn: fn.__name__,
)
def test_other_monte_carlo_entries_take_the_plan_third(fn):
    assert list(inspect.signature(fn).parameters)[2] == "plan"


def test_partner_map_spans_count_the_points():
    # the traced benchmark reads a point count off each partner map's result
    quantity = load_spans().QUANTITY
    eps, phi, omega = np.full(7, 0.4), np.full(7, 1.1), np.full(7, 2.3)
    b = geometry.partner_many(0.3, *geometry.partner_frame(*geometry.cos_sin(eps, phi, omega)))
    alpha = geometry.partner_polar_many(0.3, eps, omega)
    assert quantity["geometry.partner_many"]((), {}, b) == 7
    assert quantity["geometry.partner_polar_many"]((), {}, alpha) == 7
