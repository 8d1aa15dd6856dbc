"""Tests of the benchmark's span tracer.

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, os.path.dirname(HERE))

import fockfield  # noqa: E402
import fockfield.cli  # noqa: E402
import fockfield.field  # noqa: E402
import fockfield.fock  # noqa: E402
import spans  # noqa: E402


def test_self_times_on_nested_tree():
    tree = [
        (0.0, 10.0, None),  # 0 root
        (1.0, 4.0, 0),      # 1 child
        (3.0, 6.0, 0),      # 2 child overlapping 1
        (2.0, 3.0, 1),      # 3 grandchild under 1
        (8.0, 12.0, 0),     # 4 child running past the root's end
        (11.0, 11.5, 4),    # 5 grandchild under 4, outside the root
    ]
    got = spans.self_times(tree)
    # root: 10 minus the union [1, 6] and the clipped [8, 10]
    assert got == pytest.approx([3.0, 2.0, 3.0, 1.0, 3.5, 0.5])


def test_self_times_sum_to_root_duration_without_overlap():
    tree = [(0.0, 5.0, None), (0.5, 1.5, 0), (2.0, 4.5, 0), (2.5, 3.0, 2), (3.0, 4.0, 2)]
    assert sum(spans.self_times(tree)) == pytest.approx(5.0)


def test_layer_summary_splits_self_time_by_layer():
    tracer = spans.Tracer()
    tracer.spans = [("cli", 0.0, 4.0, None), ("field", 1.0, 3.0, 0), ("fock", 1.5, 2.0, 1)]
    summary = tracer.layer_summary()
    assert summary["cli"] == (1, pytest.approx(2.0), 0)
    assert summary["field"] == (1, pytest.approx(1.5), 0)
    assert summary["fock"] == (1, pytest.approx(0.5), 0)


def _snapshot():
    return {
        "fock.create": fockfield.fock.create,
        "fockfield.create": fockfield.create,
        "FockVector.norm": vars(fockfield.fock.FockVector)["norm"],
        "FockVector.__add__": vars(fockfield.fock.FockVector)["__add__"],
        **{f"cli.{name}": getattr(fockfield.cli, name) for name in ("commutator_sweep", "default_spacelike_grid",
                                                                    "number_density", "prepare_one_particle")},
    }


def test_wrappers_are_installed_then_removed():
    before = _snapshot()
    assert fockfield.cli.commutator_sweep is fockfield.field.commutator_sweep
    tracer = spans.Tracer()
    with tracer:
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
        space = fockfield.fock.ModeSpace(3, fockfield.fock.Statistics.BOSE)
        fockfield.fock.create(fockfield.fock.vacuum(space), 1)
        lattice = fockfield.field.LatticeSpec(8, 0.5, 1.0, fockfield.field.Dispersion.RELATIVISTIC)
        fockfield.cli.commutator_sweep(lattice, [(0.0, 1.0), (0.0, 1.5)])
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    assert fockfield.fock.create is before["fock.create"]
    assert fockfield.cli.commutator_sweep is fockfield.field.commutator_sweep
    # calls made while installed were recorded, with counts at the boundary only
    assert tracer.counters["field.mode_terms"] == 2 * 8
    assert tracer.counters["fock.components_out"] == 2  # vacuum, then create
    summary = tracer.layer_summary()
    assert summary["field"][0] >= 3  # the sweep, its two pauli_jordan calls, lattice properties
    assert summary["cli"][0] == 0
    # nothing is recorded once removed
    count = len(tracer.spans)
    fockfield.fock.vacuum(space)
    assert len(tracer.spans) == count


def test_wrappers_removed_after_an_exception():
    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer:
            fockfield.fock.ModeSpace(3, fockfield.fock.Statistics.BOSE).slot(7)
    assert tracer.errors["fock"] == 1
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
