"""The benchmark's traced run wraps program entry points by name.

``perfbench/layers.py`` looks every traced function and method up on
the live modules (``cls.__dict__[attr]``), so renaming or deleting one
of them silently breaks ``perfbench/run.py --trace 1``.  Installing and
undoing the hooks here turns that into a failing test instead.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # layers.py imports its sibling as a top-level ``harness`` module.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_undo(monkeypatch):
    harness = _load("harness", monkeypatch)
    layers = _load("layers", monkeypatch)
    from repro.badges import pipeline
    from repro.radio.ble import BleScanModel

    originals = (pipeline.sense_day, BleScanModel.__dict__["scan_fleet"])
    inst = layers.install(harness.Tracer())
    try:
        assert pipeline.sense_day is not originals[0]
        assert BleScanModel.__dict__["scan_fleet"] is not originals[1]
    finally:
        inst.undo()
    assert (pipeline.sense_day, BleScanModel.__dict__["scan_fleet"]) == originals
