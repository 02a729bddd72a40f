"""The benchmark's tracer wraps engine names by lookup; a renamed or
deleted name must fail here, not only under ``perfbench/run.py --trace 1``."""

import importlib
import os

from conftest import ROOT


def test_benchmark_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()   # raises KeyError on a name the engine no longer binds
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
