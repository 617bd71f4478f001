"""The benchmark's tracer still finds every function it wraps by name.

``perfbench/tracer.py`` patches the functions and methods listed in its
``TARGETS`` and reads work sizes off results (``StateVector.size``). A
deletion or rename in the package breaks ``Tracer.install`` with an
``AttributeError`` or ``KeyError``; this test notices it without running the
benchmark's own suite. The tracer module is loaded from its file and not
modified.
"""

import importlib.util
import sys
from pathlib import Path

from polysample import permanent, statevector

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = _load_tracer()
    original = statevector.prepare_monomial_superposition
    t = tracer.Tracer()
    t.install()
    try:
        assert statevector.prepare_monomial_superposition is not original
        statevector.prepare_monomial_superposition(permanent(2), 2)
    finally:
        t.uninstall()
    assert statevector.prepare_monomial_superposition is original
    spans = t.spans()
    traced = spans["names"].index("statevector.prepare_monomial_superposition")
    assert spans["work"][spans["name_id"] == traced].tolist() == [16]
