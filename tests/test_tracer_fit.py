"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps tfwa's functions and methods by name, and the
LAPACK routines an explosion calls.  A refactor that deletes or renames one
of those names makes ``perfbench/run.py --trace 1`` fail, or leaves the
tracer blind to the code that replaced it.  This test installs the tracer
the way the benchmark's traced child does and checks that every name it
lists was rebound, and that uninstalling puts every original back.
"""

import importlib
import sys
from pathlib import Path

import tfwa.harness  # noqa: F401  the tracer wraps harness.run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lookup(modname, attr):
    """The object that ``(modname, attr)`` names, a method by ``Class.method``."""
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name))[method]
    return getattr(module, attr)


def _namespaces(tracing):
    """Every namespace the tracer may rebind in: the tfwa modules, the LAPACK
    routines' modules and the classes whose methods it wraps."""
    spaces = [m for n, m in sys.modules.items() if n == "tfwa" or n.startswith("tfwa.")]
    spaces += [importlib.import_module(modname) for modname, _ in tracing.LAPACK]
    for modname, attr, _ in tracing.SPANS:
        if "." in attr:
            spaces.append(getattr(importlib.import_module(modname), attr.split(".")[0]))
    return spaces


def _snapshot(spaces):
    return [dict(vars(space)) for space in spaces]


def test_tracer_rebinds_every_listed_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    entries = [(m, a) for m, a, _ in tracing.SPANS] + list(tracing.LAPACK)
    originals = [_lookup(m, a) for m, a in entries]
    spaces = _namespaces(tracing)
    before = _snapshot(spaces)

    tracer = tracing.Tracer(1e-8)
    try:
        tracer.install()
        wrapped = [_lookup(m, a) for m, a in entries]
        during = _snapshot(spaces)
    finally:
        tracer.uninstall()
    after = _snapshot(spaces)

    unwrapped = [e for e, o, w in zip(entries, originals, wrapped) if w is o]
    assert not unwrapped, f"the tracer no longer wraps {unwrapped}"
    changed = sum(
        1 for b, d in zip(before, during) for key, value in b.items() if d.get(key) is not value
    )
    assert changed >= len(entries)
    for space, b, a in zip(spaces, before, after):
        assert b.keys() == a.keys(), space
        left = [key for key, value in b.items() if a[key] is not value]
        assert not left, f"{space} still holds wrappers for {left}"
