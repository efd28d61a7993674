"""The names that perfbench's tracer patches from outside the program.

`perfbench/tracing.py` wraps the functions and methods listed in its
`TARGETS` by name, and two of its hooks read the program's interfaces: the
retry counter calls `lattice.with_precision_retry` with its own parameters,
and the SNF hook reads `U` of a `smith_normal_form` result. A change that
renames or drops one of them breaks the benchmark; these tests catch it
here, without running it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded by path (its dataclasses need the module
    registered while it runs)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _target(module: str, attr: str):
    """The object a TARGETS entry names, as it is stored (not bound)."""
    obj = importlib.import_module(f"normtower.{module}")
    for key in attr.split("."):
        obj = inspect.getattr_static(obj, key)
    return obj


def test_the_tracer_resolves_every_target_and_restores_it():
    tracing = _tracing()
    originals = {(m, a): _target(m, a) for _, _, m, a, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert [key for key, fn in originals.items() if _target(*key) is fn] == []
    finally:
        tracer.uninstall()
    assert [key for key, fn in originals.items() if _target(*key) is not fn] == []


def test_the_tracer_hooks_read_what_the_program_provides():
    tracing = _tracing()
    lattice, snf = (importlib.import_module(f"normtower.{m}") for m in ("lattice", "snf"))
    wrapper = tracing._count_retries(tracing.Tracer(), lattice.with_precision_retry)
    assert (list(inspect.signature(wrapper).parameters)
            == list(inspect.signature(lattice.with_precision_retry).parameters))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = snf.smith_normal_form(np.array([[3, 1, 0], [0, 9, 2]]), 3, 4)
        assert res.U.shape == (2, 2)
        assert lattice.with_precision_retry(3, 1, 0, 4, lambda t: t.N) == 4
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["snf.smith_normal_form.calls"] == 1 and m["snf.smith_normal_form.uv_used_ratio"] == 1
    assert m["lattice.with_precision_retry.calls"] == 1
    assert m["lattice.with_precision_retry.retries"] == 0
