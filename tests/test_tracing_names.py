"""Every name the benchmark's layer trace patches still exists in searn.

``perfbench/tracing.py`` wraps functions by module attribute and methods
through ``cls.__dict__``; a refactor that renames one, or moves a method
to a base class, would break ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_functions_exist(tracing):
    for _, module, attr in (tracing.SPANNED_FUNCTIONS
                            + tracing.COUNTED_FUNCTIONS):
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), f"{module}.{attr} is gone"


def test_patched_methods_are_defined_on_their_class(tracing):
    for _, module, cls_name, attr in (tracing.SPANNED_METHODS
                                      + tracing.COUNTED_METHODS):
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, f"{module}.{cls_name} is gone"
        assert attr in cls.__dict__, \
            f"{module}.{cls_name}.{attr} is not defined on the class"


def test_install_and_remove_restore_every_binding(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, key, original in patched:
            assert vars(owner)[key] is not original
    finally:
        tracer.remove()
    for owner, key, original in patched:
        assert vars(owner)[key] is original
