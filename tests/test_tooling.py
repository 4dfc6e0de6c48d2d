"""The benchmark's tracer binds program names; each must still exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("span, module_name, path", TARGETS,
                         ids=["%s:%s" % (m, p) for _, m, p in TARGETS])
def test_tracer_target_resolves(span, module_name, path):
    # the lookup of Tracer.install: a method is an entry of its class
    # __dict__, a function an attribute of its module
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert attr in vars(getattr(module, owner_name)), (span, path)
    else:
        assert callable(getattr(module, attr, None)), (span, path)
