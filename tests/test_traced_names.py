"""Every name that perfbench's tracer wraps must exist in the package: a
rename or deletion would make `Tracer.install` raise in every traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


SPANS = _load_spans()


@pytest.mark.parametrize("span", sorted(SPANS))
def test_traced_name_resolves(span):
    module, attr = SPANS[span]
    target = importlib.import_module(module)
    for part in attr.split("."):   # "Class.method" names a method
        target = getattr(target, part)
    assert callable(target)
