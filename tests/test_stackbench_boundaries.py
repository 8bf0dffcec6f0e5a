"""The stack benchmark's span boundaries exist where it patches them.

``stackbench/spans.py`` times each layer by replacing
``owner.__dict__[attr]`` for every ``(owner, attr)`` in its
``BOUNDARIES``.  A method that moves to a base class or goes away makes
``SpanTracer.install`` fail with a ``KeyError`` on every traced run, so
this reads the table from the benchmark itself and checks each entry.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "stackbench", "spans.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("stackbench_spans", SPANS)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for _layer, owner, attrs in module.BOUNDARIES
            for attr in attrs]


def test_every_span_boundary_is_defined_on_its_owner():
    boundaries = _boundaries()
    assert boundaries
    missing = [f"{owner.__name__}.{attr}" for owner, attr in boundaries
               if attr not in owner.__dict__]
    assert missing == []
