"""The layer functions the benchmark's traced run wraps must exist.

``perfbench/tracer.py`` skips an attribute it cannot find, so that its time
stays with the enclosing span. A renamed or moved layer function would
therefore read zero in its per-layer metric without any failure; this test
turns such a rename into one.
"""

import importlib.util
import os
import sys

import episoderank

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_resolves_in_the_package():
    tracing = _load_tracer()
    wrapped = []

    class Recording(tracing.Tracer):
        def wrap(self, owner, attr, name, on_return=None):
            wrapped.append((owner.__name__, attr, name, callable(getattr(owner, attr, None))))

    tracing.install_program_spans(Recording(), episoderank)
    missing = [(owner, attr) for owner, attr, _, found in wrapped if not found]
    assert wrapped and not missing, missing
    # every per-layer span but the root is fed by at least one wrapper
    assert {name for _, _, name, _ in wrapped} == set(tracing.SPAN_METRICS) - {"cli.main"}
