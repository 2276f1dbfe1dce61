"""The benchmark's traced run wraps chowline's layer functions by name.

Installing its tracer fails when a traced binding is gone, so a refactor
that drops one fails here rather than in a later traced benchmark run.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_tracer_finds_every_traced_binding():
    import chowline.cli  # noqa: F401  (imports every traced module)

    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer(enabled=True)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for name, found in tracer.bindings.items():
        assert found, name
