"""The benchmark's tracer wraps library names it looks up by ``(module, name)``.

A name that a refactor deletes or renames would only fail ``Tracer.install``
inside a traced benchmark run, so every boundary is checked here, reading
``bench/tracing.py`` as a file without importing the benchmark package.
"""
import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_boundary_resolves_to_a_callable():
    boundaries = runpy.run_path(str(TRACING))["BOUNDARIES"]
    assert boundaries
    missing = [f"{module}.{name}" for module, name, _ in boundaries
               if not callable(getattr(importlib.import_module(f"oneshot_secrecy.{module}"), name, None))]
    assert not missing, f"bench/tracing.py wraps names the library no longer has: {missing}"
