"""The benchmark's tracer patches functions where the package looks them
up (``perfbench/tracing.py``, ``PATCHES``). A lookup site that a change
drops would otherwise only show when the traced benchmark runs."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_lookup_site_exists():
    patches = _load_tracing().PATCHES
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in patches
        if attr not in vars(owner)
    ]
    assert not missing
