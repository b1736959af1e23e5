"""The traced benchmark finds every heyde function it wraps.

bench/tracing.py names each wrapped function by (module, qualified name) in
SPANNED and COUNTED, and Tracer._rebind looks a plain name up as a module
attribute and a Class.attr name in the class's own namespace.  A rename or
deletion in the package would otherwise surface only when a traced run
fails, so each target is resolved here the same way.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    targets = [
        target
        for table in (tracing.SPANNED, tracing.COUNTED)
        for group in table.values()
        for target in group
    ]
    assert targets
    missing = []
    for module_name, qualname in targets:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = hasattr(module, qualname)
        if not found:
            missing.append((module_name, qualname))
    assert missing == []
