"""The traced benchmark mode wraps functions of `ucz` by name.

`perfbench/tracing.py` resolves each name in `TIMED` and `COUNTED` when a
traced run starts; a renamed or deleted function would break only that
mode, so every name is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(layer, path) for layer, paths in tracing.TIMED.values() for path in paths]
    wrapped += tracing.COUNTED.values()
    assert len(wrapped) > len(tracing.TIMED)
    broken = []
    for layer, path in wrapped:
        try:
            _, _, original = tracing._resolve(importlib.import_module(f"ucz.{layer}"), path)
        except AttributeError:
            broken.append(f"{layer}.{path}")
            continue
        if not callable(original):
            broken.append(f"{layer}.{path}")
    assert not broken
