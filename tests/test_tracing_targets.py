"""The benchmark's tracer patches the program by name: ``bench/tracing.py``'s ``TARGETS``
lists (module, attribute) pairs that ``Tracer._patch`` reads with ``getattr`` and no
default, so a name the program no longer has crashes every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_name_the_tracer_patches_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the file as it stands, unedited
    assert tracing.TARGETS
    missing = []
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        if "." in attr:  # as _patch reads it: the class, then the method in its own dict
            cls_name, method = attr.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
