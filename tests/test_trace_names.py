"""Every name the benchmark's tracer rebinds must exist in fuzzydea.

perfbench/tracing.py patches (module, attribute) pairs by name, so a
rename or removal in the package would only show when a traced run
fails.  The tracer imports only the standard library; it is loaded by
path here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_callable_of_its_module():
    traced = load_traced()
    assert traced
    for mod_name, attr, span in traced:
        module = importlib.import_module(f"fuzzydea.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, span)
