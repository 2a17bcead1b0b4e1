"""The benchmark tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps the solver's functions by module and name; a
rename in the package would otherwise show up only as a missing span in a
traced benchmark run. The tracer is read from its file, never written.
"""
import importlib
import sys
from pathlib import Path

import chemoplast  # noqa: F401  (the tracer patches the imported modules)

_TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = type(sys)("perfbench_tracer")
    sys.modules[module.__name__] = module     # dataclasses resolve their module here
    exec(compile(_TRACER_PY.read_text(), str(_TRACER_PY), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


def test_every_traced_name_resolves():
    for mod_name, attr, _, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"
    mod_name, cls_name, meth, _, _ = tracer.PROBE_METHOD
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert callable(vars(cls).get(meth)), f"{mod_name}.{cls_name}.{meth}"


def test_install_reports_nothing_missing():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == []
    finally:
        tr.uninstall()
