"""The perfbench tracer resolves every name it traces in the package.

`Tracer.install` looks each target up with getattr, so renaming or deleting
one of them in `src/` breaks every traced benchmark run; this catches that
in the unit suite.
"""

import importlib.util
from pathlib import Path

import spherebayes.cli  # noqa: F401  (imports every package module before install, as the benchmark worker does)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_uninstalls():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        assert tracer.installed_wrappers() >= len(tracer.TARGETS)
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == 0
