"""numpy is the only third-party package the library imports."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import importlib, pkgutil, sys
import repro
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    if not mod.name.endswith(".__main__"):
        importlib.import_module(mod.name)
print(",".join(sorted(name for name in ("networkx", "scipy") if name in sys.modules)))
"""


def test_importing_every_module_loads_no_dropped_dependency():
    """networkx and scipy were once declared dependencies; importing
    every ``repro`` module must pull in neither."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""
