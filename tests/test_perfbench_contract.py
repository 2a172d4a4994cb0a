"""The benchmark's tracer patches scoff functions and import sites by name.

A rename or merge in ``src/scoff`` that drops one of those names breaks the
traced benchmark; this check makes it fail in the unit suite too.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_current_sources():
    code = ('import sys; sys.path.insert(0, "perfbench"); '
            'from tracer import Tracer; Tracer().install()')
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
