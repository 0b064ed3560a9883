"""The benchmark's tracer wraps methods by name: every target must resolve."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installing the tracer rebinds library functions in place, so it runs in a
# fresh interpreter, never in the test process.
CHECK = """
import sys
sys.path.insert(0, {perfbench!r})
from tracer import TARGETS, Tracer
Tracer().install()
for mod_name, path, group, count in TARGETS:
    obj = sys.modules["spectral_embed." + mod_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    assert hasattr(obj, "__wrapped__"), mod_name + "." + path
print(len(TARGETS))
"""


def test_every_tracer_target_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         CHECK.format(perfbench=os.path.join(ROOT, "perfbench"))],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0
