"""The benchmark's tracer wraps methods by name: every target must resolve,
and every counter must read arguments the traced functions still take."""

import json
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


RUN = """
import json, sys, time
sys.path.insert(0, {perfbench!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from spectral_embed.cli import main
start = time.perf_counter()
codes = [main(["embed", "--scan", "--config", {embed!r},
               "--out", {out!r} + "/embed"]),
         main(["charts", "--config", {charts!r},
               "--out", {out!r} + "/charts"])]
summary = tracer.summary(start, time.perf_counter())
print(json.dumps({{"codes": codes,
                  "failed": [span[0] for span in tracer.spans if span[5]],
                  "groups": summary["groups"]}}))
"""


def test_counters_read_the_traced_signatures(tmp_path):
    # a counter reads its call's arguments by name: one that names a
    # removed parameter fails only inside a traced run
    embed = tmp_path / "embed.cfg"
    embed.write_text("manifold.kind = circle\nmanifold.samples = 512\n"
                     "spectrum.count = 40\nembed.map = H\nembed.delta = 0.3\n"
                     "embed.levels = 2\nembed.pairs = 40\n"
                     "embed.h_near = 0.05\nembed.h_far = 1.0\n")
    charts = tmp_path / "charts.cfg"
    charts.write_text("charts.nodes = 21,41\ncharts.steps = 32\n"
                      "charts.q_list = 0.02,0.04\ncharts.sweep_nodes = 41\n"
                      "charts.sweep_steps = 32\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", RUN.format(
            perfbench=os.path.join(ROOT, "perfbench"), embed=str(embed),
            charts=str(charts), out=str(tmp_path / "out"))],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"][0] == 0 and result["codes"][1] in (0, 1)
    assert result["failed"] == []
    groups = result["groups"]
    assert {"requested", "kept"} <= set(groups["embed.pairs"])
    assert "points" in groups["embed.map_eval"]
    assert "steps" in groups["charts.fd_solve"]
    assert {"bytes", "files"} <= set(groups["reporting.write"])
