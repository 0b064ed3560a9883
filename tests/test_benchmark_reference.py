"""Every benchmark job at seed 0 keeps the report values and pass flags that
perfbench/reference.json pins.

The jobs run in this process, and their reports are read and compared with
the benchmark's own `read_reports`, `values_match` and `is_flag`, so a
change that moves a pinned value fails here, not first in a benchmark run.
Nothing under perfbench/ is written.
"""

import importlib.util
import json
import os
import sys

import pytest

from spectral_embed import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load_run():
    """perfbench/run.py as a module, with its `jobs` import, compiled
    without writing bytecode next to it."""
    path, flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, flag
    return run


RUN = _load_run()
with open(RUN.REFERENCE) as fh:
    REFERENCE = json.load(fh)["workloads"]
JOBS = [(workload, job["name"]) for workload in RUN.jobdefs.WORKLOADS
        for job in RUN.jobdefs.workload_jobs(workload, RUN.ROOT)]


def _run_job(spec, outdir):
    """The job's report values, as the benchmark reads them."""
    if spec["kind"] == "lib":
        return RUN.jobdefs.LIBRARY_JOBS[spec["func"]](spec["seed"])
    rc = cli.main(spec["argv"] + ["--config", spec["config_path"],
                                  "--out", str(outdir),
                                  "--seed", str(spec["seed"])])
    assert rc == 0, f"exit code {rc}"
    return RUN.read_reports(outdir)


@pytest.mark.parametrize("workload, name", JOBS,
                         ids=[f"{w}-{n}" for w, n in JOBS])
def test_pinned_values_and_flags_at_seed_0(workload, name, tmp_path):
    spec, = [s for s in RUN.prepare_jobs(workload, 0, str(tmp_path))
             if s["name"] == name]
    outdir = tmp_path / "out"
    outdir.mkdir()
    values = _run_job(spec, outdir)
    where = f"{workload}/{name}"
    wrong = [f"{where}: {key}={values.get(key)!r}, pinned {want!r}"
             for key, want in REFERENCE[workload][name]["pinned"].items()
             if key not in values or not RUN.values_match(values[key], want)]
    wrong += [f"{where}: flag {key}={value!r}" for key, value in values.items()
              if RUN.is_flag(key) and str(value) not in ("1", "True")]
    assert not wrong, "\n".join(wrong)
