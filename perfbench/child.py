"""Run one benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the job, its argv or library function, the seed, whether to
trace, and where to write the result.  The parent sets the BLAS/OpenMP
thread variables in this process's environment before it starts, so they
are in place when numpy loads.  The result JSON records the moment
``import spectral_embed.cli`` finished (on the monotonic clock the parent
uses for the spawn time), the job's wall and CPU time from after the
import until its last output is written, peak RSS and the thread count
read from /proc/self/status.
"""

import json
import os
import resource
import sys
import time
import traceback


def thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    import spectral_embed.cli as cli
    ready = time.perf_counter()
    threads = [thread_count()]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    values, error, rc = None, None, None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        if spec["kind"] == "cli":
            rc = cli.main(spec["argv"])
        else:
            from jobs import LIBRARY_JOBS
            values = LIBRARY_JOBS[spec["func"]](spec["seed"])
            rc = 0
    except BaseException:  # a raising job is a failed job, not a crash
        error = traceback.format_exc()
    end = time.perf_counter()
    cpu1 = cpu_seconds()
    threads.append(thread_count())

    result = {
        "ready": ready, "start": start, "end": end, "wall_s": end - start,
        "cpu_s": cpu1 - cpu0, "rc": rc, "error": error, "values": values,
        "threads": max(t for t in threads if t is not None),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(start, end)
        tracer.write_jsonl(spec["spans"], start, end)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main(sys.argv[1])
