"""Batch benchmark for spectral_embed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check --seed N
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout.  Workloads are fixed job lists
(see ``jobs.py``).  A run is a closed loop with one client: jobs run one
at a time, each in a fresh interpreter with the BLAS/OpenMP pools pinned
to one thread, and batches repeat until ``--seconds`` have passed (at
least two batches).  Every job's exit code, report values, pass flags and
output files are checked against ``reference.json``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``batch_s``     median over batches of the summed job wall time, each job
                  timed from after ``import spectral_embed.cli`` until its
                  last output is written
* ``cpu_s``       median over batches of the summed job CPU time (user+sys)
* ``setup_s``     median over job processes of spawn-to-import-finished
* ``peak_rss_mb`` maximum peak RSS over job processes

``fail_ratio`` (failed over attempted jobs) is printed in the table above
the JSON line and carried by its ``failed`` and ``attempted`` fields.

With ``--trace 1`` untraced and traced batches alternate, every traced
job's spans are written as JSONL under ``.perfbench_work/traces/`` and the
JSON line carries the per-layer metrics.  Full results with metadata go to
``.perfbench_work/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import jobs as jobdefs  # noqa: E402
from tracer import LAYERS  # noqa: E402

THREADS = "1"
MIN_BATCHES = 2
RUN_LIMIT_S = 120.0     # start no batch after this once MIN_BATCHES ran
RUN_DEADLINE_S = 150.0  # kill jobs still running then, so a run ends in 180 s
RTOL, ATOL = 1e-6, 1e-9


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def child_env(workdir):
    """Job environment, with the thread pools pinned before numpy loads.

    One thread is the plain single-threaded baseline.  The program's own
    SPECTRAL_EMBED_THREADS is applied only after numpy has started its
    pools, so it alone would not pin them; it is set to match.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SPECTRAL_EMBED_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    return env


def prepare_jobs(workload, seed, workdir):
    """Job specs for one workload; configs are written once per run."""
    specs = []
    for job in jobdefs.workload_jobs(workload, ROOT):
        spec = dict(job, seed=seed)
        if job["kind"] == "cli":
            if job["config"] is not None:
                path = os.path.join(workdir, f"{job['name']}.cfg")
                with open(path, "w") as fh:
                    fh.write(job["config"])
            else:
                path = os.path.join(ROOT, job["config_file"])
            spec["config_path"] = path
        specs.append(spec)
    return specs


def run_job(spec, workdir, tag, trace, env, timeout):
    """Spawn one job, wait for it, and return its measured record."""
    jobdir = os.path.join(workdir, f"{tag}_{spec['name']}")
    outdir = os.path.join(jobdir, "out")
    os.makedirs(outdir)
    child = {"kind": spec["kind"], "seed": spec["seed"], "trace": trace,
             "result": os.path.join(jobdir, "result.json"),
             "spans": os.path.join(jobdir, "spans.jsonl")}
    if spec["kind"] == "cli":
        child["argv"] = spec["argv"] + ["--config", spec["config_path"],
                                        "--out", outdir,
                                        "--seed", str(spec["seed"])]
    else:
        child["func"] = spec["func"]
    spec_path = os.path.join(jobdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(child, fh)

    log_path = os.path.join(jobdir, "log.txt")
    with open(log_path, "w") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    record = {"job": spec["name"], "exit": proc.returncode}
    try:
        with open(child["result"]) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    if result is None:
        record["problems"] = [f"no result (process exit {proc.returncode})"]
    else:
        record.update(setup_s=result["ready"] - spawn, wall_s=result["wall_s"],
                      cpu_s=result["cpu_s"], peak_rss_mb=result["peak_rss_mb"],
                      threads=result["threads"], rc=result["rc"])
        values = result["values"]
        if spec["kind"] == "cli":
            values = read_reports(outdir)
        record["values"] = values
        record["files"] = hash_tree(outdir)
        record["problems"] = []
        if result["error"]:
            record["problems"].append("raised: " + result["error"]
                                      .strip().splitlines()[-1])
        elif result["rc"] != 0:
            record["problems"].append(f"exit code {result['rc']}")
        if trace:
            record["trace"] = result["trace"]
            with open(child["spans"]) as fh:
                record["spans"] = fh.read()
    if record["problems"]:
        with open(log_path) as fh:
            record["log_tail"] = fh.read()[-2000:]
    shutil.rmtree(jobdir)
    return record


def read_reports(outdir):
    """All ``*_report.txt`` entries as ``<report>.<key>`` -> text."""
    values = {}
    for name in sorted(os.listdir(outdir)):
        if not name.endswith("_report.txt"):
            continue
        stem = name[:-len(".txt")]
        with open(os.path.join(outdir, name)) as fh:
            for line in fh:
                key, _, value = line.rstrip("\n").partition("=")
                values[f"{stem}.{key}"] = value
    return values


def hash_tree(directory):
    out = {}
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, directory)] = digest
    return out


def tree_digest(files):
    h = hashlib.sha256()
    for rel, digest in sorted(files.items()):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Correctness against the recorded reference
# ---------------------------------------------------------------------------

def _number(text):
    if isinstance(text, bool):
        return float(text)
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def is_flag(key):
    leaf = key.rsplit(".", 1)[-1]
    return leaf in ("pass", "pass_flag") or leaf.endswith(("_ok", "_pass"))


def values_match(got, want):
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return str(got) == str(want)
    return math.isclose(g, w, rel_tol=RTOL, abs_tol=ATOL)


def check_record(record, ref_job):
    """Append problems to the record; count output files that changed."""
    problems = record["problems"]
    if "values" not in record:
        return
    values = record["values"] or {}
    for key, want in ref_job["pinned"].items():
        if key not in values:
            problems.append(f"missing {key}")
        elif not values_match(values[key], want):
            problems.append(f"{key}={values[key]} differs from {want}")
    for key in ref_job["seeded"]:
        num = _number(values.get(key))
        if key not in values:
            problems.append(f"missing {key}")
        elif num is not None and not math.isfinite(num):
            problems.append(f"{key}={values[key]} is not finite")
    for key, value in values.items():
        if is_flag(key) and str(value) not in ("1", "True"):
            problems.append(f"{key}={value}")
    files = record["files"]
    for rel in ref_job["seeded_files"]:
        if rel not in files:
            problems.append(f"missing output {rel}")
    record["files_changed"] = sum(
        1 for rel, digest in ref_job["files"].items()
        if files.get(rel) != digest)
    record["tree_sha256"] = tree_digest(files)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def check_checkout():
    needed = [os.path.join(ROOT, "src", "spectral_embed", "cli.py"),
              os.path.join(ROOT, "configs", "circle_h.cfg"), REFERENCE]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise SetupError("not a spectral_embed checkout, missing "
                         + ", ".join(os.path.relpath(p, ROOT) for p in missing))


def run_batches(workload, seed, seconds, trace, reference,
                min_batches=MIN_BATCHES):
    """Batches until `seconds` have passed; odd batches traced if asked."""
    workdir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env(workdir)
    try:
        specs = prepare_jobs(workload, seed, workdir)
        ref_jobs = reference["workloads"][workload]
        batches = []
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S
        while True:
            traced = bool(trace) and len(batches) % 2 == 1
            records = []
            for spec in specs:
                timeout = max(1.0, deadline - time.perf_counter())
                rec = run_job(spec, workdir, f"b{len(batches)}", traced, env,
                              timeout)
                check_record(rec, ref_jobs[spec["name"]])
                records.append(rec)
            batches.append({"traced": traced, "jobs": records})
            elapsed = time.perf_counter() - start
            if (len(batches) >= min_batches
                    and elapsed >= min(seconds, RUN_LIMIT_S)):
                return batches
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def batch_sum(batch, key):
    return sum(r.get(key, 0.0) for r in batch["jobs"])


def end_to_end(batches):
    plain = [b for b in batches if not b["traced"]]
    records = [r for b in batches for r in b["jobs"] if "setup_s" in r]
    return {
        "batch_s": (statistics.median(batch_sum(b, "wall_s") for b in plain),
                    "s"),
        "cpu_s": (statistics.median(batch_sum(b, "cpu_s") for b in plain),
                  "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MiB"),
    }


GROUP_METRICS = [
    ("manifold.build", "manifold.build_s"),
    ("manifold.assemble", "manifold.assemble_s"),
    ("manifold.query", "manifold.query_s"),
    ("manifold.dijkstra", "manifold.dijkstra_s"),
    ("manifold.analytic_distance", "manifold.analytic_distance_s"),
    ("spectrum.solve", "spectrum.solve_s"),
    ("spectrum.basis_eval", "spectrum.basis_eval_s"),
    ("spectrum.bounds", "spectrum.bounds_s"),
    ("heat.kernel", "heat.kernel_s"),
    ("heat.check", "heat.check_s"),
    ("embed.net", "embed.net_s"),
    ("embed.pairs", "embed.pairs_s"),
    ("embed.map_eval", "embed.map_eval_s"),
    ("charts.fd_solve", "charts.fd_solve_s"),
    ("radius.experiment", "radius.experiment_s"),
    ("radius.constants", "radius.constants_s"),
    ("reporting.write", "reporting.write_s"),
    ("cli.self", "cli.self_s"),
]
# (metric, group, counter or "spans" for the number of calls)
COUNT_METRICS = [
    ("manifold.dijkstra_sources", "manifold.dijkstra", "sources"),
    ("manifold.analytic_distance_calls", "manifold.analytic_distance",
     "spans"),
    ("heat.kernel_calls", "heat.kernel", "spans"),
    ("embed.net_points", "embed.net", "points"),
    ("embed.map_eval_points", "embed.map_eval", "points"),
    ("charts.fd_steps", "charts.fd_solve", "steps"),
    ("reporting.bytes_written", "reporting.write", "bytes"),
    ("reporting.files_written", "reporting.write", "files"),
]
SELF_LAYERS = ("manifold", "spectrum", "heat", "embed", "charts", "radius")


def per_layer(batches):
    """Median over traced batches of each batch's summed layer figures."""
    traced = [b for b in batches if b["traced"]]
    plain = [b for b in batches if not b["traced"]]

    def per_batch(batch):
        groups, errors = {}, dict.fromkeys(LAYERS, 0)
        for rec in batch["jobs"]:
            summary = rec.get("trace")
            if summary is None:
                continue
            for group, figures in summary["groups"].items():
                acc = groups.setdefault(group, {})
                for key, value in figures.items():
                    acc[key] = acc.get(key, 0) + value
            for layer, n in summary["errors"].items():
                errors[layer] += n
        out = {}
        for group, metric in GROUP_METRICS:
            out[metric] = groups.get(group, {}).get("self_s", 0.0)
        for metric, group, counter in COUNT_METRICS:
            out[metric] = groups.get(group, {}).get(counter, 0)
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = sum(
                g["self_s"] for name, g in groups.items()
                if name.split(".")[0] == layer)
        pairs = groups.get("embed.pairs", {})
        out["embed.pairs_kept_ratio"] = (
            pairs["kept"] / pairs["requested"] if pairs.get("requested")
            else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        out["reporting.files_changed"] = sum(
            r.get("files_changed", 0) for r in batch["jobs"])
        return out

    rows = [per_batch(b) for b in traced]
    metrics = {}
    for key in rows[0]:
        metrics[key] = statistics.median(row[key] for row in rows)
    traced_jobs = [r for b in traced for r in b["jobs"] if "trace" in r]
    metrics["spectrum.max_residual"] = max(
        (r["trace"]["max_residual"] for r in traced_jobs), default=0.0)
    metrics["trace.coverage_min"] = min(
        (r["trace"]["covered_s"] / r["trace"]["wall_s"] for r in traced_jobs),
        default=0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(batch_sum(b, "wall_s") for b in traced)
        / statistics.median(batch_sum(b, "wall_s") for b in plain))
    return metrics


LAYER_UNITS = {"_s": "s", "_ratio": "1", "max_residual": "1",
               "coverage_min": "1"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------

def _version(dist):
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spectral_embed")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cpu_ticks():
    """(steal, total) jiffies of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor took between reads."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def metadata(workload, seed, seconds, trace):
    info = dict(jobdefs.WORKLOADS[workload])
    info.pop("jobs")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "blas_threads_env": THREADS, "git_commit": git_commit(),
        "source_sha256": source_digest(), "workload_info": info,
        "execution": "closed loop, one client, one fresh interpreter per job",
    }


def write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def run(workload, seed, seconds, trace):
    check_checkout()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    ticks = cpu_ticks()
    batches = run_batches(workload, seed, seconds, trace, reference)
    steal = steal_share(ticks, cpu_ticks())
    records = [r for b in batches for r in b["jobs"]]
    failed = sum(1 for r in records if r["problems"])
    stem = f"{workload}-seed{seed}-trace{int(trace)}"

    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in per_layer(batches).items()}
        spans_path = os.path.join(WORK, "traces", stem + ".jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as fh:
            for i, batch in enumerate(batches):
                for rec in batch["jobs"]:
                    for line in rec.pop("spans", "").splitlines():
                        span = json.loads(line)
                        span.update(batch=i, job=rec["job"])
                        fh.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(batches)

    meta = metadata(workload, seed, seconds, trace)
    meta["threads_seen"] = sorted({r["threads"] for r in records
                                   if "threads" in r})
    meta["batches"] = len(batches)
    meta["host_cpu_steal_share"] = steal
    write_json(os.path.join(WORK, "results", stem + ".json"), {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_ratio": failed / len(records),
        "batches": batches,
    })

    print(f"workload {workload}  seed {seed}  batches {len(batches)}  "
          f"jobs {len(records)}  threads {meta['threads_seen']}  "
          f"host steal {steal if steal is None else round(steal, 4)}")
    for r in records:
        if r["problems"]:
            print(f"FAIL {r['job']}: " + "; ".join(r["problems"]))
        summary = r.get("trace")
        if summary and summary["covered_s"] < 0.95 * summary["wall_s"]:
            print(f"WARN {r['job']}: spans cover only "
                  f"{summary['covered_s'] / summary['wall_s']:.1%} of its "
                  "wall time")
    changed = sum(r.get("files_changed", 0) for r in records)
    print(f"output files differing from the reference (informational): "
          f"{changed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / len(records):.6g} 1")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


# ---------------------------------------------------------------------------
# Reference recording and self check
# ---------------------------------------------------------------------------

REFERENCE_SEEDS = (0, 1, 2, 3)


def record_reference():
    """Record report values and output hashes at this commit.

    Each job runs once per seed in REFERENCE_SEEDS.  Keys and files not
    declared seeded must agree across all seeds, else recording fails.
    """
    if not os.path.exists(os.path.join(ROOT, "src", "spectral_embed")):
        raise SetupError("run from a spectral_embed checkout")
    empty = {"workloads": {w: {j["name"]: {"pinned": {}, "seeded": [],
                                           "seeded_files": [], "files": {}}
                               for j in jobdefs.workload_jobs(w, ROOT)}
                           for w in jobdefs.WORKLOADS}}
    out = {"source_sha256": source_digest(), "git_commit": git_commit(),
           "seeds": list(REFERENCE_SEEDS), "rtol": RTOL, "atol": ATOL,
           "workloads": {}}
    for workload in jobdefs.WORKLOADS:
        runs = [run_batches(workload, seed, 0, False, empty, 1)[0]["jobs"]
                for seed in REFERENCE_SEEDS]
        jobs_out = {}
        for spec, *recs in zip(jobdefs.workload_jobs(workload, ROOT), *runs):
            for rec in recs:
                if rec["problems"]:
                    raise SetupError(f"{workload}/{spec['name']}: "
                                     + "; ".join(rec["problems"]))
            first = recs[0]
            seeded = [k for k in first["values"]
                      if k.rsplit(".", 1)[-1] in spec["seeded_keys"]]
            pinned = {k: v for k, v in first["values"].items()
                      if k not in seeded}
            # a report holding a seeded key is itself seeded
            seeded_files = sorted(set(spec["seeded_files"]) | {
                k.split(".")[0] + ".txt" for k in seeded})
            files = {k: v for k, v in first["files"].items()
                     if k not in seeded_files}
            for rec in recs[1:]:
                for key, want in pinned.items():
                    if not values_match(rec["values"][key], want):
                        raise SetupError(f"{workload}/{spec['name']}: {key} "
                                         "depends on the seed")
                for rel, digest in files.items():
                    if rec["files"].get(rel) != digest:
                        raise SetupError(f"{workload}/{spec['name']}: {rel} "
                                         "depends on the seed")
            jobs_out[spec["name"]] = {
                "pinned": pinned, "seeded": seeded,
                "seeded_files": seeded_files, "files": files,
                "wall_s": [round(r["wall_s"], 3) for r in recs]}
            print(f"{workload}/{spec['name']}: {len(pinned)} pinned, "
                  f"{len(seeded)} seeded keys, {len(files)} pinned files")
        out["workloads"][workload] = jobs_out
    write_json(REFERENCE, out)


def self_check(seed):
    """One batch of every workload at `seed` and `seed + 1`."""
    check_checkout()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    bad = 0
    for workload in jobdefs.WORKLOADS:
        for s in (seed, seed + 1):
            batch = run_batches(workload, s, 0, False, reference, 1)[0]
            for rec in batch["jobs"]:
                status = "FAIL " + "; ".join(rec["problems"]) \
                    if rec["problems"] else "pass"
                bad += bool(rec["problems"])
                print(f"{workload:16s} seed {s:<6d} {rec['job']:24s} "
                      f"{rec.get('wall_s', 0):7.3f} s  "
                      f"changed files {rec.get('files_changed', '-')}  "
                      f"{status}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobdefs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
