"""Run one ctrkd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ensemble_kd --seed 1 --seconds 30 --trace 0

The run sets up its inputs from ``--seed`` several times (``setup_s`` is
the median), then repeats one fixed job as long as at least half of
another job still fits in ``--seconds`` (at least once) and reports
figures over all the jobs. With
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics instead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details (environment
manifest, per-job values, work counts, checks) go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, and a traced run
also writes its spans next to it as ``...-spans.jsonl``.
"""
from __future__ import annotations

import os

# One BLAS thread: on a 2-core machine two threads made epoch times vary
# threefold. Set before numpy is imported; CTRKD_WORKERS must be unset.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CTRKD_WORKERS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("ensemble_kd", "bigvocab_train", "cli_pipeline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def blas_info(np) -> dict:
    info = {"env_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
                    return info
    return info


def manifest(args, np) -> dict:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ctrkd", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": h.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(np), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def run_jobs(args, wl, log, tag: str):
    """Repeat the workload's job; returns [(job, tracer or None)] and the checks."""
    from spans import Tracer

    jobs, checks = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        n = len(jobs)
        tracer = Tracer(f"{tag}-job{n}") if args.trace and n % 2 == 1 else None
        log.clear()
        if tracer:
            tracer.install()
        try:
            wl.prepare()
            job = wl.job(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        job.calls = list(log.calls)
        job.preprocess_s = sum(log.preprocess_s)
        jobs.append((job, tracer))
        checks += [(f"job{n}.{name}", ok) for name, ok in wl.check(job)]
        first = jobs[0][0]
        if n:
            checks.append((f"job{n}.same_predictions", job.digest() == first.digest()))
            checks.append((f"job{n}.same_counts", job.counts() == first.counts()))
        if tracer:
            checks.append((f"job{n}.traced_counts", tracer.counts() == job.counts()))
        # start another job if at least half of one more like this one still
        # fits, so that runs end on average at --seconds
        now = time.perf_counter()
        has_traced = any(t for _, t in jobs)
        if (not args.trace or has_traced) and now + (now - began) / 2 - start > args.seconds:
            return jobs, checks


def pooled_rows_per_s(jobs, kind: str) -> float:
    """Training throughput of a kind over every job of the run."""
    from workloads import rows_per_s
    return rows_per_s([c for j in jobs for c in j.calls], kind)


def end_to_end(jobs, setup_s) -> dict[str, tuple[float, str]]:
    # A run holds only 2 to 6 jobs, and the host's speed moves by 15-30%
    # from one job to the next, so figures are averaged over the whole run
    # rather than taking the median of so few jobs.
    passes = [t for j in jobs for t in j.predict_s]
    return {
        "setup_s": (median(setup_s), "s"),
        "wall_s": (statistics.fmean([j.wall_s for j in jobs]), "s"),
        "train_rows_per_s": (pooled_rows_per_s(jobs, "teacher"), "rows/s"),
        "predict_rows_per_s": (jobs[0].predict_rows * len(passes) / sum(passes), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "test_auc": (median([j.test_auc for j in jobs]), "auc"),
    }


def per_layer(plain, traced, tracers) -> dict[str, tuple[float, str]]:
    per_job = [t.metrics() for t in tracers]
    metrics = {name: median([m[name] for m in per_job]) for name in per_job[0]}
    metrics["trace.overhead_s"] = (median([j.wall_s for j in traced])
                                   - median([j.wall_s for j in plain]))
    metrics["train.kd_rows_per_s"] = pooled_rows_per_s(plain, "kd")
    metrics["experiment.preprocess_rows_per_s"] = median(
        [j.preprocess_rows / j.preprocess_s if j.preprocess_s else 0.0 for j in plain])
    counts = tracers[0].counts()
    for name in ("rows_trained", "batches", "epochs"):
        metrics[f"train.{name}"] = counts[name]
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctrkd", "__init__.py")):
        print(f"error: ctrkd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    from workloads import WORKLOADS, CallLog

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        log = CallLog()
        log.install()
        wl = WORKLOADS[args.workload](args.seed, workdir, log)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        jobs, checks = run_jobs(args, wl, log, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [j for j, t in jobs if t is None]
    tracers = [t for _, t in jobs if t is not None]
    if args.trace:
        metrics = per_layer(plain, [j for j, t in jobs if t is not None], tracers)
        with open(os.path.join(OUT, f"{tag}-spans.jsonl"), "w", encoding="utf-8") as f:
            for t in tracers:
                t.write(f)
    else:
        metrics = end_to_end(plain, setup_s)
    failed = sum(1 for _, ok in checks if not ok)
    detail = {
        "manifest": manifest(args, np),
        "setup_s": setup_s,
        "jobs": [{"traced": t is not None, "wall_s": j.wall_s,
                  "train_rows_per_s": j.rows_per_s("teacher"),
                  "kd_rows_per_s": j.rows_per_s("kd"),
                  "predict_rows_per_s": j.predict_rows_per_s(),
                  "predict_pass_s": j.predict_s, "burst_s": j.burst_s,
                  "preprocess_s": j.preprocess_s, "test_auc": j.test_auc,
                  "counts": j.counts(), "digest": j.digest(),
                  "calls": [c.__dict__ for c in j.calls]} for j, t in jobs],
        "checks": [{"name": n, "ok": ok} for n, ok in checks],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    detail_path = os.path.join(OUT, f"{tag}.json")
    with open(detail_path, "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)

    for name, ok in checks:
        if not ok:
            print(f"# check failed: {name}")
    print(f"# {tag}: {len(jobs)} jobs, {len(checks) - failed}/{len(checks)} checks passed, "
          f"details in {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("ratio", "per_distinct", "per_call")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
