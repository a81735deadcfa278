"""Seeded benchmark of diracspec: one workload per run, closed loop, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload direct --seed 1 --seconds 36 --trace 0

Workloads: ``direct`` (regular spectrum and eigendata), ``inverse`` (GL
recovery, two spectra and isospectral shifts through ``diracspec.cli.main``)
and ``halfaxis`` (model q = x: Weyl function, surgery, eigenvalues).

A run sets up once, then runs whole passes over the seeded task list, one task
at a time: at least three, and more while another pass of the mean length
still fits in ``--seconds``.  Before each pass it sets up SETUPS_PER_PASS more
times and discards the result.  A set-up is a fresh-interpreter import of
numpy and diracspec plus the workload build; ``setup_s.raw`` is the median of
its time over all set-ups of the run.  Spreading the set-ups over the run
samples the host's speed states the way the passes do.  Each task is timed
alone; its check runs afterwards, outside the timed span.  Timings use each
task's median over the passes.

A shared virtual host can switch, for seconds to minutes at a time, between
speed states up to 2x apart (seen on a 2-vCPU Xeon VM).  So each task is bracketed by a host
probe, a fixed kernel that does not call the library, and its time is also
reported adjusted to the probe's nominal time: ``adj = seconds *
PROBE_NOMINAL_S / probe``.  Set-ups are bracketed and adjusted the same way,
and ``setup_s`` is the adjusted one.  BENCHMARK.json gates the adjusted
timings; the raw ones are printed next to them.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced passes, reports the per-layer metrics of the
traced passes (per pass) and the tracing overhead, and checks that both kinds
of pass give bit-identical outputs, failures and accuracy.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed`` count
the seeded task list once: they depend on the seed alone, not on how many
passes fit in ``--seconds``, and every pass must repeat the first.  Exit code
2 means the library could not be imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS_PER_PASS = 2
MIN_PASSES = 3
TAIL_MIN_BEYOND = 10
PROBE_NOMINAL_S = 0.0025  # median host_probe_seconds() on a 2-vCPU Xeon VM


def _set_blas_threads() -> int:
    """Cap the BLAS pool at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _import_seconds() -> float:
    """Time to import numpy and diracspec in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, diracspec.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def _import_library():
    """Import numpy and diracspec from this checkout's src/; None if absent."""
    if not (SRC / "diracspec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import diracspec
    import diracspec.cli  # noqa: F401

    if Path(diracspec.__file__).resolve().parent != SRC / "diracspec":
        return None
    return diracspec


def environment(nproc: int) -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": commit,
    }


def fingerprint(obj) -> str:
    """Digest of a task output; equal digests mean bit-identical outputs."""
    import numpy as np

    from diracspec.core import PotentialMatrix

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, Path):
            h.update(o.read_bytes())
        elif isinstance(o, np.ndarray):
            h.update(str(o.dtype).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, PotentialMatrix):
            x = o.domain.nodes
            feed(o.domain)
            feed(o.sample_p(x))
            feed(o.sample_q(x))
        elif isinstance(o, dict):
            for k in sorted(o, key=repr):
                feed(k)
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif hasattr(o, "__dataclass_fields__"):
            h.update(type(o).__name__.encode())
            feed({k: getattr(o, k) for k in o.__dataclass_fields__})
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def host_probe_seconds() -> float:
    """Time of a fixed kernel that does not call the library: the host's speed now."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(0.1, 1.0, 64)
    b = a[::-1].copy()
    x = a
    for _ in range(300):  # small arrays in a Python loop, like the stored and renormalised sweeps
        x = a * b + 0.5 * x
    m = np.tile(np.eye(2), (4096, 1, 1))
    for _ in range(4):  # batched 2x2 products, like the endpoint tree
        m = m @ m
    s = 0
    for i in range(5000):
        s += i * i
    return time.perf_counter() - t0


def run_pass(workload, tracer=None) -> list[dict]:
    """Run every task once in order; checks run untimed and untraced."""
    from workloads import Verdict, classify_exception

    state = {g: dict(inputs) for g, inputs in workload.groups.items()}
    bad_kinds = {g: set() for g in workload.groups}
    records = []
    for idx, task in enumerate(workload.tasks):
        rec = {"kind": task.kind, "group": task.group}
        if task.needs in bad_kinds[task.group]:
            bad_kinds[task.group].add(task.kind)
            records.append(dict(rec, status="skipped"))
            continue
        st = state[task.group]
        probe = host_probe_seconds()
        if tracer is not None:
            tracer.task_id, tracer.enabled = idx, True
        exc = None
        t0 = time.perf_counter()
        try:
            out = task.run(st)
        except Exception as e:  # every task failure is recorded, none stops the run
            exc = e
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        probe = 0.5 * (probe + host_probe_seconds())
        if exc is not None:
            verdict, digest = Verdict(False, classify_exception(exc)), None
        else:
            try:
                verdict = task.check(out, st)
            except Exception as e:
                verdict = Verdict(False, "check: " + classify_exception(e))
            digest = fingerprint(out)
        if not verdict.ok:
            bad_kinds[task.group].add(task.kind)
        records.append(dict(rec, status="ok" if verdict.ok else "failed", reason=verdict.reason,
                            seconds=seconds, adj_seconds=seconds * PROBE_NOMINAL_S / probe,
                            witnesses=verdict.witnesses, digest=digest))
    return records


def pass_outcome(records: list[dict]) -> tuple:
    """What must repeat exactly between passes: digests, failures, accuracy."""
    return tuple((r["status"], r.get("reason"), r.get("digest")) for r in records), accuracy_digits(records)


def accuracy_digits(records: list[dict]) -> float:
    """Minimum of -log10(error) over the witnesses of tasks that passed."""
    errs = [e for r in records if r["status"] == "ok" for e in r["witnesses"].values()]
    if not errs:
        return 16.0
    return min(16.0, -math.log10(max(max(errs), 1e-16)))


def nearest_rank(values: list[float], pct: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def tail_percentile(tasks_per_pass: int) -> int:
    """Highest whole percentile with TAIL_MIN_BEYOND samples beyond it in MIN_PASSES passes."""
    return math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / (MIN_PASSES * tasks_per_pass)))


def _timings(passes: list[list[dict]], key: str, pct: int, suffix: str = "") -> dict:
    # every pass runs the same tasks: take each task's median over the passes
    per_task = [statistics.median(r[key] for r in col) for col in zip(*passes) if col[0]["status"] != "skipped"]
    samples = [r[key] for p in passes for r in p if r["status"] != "skipped"]
    return {
        "tasks_per_s" + suffix: len(per_task) / sum(per_task),
        "task_s.p50" + suffix: statistics.median(per_task),
        "task_s.tail" + suffix: nearest_rank(samples, pct),
    }


def summarize(passes: list[list[dict]], tasks_per_pass: int) -> dict:
    # attempted/failed/skipped count the seeded task list once, so they depend on
    # the seed alone; every pass repeats it with the same outcome (_correctness)
    first = passes[0]
    pct = tail_percentile(tasks_per_pass)
    return {
        "attempted": sum(r["status"] != "skipped" for r in first),
        "failed": sum(r["status"] == "failed" for r in first),
        "skipped": sum(r["status"] == "skipped" for r in first),
        "tail_pct": pct,
        "samples": sum(r["status"] != "skipped" for p in passes for r in p),
        "accuracy_digits": accuracy_digits(passes[0]),
        **_timings(passes, "seconds", pct),
        **_timings(passes, "adj_seconds", pct, ".adj"),
    }


def failure_summary(records: list[dict]) -> dict:
    out: dict[str, int] = {}
    for r in records:
        if r["status"] == "failed":
            detail = ", ".join(f"{k}={v:.3g}" for k, v in r["witnesses"].items())
            key = f"{r['group']}/{r['kind']}: {r['reason']}" + (f" ({detail})" if detail else "")
            out[key] = out.get(key, 0) + 1
    return out


# the end-to-end metrics the run prints: seven as measured (the measured set-up
# time is setup_s.raw), then the host-adjusted timings, among them setup_s;
# BENCHMARK.json names the gated ones
PRINTED_E2E = {
    "tasks_per_s": "1/s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "setup_s.raw": "s",
    "fail_ratio": "1",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "tasks_per_s.adj": "1/s",
    "task_s.p50.adj": "s",
    "task_s.tail.adj": "s",
    "setup_s": "s",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("direct", "inverse", "halfaxis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = _set_blas_threads()
    if _import_library() is None:
        print(f"cannot import diracspec from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        setup_times = []

        def set_up():
            workdir = run_dir / f"setup{len(setup_times)}"
            workdir.mkdir(parents=True)
            probe = host_probe_seconds()
            import_s = _import_seconds()
            t = time.perf_counter()
            built = workloads.build(args.workload, args.seed, str(workdir))
            seconds = import_s + time.perf_counter() - t
            probe = 0.5 * (probe + host_probe_seconds())
            setup_times.append((seconds, seconds * PROBE_NOMINAL_S / probe))
            return built

        wl = set_up()
        result = (run_traced if args.trace else run_untraced)(wl, args, workloads.KNOWN_DEFECTS, set_up)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    s = result["summary"]
    metrics = result["metrics"]
    print(f"# diracspec benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# environment: " + json.dumps(environment(nproc), sort_keys=True))
    print(f"# passes={result['passes']} samples={s['samples']} tail=p{s['tail_pct']} "
          f"attempted={s['attempted']} failed={s['failed']} skipped={s['skipped']} (setup runs: "
          + ", ".join(f"{t:.4f}" for t, _ in setup_times) + ")")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics.update({"setup_s": statistics.median(a for _, a in setup_times),
                        "setup_s.raw": statistics.median(t for t, _ in setup_times)})
        metrics.update(fail_ratio=s["failed"] / s["attempted"],
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        for name, unit in PRINTED_E2E.items():
            print(f"{name:>18} {metrics[name]:14.6g} {unit}")
    for reason, count in result["failures"].items():
        print(f"# failed per pass: {count} x {reason}")
    for note in result["notes"]:
        print(f"# {note}")
    report = {
        "correct": result["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(report))
    return 0


def _correctness(passes, known) -> tuple[bool, list[str]]:
    notes, correct = [], True
    first = pass_outcome(passes[0])
    if any(pass_outcome(p) != first for p in passes[1:]):
        correct = False
        notes.append("outputs differ between passes of one seed")
    unexpected = {r["reason"] for r in passes[0] if r["status"] == "failed" and r["reason"] not in known}
    if unexpected:
        correct = False
        notes.append("unexpected failures: " + ", ".join(sorted(unexpected)))
    return correct, notes


def _loop(wl, seconds, set_up, make_tracer=lambda i: None):
    """At least MIN_PASSES passes, then more while one of the mean length fits.

    Each pass is preceded by SETUPS_PER_PASS set-ups whose workloads are dropped.
    """
    passes, tracers = [], []
    t0 = time.perf_counter()

    def another_fits():
        elapsed = time.perf_counter() - t0
        return elapsed + elapsed / len(passes) <= seconds

    while len(passes) < MIN_PASSES or another_fits():
        for _ in range(SETUPS_PER_PASS):
            set_up()
        tracer = make_tracer(len(passes))
        if tracer is not None:
            tracer.install()
        try:
            passes.append(run_pass(wl, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracers.append(tracer)
    return passes, tracers


def run_untraced(wl, args, known, set_up) -> dict:
    passes, _ = _loop(wl, args.seconds, set_up)
    summary = summarize(passes, len(wl.tasks))
    correct, notes = _correctness(passes, known)
    return {"metrics": dict(summary), "summary": summary, "passes": len(passes), "correct": correct,
            "notes": notes, "failures": failure_summary(passes[0])}


def _pass_rate(records: list[dict]) -> float:
    times = [r["adj_seconds"] for r in records if r["status"] != "skipped"]
    return len(times) / sum(times)


def run_traced(wl, args, known, set_up) -> dict:
    from tracing import Tracer, layer_metrics

    # even passes untraced, odd passes traced; one tracer keeps span ids unique
    tracer = Tracer()
    passes, tracers = _loop(wl, args.seconds, set_up, lambda i: tracer if i % 2 else None)
    plain = [p for p, t in zip(passes, tracers) if t is None]
    traced = [p for p, t in zip(passes, tracers) if t is not None]
    correct, notes = _correctness(passes, known)
    if pass_outcome(plain[0]) != pass_outcome(traced[0]):
        correct = False
        notes.append("self-test FAILED: traced and untraced outputs differ")
    else:
        notes.append("self-test passed: traced and untraced passes give bit-identical outputs, "
                     "failures and accuracy_digits")
    spans = tracer.spans
    metrics = layer_metrics(spans, len(traced))
    rate_plain = statistics.median(_pass_rate(p) for p in plain)
    rate_traced = statistics.median(_pass_rate(p) for p in traced)
    metrics["trace.overhead_tasks_per_s"] = rate_plain - rate_traced
    notes.append(f"tasks_per_s.adj (median over passes) untraced {rate_plain:.6g}, traced {rate_traced:.6g}")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(spans, fh)
    notes.append(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    return {"metrics": metrics, "summary": summarize(passes, len(wl.tasks)), "passes": len(passes),
            "correct": correct, "notes": notes, "failures": failure_summary(passes[0])}


if __name__ == "__main__":
    sys.exit(main())
