"""The semilat benchmark: three closed-loop streams of real CLI jobs.

Run from the repository root:

    python3 bench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

One client runs the workload's seeded job list in-process through
``semilat.cli.run``, one job after another (closed loop, no threads).  Every
job loads its input file fresh, and every answer is checked against one
derived independently of the program (see answers.py).  The list is run in
whole rounds until ``--seconds`` have passed and, untraced, at least
MIN_ROUNDS rounds and MIN_JOBS jobs have run.  Untraced, a reference kernel
runs every few ms throughout, and every job and set-up time is reported in
paced ms: time in units of the kernel's time in and around it (see pace.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every round
twice, untraced and traced in alternating order, and prints the per-layer
metrics of the traced rounds, per round, plus the tracing overhead.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  ``correct`` is
false when some job printed a wrong answer under exit code 0; ``failed``
counts every job whose exit code or answer is wrong, or which raised.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import answers
import jobs
import pace
from spans import LAYERS, Tracer

MIN_JOBS = 100      # so that latency_p90_ms has at least 10 jobs beyond it
MIN_ROUNDS = 5      # samples of every job class, the slowest included

END_TO_END = [("jobs_per_s", "jobs/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("ok_share", "share"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]

_SPANNED = {  # function -> the span statistics reported for it
    "poset.from_cover_list": ("calls", "self_s"),
    "poset.interval": ("calls", "self_s"),
    "semilattice.is_join_semilattice": ("calls", "self_s"),
    "semilattice.is_semimodular": ("self_s",),
    "semilattice.maximal_chains": ("self_s",),
    "semilattice.count_maximal_chains": ("self_s",),
    "matching.jh_match": ("calls", "self_s", "total_s"),
    "oracle.check_theorem": ("calls", "self_s"),
    "oracle.projectivity_relation": ("self_s",),
    "oracle.interval_updown_witness": ("calls", "self_s"),
    "oracle.all_consistent_permutations": ("self_s",),
    "generators.random_maximal_chain": ("calls", "self_s"),
    "groups.load_group": ("self_s",),
    "groups.group_from_table": ("self_s",),
    "groups.all_subgroups": ("calls", "self_s"),
    "groups.is_subnormal": ("calls", "self_s"),
    "groups.subnormal_lattice": ("calls", "self_s"),
    "groups.composition_analysis": ("self_s",),
    "groups.match_series": ("calls",),
    "dot.export_dot": ("calls", "self_s"),
    "cli.run": ("self_s",),
}
_COUNTED = ["poset.elements_built", "poset.dual.calls", "semilattice.join.calls",
            "projectivity.prime_up_projective.calls", "semilattice.is_maximal_chain.calls",
            "oracle.cells_requested", "cli.stdout_bytes", "cli.exit_1", "cli.exit_2"]
_UNITS = {"calls": "calls/round", "self_s": "s/round", "total_s": "s/round"}

PER_LAYER = (
    [(f"{fn}.{stat}", _UNITS[stat], "lower") for fn, stats in _SPANNED.items() for stat in stats]
    + [(name, "count/round", "lower") for name in _COUNTED]
    + [("oracle.cell_cache_hit_ratio", "share", "higher")]
    + [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [("trace.overhead_share", "share", "lower")]
)


def run_job(cli, job: dict, tracer: Tracer | None = None, job_id: int = 0) -> dict:
    """Run one job through cli.run, timed, and check its answer."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.begin_job(job_id)
        t0 = perf_counter_ns()
        try:
            code = cli.run(job["argv"])
        except Exception as exc:  # a traceback is a failed job, not a failed benchmark
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.end_job(out.getvalue(), code)
    outcome = answers.check(job, code, out.getvalue())
    reason = "; ".join(filter(None, [crash or outcome.reason, err.getvalue().strip()[:200]]))
    return {"cls": job["cls"], "t0": t0, "ns": t1 - t0, "ok": crash is None and outcome.ok,
            "silent": outcome.silent, "reason": reason}


def run_round(cli, jobs_in_round: list[dict], tracer: Tracer | None = None) -> list[dict]:
    gc.collect()
    return [run_job(cli, job, tracer, k) for k, job in enumerate(jobs_in_round)]


def untraced(cli, rounds, seconds: float, repeat_setup) -> tuple[list[dict], int]:
    """Whole rounds until the time is up, MIN_ROUNDS rounds and MIN_JOBS jobs
    ran; the set-up is repeated after every round, so its median spans the
    run too."""
    records, done, start = [], 0, perf_counter()
    while done < MIN_ROUNDS or perf_counter() - start < seconds or len(records) < MIN_JOBS:
        records += run_round(cli, rounds[done % len(rounds)])
        done += 1
        repeat_setup()
    return records, done


def _traced_round(cli, jobs_in_round, tracer: Tracer) -> list[dict]:
    tracer.install()
    try:
        return run_round(cli, jobs_in_round, tracer)
    finally:
        tracer.uninstall()


def traced(cli, rounds, seconds: float):
    """Each round both untraced and traced, alternating which goes first,
    for at least two rounds so that the order evens out.  Returns the records, rounds done, the tracer, the untraced and traced
    job time, and the first traced round's spans."""
    tracer = Tracer()
    records, done, first_spans, start = [], 0, None, perf_counter()
    plain_ns = traced_ns = 0
    while done < 2 or perf_counter() - start < seconds:
        jobs_in_round = rounds[done % len(rounds)]
        if done % 2:
            with_trace = _traced_round(cli, jobs_in_round, tracer)
            plain = run_round(cli, jobs_in_round)
        else:
            plain = run_round(cli, jobs_in_round)
            with_trace = _traced_round(cli, jobs_in_round, tracer)
        spans = tracer.take_round()
        first_spans = first_spans or spans
        plain_ns += sum(r["ns"] for r in plain)
        traced_ns += sum(r["ns"] for r in with_trace)
        records += plain + with_trace
        done += 1
    return records, done, tracer, plain_ns, traced_ns, first_spans


def class_latencies(records: list[dict], key: str = "paced_ms") -> dict[str, float]:
    """Each job class's median latency in ms over the run, paced unless
    ``key`` is "raw_ms"."""
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r["cls"], []).append(r[key])
    return {cls: statistics.median(v) for cls, v in sorted(by_class.items())}


def end_to_end(records: list[dict], setup_times: list[float]) -> dict:
    """Timings are over every job of the run, in paced ms; whole rounds ran,
    so every job class has the same share of them."""
    lat = [r["paced_ms"] for r in records]
    return {
        "jobs_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "ok_share": sum(r["ok"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer: Tracer, rounds_done: int, overhead_ns: int, plain_ns: int) -> dict:
    totals, counts = tracer.totals, tracer.counts
    values = {}
    for fn, stats in _SPANNED.items():
        calls, total, own = totals.get(fn, (0, 0, 0))
        values.update({f"{fn}.calls": calls, f"{fn}.self_s": own / 1e9,
                       f"{fn}.total_s": total / 1e9})
    values.update({name: counts.get(name, 0) for name in _COUNTED})
    cells = counts.get("oracle.cells_requested", 0)
    misses = totals.get("oracle.interval_updown_witness", (0,))[0]
    values["oracle.cell_cache_hit_ratio"] = 1 - misses / cells if cells else 0.0
    job_ns = totals["job"][1]
    for layer in LAYERS:
        own = sum(acc[2] for name, acc in totals.items() if name.startswith(layer + "."))
        values[f"{layer}.self_share"] = own / job_ns
    values["trace.overhead_share"] = overhead_ns / plain_ns
    out = {}
    for name, unit, _ in PER_LAYER:
        v = values[name]
        out[name] = {"value": v if unit == "share" else v / rounds_done, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "semilat" / "__init__.py").is_file():
        print("error: src/semilat not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy
    from semilat import cli

    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        setup_spans = []  # (start, end) of every set-up, in ns

        def timed_setup():
            rep = workdir / str(len(setup_spans))
            rep.mkdir()
            t0 = perf_counter_ns()
            job_list = jobs.setup(args.workload, args.seed, cli.run, rep)
            setup_spans.append((t0, perf_counter_ns()))
            return job_list

        if args.trace:
            rounds = timed_setup()
            records, done, tracer, plain_ns, traced_ns, first_spans = traced(cli, rounds, args.seconds)
            overhead_ns = traced_ns - plain_ns
            metrics = per_layer(tracer, done, overhead_ns, plain_ns)
            setup_times = [(t1 - t0) / 1e9 for t0, t1 in setup_spans]
        else:
            with pace.Pacer() as pacer:
                rounds = timed_setup()
                records, done = untraced(cli, rounds, args.seconds, timed_setup)
            for r in records:
                r["paced_ms"], r["raw_ms"] = pacer.paced_ms(r["t0"], r["t0"] + r["ns"])
            paced_setups = [pacer.paced_ms(t0, t1) for t0, t1 in setup_spans]
            setup_times = [ms / 1e3 for ms, _ in paced_setups]
            raw_setup_times = [ms / 1e3 for _, ms in paced_setups]
            metrics = {name: {"value": v, "unit": unit} for (name, unit), v
                       in zip(END_TO_END, end_to_end(records, setup_times).values())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failures = [r for r in records if not r["ok"]]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "rounds": done, "jobs": len(records),
        "jobs_per_class": dict(sorted(Counter(r["cls"] for r in records).items())),
        "failed_classes": sorted({r["cls"] for r in failures}),
        "setup_s_runs": setup_times,
    }
    if args.trace:
        provenance["trace_overhead_s"] = overhead_ns / 1e9
        provenance["trace_overhead_share"] = metrics["trace.overhead_share"]["value"]
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        with span_file.open("w") as fh:
            for name, t0, t1, parent, job in first_spans:
                fh.write(json.dumps([name, t0, t1, parent, job]) + "\n")
        provenance["spans_of_first_round"] = str(span_file.relative_to(root))
    else:
        lat = [r["paced_ms"] for r in records]
        p90 = metrics["latency_p90_ms"]["value"]
        provenance["latency_ms_by_class"] = class_latencies(records)
        provenance["raw_latency_ms_by_class"] = class_latencies(records, "raw_ms")
        provenance["raw_setup_s_runs"] = raw_setup_times
        provenance["ref_ms_median"] = statistics.median(pacer.refs) / 1e6
        provenance["ref_measurements"] = len(pacer.refs)
        provenance["latency_samples"] = len(lat)
        provenance["jobs_beyond_p90"] = sum(1 for x in lat if x > p90)
    print("provenance: " + json.dumps(provenance))
    for cls, reason in sorted({(r["cls"], r["reason"]) for r in failures}):
        print(f"failed: {cls}: {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not any(r["silent"] for r in records), "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
