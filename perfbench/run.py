"""Benchmark of the coxmodel checkout in the current directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's jobs one at a time, each CLI job in a fresh worker
process (every CLI user pays cold caches) and each `lr-table` pass in one
library session.  A pass is one run through all the workload's jobs in
an order drawn from the seed; passes repeat until the next one would end
after S seconds.  Every output is checked.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json, times scaled to a reference
machine speed (see end_to_end).  With --trace 1, untraced and
traced passes alternate, and the last line holds the per-layer metrics
of the traced passes, plus the tracing overhead.  A fuller record of the
run, with the seed and machine notes, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORKER = [sys.executable, os.path.join(HERE, "worker.py")]
JOB_TIMEOUT_S = 60.0
# A run must end within 180 s: no worker starts or runs past this.
RUN_DEADLINE_S = 150.0
# What workloads.calibrate() took on the shared 2-vCPU virtual machine the
# benchmark was tuned on; reported times are scaled to that machine speed.
CALIBRATION_REF_S = 0.008


def worker_env() -> dict:
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
    if "COXMODEL_ORACLE_CAP" in os.environ:
        env["COXMODEL_ORACLE_CAP"] = os.environ["COXMODEL_ORACLE_CAP"]
    return env


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call_worker(request: dict, deadline: float, command=None) -> tuple:
    """Run one worker to completion: (reply, set-up seconds, error)."""
    timeout = min(JOB_TIMEOUT_S, deadline - now())
    if timeout <= 0:
        return None, None, "not run: run deadline passed"
    spawned = now()
    proc = subprocess.Popen(
        command or WORKER,
        cwd=ROOT,
        env=worker_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "timeout"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, None, f"worker exit {proc.returncode}: {tail[0]}"
    try:
        reply = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, None, "worker reply is not JSON"
    return reply, reply["imported"] - spawned, None


def check_cli(job: dict, result: dict, reference: dict) -> str | None:
    if result["error"]:
        return result["error"]
    want = reference["outputs"].get(workloads.reference_key(job["argv"]))
    if want is None:
        return "no reference output"
    got = [result["exit"], workloads.digest(result["stdout"])]
    if got != want:
        return f"exit/digest {got} != reference {want}"
    if job["negative"]:
        status = json.loads(result["stdout"]).get("status")
        if result["exit"] != 2 or status != "not_perfect":
            return f"negative model gave exit {result['exit']} status {status!r}"
    return None


class Pass:
    """Timings, failures and trace summaries of one pass."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.times: dict = {}  # job id -> seconds, for jobs that passed
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.summaries: list[dict] = []
        self.calib: list[float] = []

    def add_worker(self, reply, setup) -> None:
        self.setups.append(setup)
        self.rss_kb.append(reply["maxrss_kb"])
        if "trace" in reply:
            self.summaries.append(reply["trace"])

    def scale(self) -> float:
        """Factor that brings this pass's times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.calib)

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")


def run_cli_pass(jobs, rng, reference, traced, spans_dir, deadline, command=None) -> Pass:
    p = Pass(traced)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    for k in order:
        job = jobs[k]
        label = " ".join(job["argv"])[:80]
        p.attempted += 1
        request = {
            "kind": "cli",
            "trace": traced,
            "jobs": [{"id": k, "argv": job["argv"]}],
            "spans_path": spans_dir and os.path.join(spans_dir, f"job{k}.jsonl.gz"),
        }
        p.calib.append(workloads.calibrate())
        reply, setup, error = call_worker(request, deadline, command)
        if reply is None or len(reply["jobs"]) != 1:
            p.fail(label, error or "no job result")
            continue
        p.add_worker(reply, setup)
        result = reply["jobs"][0]
        why = check_cli(job, result, reference)
        if why is None and traced and job["negative"]:
            if reply["trace"]["extra"]["oracle_spans_by_job"].get(str(k)):
                why = "negative model reached the oracle"
        if why:
            p.fail(label, why)
        else:
            p.times[k] = result["seconds"]
    return p


def run_lr_pass(blocks, rng, traced, spans_dir, deadline, command=None) -> Pass:
    p = Pass(traced)
    order = list(range(len(blocks)))
    rng.shuffle(order)
    request = {
        "kind": "lr",
        "trace": traced,
        "jobs": [{"id": k, "pairs": blocks[k]["pairs"]} for k in order],
        "spans_path": spans_dir and os.path.join(spans_dir, "session.jsonl.gz"),
    }
    p.attempted = len(blocks)
    p.calib += [workloads.calibrate() for _ in blocks]
    reply, setup, error = call_worker(request, deadline, command)
    p.calib += [workloads.calibrate() for _ in blocks]
    if reply is None:
        for k in order:
            p.fail(f"lr block {blocks[k]['size']}", error)
        return p
    p.add_worker(reply, setup)
    results = {r["id"]: r for r in reply["jobs"]}
    for k in order:
        label = f"lr block {blocks[k]['size']}"
        result = results.get(k)
        if result is None:
            p.fail(label, "no job result")
            continue
        why = result["error"] or workloads.check_lr_block(
            blocks[k]["pairs"], result["expansions"]
        )
        if why:
            p.fail(label, why)
        else:
            p.times[k] = result["seconds"]
    return p


def run_passes(workload, seed, seconds, trace, reference, smoke=False, command=None):
    jobs = workloads.make_jobs(workload, seed, reference, smoke)
    rng = random.Random(f"order:{workload}:{seed}")
    passes: list[Pass] = []
    start = now()
    deadline = start + RUN_DEADLINE_S
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced and not any(q.traced for q in passes):
            spans_dir = os.path.join(RESULTS, f"spans-{workload}-seed{seed}")
            os.makedirs(spans_dir, exist_ok=True)
        else:
            spans_dir = None
        if workload == "lr-table":
            p = run_lr_pass(jobs, rng, traced, spans_dir, deadline, command)
        else:
            p = run_cli_pass(jobs, rng, reference, traced, spans_dir, deadline, command)
        passes.append(p)
        elapsed = now() - start
        if trace and len(passes) < 2:
            continue
        if smoke or now() > deadline or elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """(metrics, unscaled measurements) of the untraced passes.

    Each job's time is its median over the passes; total_s sums those
    medians and max_job_s is the largest.  The host's speed drifts by up
    to half over seconds to minutes, the same for every process, so each
    pass's times are scaled by CALIBRATION_REF_S over the median
    calibration time measured between that pass's workers.
    """
    untraced = [p for p in passes if not p.traced]
    rss = [r for p in untraced for r in p.rss_kb]
    samples: dict = {}
    raw_samples: dict = {}
    setups, raw_setups = [], []
    for p in untraced:
        scale = p.scale()
        for k, t in p.times.items():
            samples.setdefault(k, []).append(t * scale)
            raw_samples.setdefault(k, []).append(t)
        setups += [t * scale for t in p.setups]
        raw_setups += p.setups

    def summarise(by_job, setup):
        job_s = [statistics.median(v) for v in by_job.values()]
        return {
            "total_s": sum(job_s) if job_s else None,
            "max_job_s": max(job_s, default=None),
            "setup_s": statistics.median(setup) if setup else None,
        }

    metrics = summarise(samples, setups)
    metrics["peak_rss_mb"] = max(rss) / 1024 if rss else None
    raw = summarise(raw_samples, raw_setups)
    raw["calibration_s"] = statistics.median(c for p in untraced for c in p.calib)
    return metrics, raw


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(passes: list[Pass]) -> dict:
    """Per-layer metrics of the traced passes: {name: (value, unit)}.

    Calls and self times are medians over the traced passes; counts are
    per pass; ratios are taken over all traced passes together.
    """
    traced = [p for p in passes if p.traced]
    workers = [s for p in traced for s in p.summaries]

    def total(get):
        return sum(get(s) for s in workers)

    def calls(n):
        return total(lambda s: s["calls"][n])

    def value(n):
        return total(lambda s: s["value"][n])

    def extra(k):
        return total(lambda s: s["extra"][k])

    metrics = {}
    for n in tracing.NAMES:
        for key, unit in (("calls", "count"), ("self_s", "s")):
            metrics[f"{n}.{key}"] = (
                statistics.median(sum(s[key][n] for s in p.summaries) for p in traced),
                unit,
            )
    hits = total(lambda s: s["cache"]["lr.lr_coefficient"][0])
    misses = total(lambda s: s["cache"]["lr.lr_coefficient"][1])
    per_pass = len(traced)
    metrics.update(
        {
            "classification.search_perfect_models.covers": (
                value("classification.search_perfect_models") / per_pass, "count"),
            "model_index.enumerate_indices.mf_ratio": (
                _ratio(value("model_index.enumerate_indices"),
                       extra("enumerate_indices.character_calls")), "ratio"),
            "lr.lr_coefficient.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
            "lr.lr_expand.nonzero_ratio": (
                _ratio(extra("lr_expand.terms"), extra("lr_expand.coefficient_calls")), "ratio"),
            "oracle.build_group.elements": (value("oracle.build_group") / per_pass, "count"),
            "oracle.Group.subgroup.elements": (value("oracle.Group.subgroup") / per_pass, "count"),
            "oracle.get_group.hit_ratio": (
                _ratio(extra("get_group.hits"), calls("oracle.get_group")), "ratio"),
            "oracle.triple_character.distinct_ratio": (
                _ratio(total(lambda s: s["triple_character.distinct"]),
                       calls("oracle.triple_character")), "ratio"),
            "oracle.oracle_search.covers": (value("oracle.oracle_search") / per_pass, "count"),
        }
    )
    return metrics


def machine_notes(load_before) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "COXMODEL_ORACLE_CAP": os.environ.get("COXMODEL_ORACLE_CAP", "unset (default 1000000)"),
        "PYTHONHASHSEED": "fixed at 0 in every worker",
        "worker_env": worker_env(),
        "worker_command": [sys.executable, os.path.relpath(WORKER[1], ROOT)],
    }


def run(workload, seed, seconds, trace, smoke=False, reference=None, command=None) -> dict:
    """Run one benchmark run and return its full record."""
    load_before = list(os.getloadavg())
    if reference is None:
        reference = workloads.load_reference()
    passes = run_passes(workload, seed, seconds, trace, reference, smoke, command)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    e2e, raw = end_to_end(passes)
    e2e["fail_ratio"] = len(failures) / attempted
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "end_to_end": e2e,
        "raw": raw,
        "passes": [
            {
                "traced": p.traced,
                "jobs": p.attempted,
                "failed": len(p.failures),
                "total_s": sum(p.times.values()),
                "max_job_s": max(p.times.values(), default=0.0),
                "job_s": p.times,
                "calibration_s": p.calib,
            }
            for p in passes
        ],
        "notes": machine_notes(load_before),
    }
    if trace:
        layers = per_layer(passes)
        totals = {True: [], False: []}
        for p in passes:
            totals[p.traced].append(sum(p.times.values()) * p.scale())
        layers["trace.overhead_s"] = (
            statistics.median(totals[True]) - statistics.median(totals[False]),
            "s",
        )
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return record


UNITS = {"total_s": "s", "max_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio"}


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = record["per_layer"]
    else:
        metrics = {
            k: {"value": v, "unit": UNITS[k]}
            for k, v in record["end_to_end"].items()
            if k != "fail_ratio" and v is not None
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny job, one pass")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coxmodel", "cli.py")):
        sys.stderr.write("error: run from the root of a coxmodel checkout (no src/coxmodel)\n")
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    e2e = record["end_to_end"]
    print(
        f"{args.workload} seed {args.seed}: {len(record['passes'])} passes, "
        f"{record['attempted']} jobs, {record['failed']} failed"
    )
    for key, value in e2e.items():
        print(f"  {key} {value} {UNITS[key]}")
    print("  unscaled: " + ", ".join(f"{k} {v}" for k, v in record["raw"].items()))
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    notes = record["notes"]
    print(
        f"  machine: nproc {notes['nproc']}, python {notes['python']}, load "
        f"{notes['loadavg_before'][0]:.2f} -> {notes['loadavg_after'][0]:.2f}, "
        f"COXMODEL_ORACLE_CAP {notes['COXMODEL_ORACLE_CAP']}, PYTHONHASHSEED 0"
    )
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
