"""One benchmark worker: a fresh interpreter running jobs against ./src.

Started from the root of the checkout under test.  It imports
`coxmodel.cli` first, so the parent can time set-up from spawn to that
import having returned, then reads one JSON request from stdin:

    {"kind": "cli", "jobs": [{"id": ..., "argv": [...]}], ...}
    {"kind": "lr", "jobs": [{"id": ..., "pairs": [[lam, mu], ...]}], ...}

plus "trace" (bool) and "spans_path" (str or null).  It writes one JSON
line to its real stdout with the job results (CLI stdout included), its
peak RSS and, when traced, the per-function summary.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import coxmodel.cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run_cli(job: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = coxmodel.cli.run(job["argv"])
            error = None
        except Exception as exc:  # a traceback is a failed job, not a dead worker
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return {
        "id": job["id"],
        "seconds": seconds,
        "exit": code,
        "stdout": out.getvalue(),
        "error": error,
    }


def run_lr(job: dict) -> dict:
    pairs = [(tuple(lam), tuple(mu)) for lam, mu in job["pairs"]]
    start = time.perf_counter()
    try:
        results = [coxmodel.lr_expand(lam, mu) for lam, mu in pairs]
        error = None
    except Exception as exc:
        results, error = [], f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "id": job["id"],
        "seconds": seconds,
        "expansions": [sorted([list(nu), c] for nu, c in r.items()) for r in results],
        "error": error,
    }


def main() -> None:
    request = json.loads(sys.stdin.read())
    recorder = None
    if request["trace"]:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    runner = run_cli if request["kind"] == "cli" else run_lr
    results = []
    for job in request["jobs"]:
        if recorder is not None:
            recorder.job = job["id"]
        results.append(runner(job))
    reply = {
        "imported": IMPORTED,
        "jobs": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        reply["trace"] = recorder.summary()
        if request.get("spans_path"):
            recorder.write_spans(request["spans_path"])
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
