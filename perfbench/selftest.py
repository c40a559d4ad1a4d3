"""Self-test of the benchmark, in smoke mode (one tiny job per workload).

    python3 perfbench/selftest.py

Run from the root of a coxmodel checkout.  It checks that:
- every workload, untraced and traced, prints each metric that
  BENCHMARK.json names, with its unit, and no job fails;
- a wrong reference digest, a worker that does nothing and an expansion
  that breaks an identity are each counted as failed jobs;
- in a directory without the program the benchmark exits non-zero and
  prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

ROOT = os.getcwd()
NOOP_WORKER = [sys.executable, "-c", "pass"]

problems = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_result_lines(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = benchmark(
                ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke",
            )
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{what}: result keys",
            )
            expect(result["correct"] and result["failed"] == 0, f"{what}: no failed job")
            missing = [
                m["name"]
                for m in spec[section]
                if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                or not isinstance(result["metrics"][m["name"]]["value"], (int, float))
            ]
            expect(not missing, f"{what}: every {section} metric with its unit {missing[:5]}")


def check_failures_counted() -> None:
    reference = workloads.load_reference()
    job = workloads.make_jobs("classify-sweep", 1, reference, smoke=True)[0]
    key = workloads.reference_key(job["argv"])
    wrong = {**reference, "outputs": {**reference["outputs"], key: [0, "0" * 64]}}
    record = run.run("classify-sweep", 1, 1, False, smoke=True, reference=wrong)
    expect(
        record["failed"] == 1 and record["end_to_end"]["fail_ratio"] == 1.0,
        "wrong reference digest counted in fail_ratio",
    )
    for workload in ("oracle-search", "lr-table"):
        record = run.run(workload, 1, 1, False, smoke=True, command=NOOP_WORKER)
        expect(
            record["failed"] == record["attempted"] >= 1
            and record["end_to_end"]["fail_ratio"] == 1.0,
            f"{workload}: a worker that does nothing counted in fail_ratio",
        )
    pairs = [[[1], [1]]]
    expect(
        workloads.check_lr_block(pairs, [[[[2], 1], [[1, 1], 1]]]) is None,
        "lr check accepts c(1,1) = (2) + (1,1)",
    )
    expect(
        workloads.check_lr_block(pairs, [[[[2], 1]]]) is not None,
        "lr check rejects an expansion missing a term",
    )


def check_bare_directory() -> None:
    bare = os.path.join(run.RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        run.HERE,
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = benchmark(
        bare, "--workload", "classify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    shutil.rmtree(bare)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "without the program: non-zero exit and no result",
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_result_lines(spec)
    check_failures_counted()
    check_bare_directory()
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
