"""Record reference.json: the index documents of the named families and the
exit code and stdout digest of every CLI job a seed can draw.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are the reference; the
jobs run in this one process, which gives the same outputs as fresh
workers.  Re-record only when a change to the program's output is meant.
"""

import json
import sys

import worker
import workloads
from coxmodel import classification


def main() -> int:
    families = {}
    for name in workloads.INDEX_FAMILIES:
        family, rank = name.split(":")
        families[name] = [i.to_json() for i in classification.known_model(family, int(rank))]
    negatives = {workloads.reference_key(a) for a in workloads.negative_pool(families)}
    outputs = {}
    for argv in workloads.all_cli_argvs(families):
        result = worker.run_cli({"id": 0, "argv": argv})
        key = workloads.reference_key(argv)
        if result["error"]:
            sys.stderr.write(f"{key}: {result['error']}\n")
            return 1
        want_exit = 2 if key in negatives else 0
        if result["exit"] != want_exit:
            sys.stderr.write(f"{key}: exit {result['exit']}, expected {want_exit}\n")
            return 1
        if key in negatives and json.loads(result["stdout"])["status"] != "not_perfect":
            sys.stderr.write(f"{key}: negative model not reported not_perfect\n")
            return 1
        outputs[key] = [result["exit"], workloads.digest(result["stdout"])]
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"families": families, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs ({len(negatives)} negative models)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
