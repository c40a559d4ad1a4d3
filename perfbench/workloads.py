"""The benchmark's workloads: inputs drawn from a seed, and output checks.

Every CLI job is an argv for `coxmodel.cli.run`; its stdout digest and
exit code are compared with `reference.json`, recorded from the program
by `record_reference.py`.  The `lr-table` blocks have no golden file:
each expansion is checked against three identities of the
Littlewood-Richardson coefficients, computed here independently of the
program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("classify-sweep", "oracle-search", "verify-oracle", "lr-table")

# The symbolic classifier at the search caps of the program at the time
# this benchmark was written; A8-A10 dominate.
CLASSIFY_RANKS = {"A": range(2, 11), "B": range(2, 9), "D": range(3, 9)}
DIHEDRAL_M = range(5, 13)

ORACLE_SEARCH = [("A", n) for n in range(3, 7)] + [("B", n) for n in range(2, 6)]
ORACLE_SEARCH += [("D", 4), ("D", 5), ("I2", 5), ("I2", 6), ("H3", 3)]
ORACLE_CLASSES = [("B", 5), ("D", 6)]

# Named families at ranks whose group has order <= 5040.
INDEX_FAMILIES = (
    [f"PA:{n}" for n in range(2, 8)]
    + [f"PB:{n}" for n in range(2, 6)]
    + [f"PBhat:{n}" for n in range(2, 6)]
    + ["PD:3", "PD:5", "Aextra4:4", "B3extra1:3", "B3extra2:3"]
)
OTHER_FAMILIES = (
    [f"I2odd:{m}" for m in (5, 7, 9, 11)]
    + [f"I2even:{m}" for m in (6, 8, 10, 12)]
    + ["H3:3"]
)
NEGATIVES_PER_RUN = 8

LR_SIZES = range(12, 17)
# One orbit is drawn from each run of LR_STRIDE consecutive orbits, so a
# block holds about 1/LR_STRIDE of all pairs of its size and its cost
# barely depends on the seed.
LR_STRIDE = 12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(argv) -> str:
    return json.dumps(argv)


def _classify_jobs():
    jobs = []
    for ctype, ranks in CLASSIFY_RANKS.items():
        for n in ranks:
            for relation in ("strong", "full"):
                jobs.append(
                    ["classify", "--type", ctype, "--rank", str(n), "--relation", relation]
                )
    jobs += [["classify", "--type", "I2", "--rank", str(m)] for m in DIHEDRAL_M]
    return jobs


def _oracle_jobs():
    jobs = [
        ["oracle", "search", "--type", t, "--rank", str(n)] for t, n in ORACLE_SEARCH
    ]
    jobs += [
        ["oracle", "classes", "--type", t, "--rank", str(n)] for t, n in ORACLE_CLASSES
    ]
    jobs.append(["classify", "--type", "H3"])
    return jobs


def _verify_argv(model: str):
    return ["verify", "--model", model, "--oracle"]


def _positive_verify_jobs():
    return [_verify_argv(f"family:{f}") for f in INDEX_FAMILIES + OTHER_FAMILIES]


def negative_pool(families: dict):
    """Non-perfect explicit models: one index of a family dropped or doubled.

    `families` maps "NAME:n" to the family's index documents, as recorded
    in reference.json.
    """
    pool = []
    for name in sorted(families):
        docs = families[name]
        if len(docs) < 2:
            continue
        for i in range(len(docs)):
            pool.append(docs[:i] + docs[i + 1 :])
            for j in range(len(docs)):
                if j != i:
                    pool.append(docs[:i] + [docs[j]] + docs[i + 1 :])
    return [
        _verify_argv(json.dumps(model, sort_keys=True, separators=(",", ":")))
        for model in pool
    ]


def all_cli_argvs(families: dict):
    """Every CLI job any seed can draw, for recording the reference."""
    return (
        _classify_jobs()
        + _oracle_jobs()
        + _positive_verify_jobs()
        + negative_pool(families)
    )


# --- partitions, for the lr-table inputs and checks ----------------------------


def partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def conjugate(p):
    return tuple(sum(1 for x in p if x > i) for i in range(p[0])) if p else ()


def hook_dimension(p) -> int:
    """Number of standard tableaux of shape p, by the hook-length formula."""
    conj = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(p)) // hooks


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work (about 8 ms).

    Half small-integer arithmetic, half tuple building and big-integer
    products: of the loops tried, this mix tracked the host's speed
    drift closest for both `lr_expand` and the oracle.
    """
    start = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    for p in partitions(18):
        hook_dimension(p)
    return time.perf_counter() - start


def lr_orbits(n: int):
    """Pairs of nonempty partitions with |lam|+|mu| = n, grouped into orbits
    under swapping and conjugating, so a block can check both symmetries."""
    seen = set()
    orbits = []
    for k in range(1, n):
        for lam in partitions(k):
            for mu in partitions(n - k):
                if (lam, mu) in seen:
                    continue
                lc, mc = conjugate(lam), conjugate(mu)
                orbit = sorted({(lam, mu), (mu, lam), (lc, mc), (mc, lc)})
                seen.update(orbit)
                orbits.append(orbit)
    return orbits


def lr_block(n: int, rng: random.Random, stride: int):
    orbits = lr_orbits(n)
    pairs = []
    for start in range(0, len(orbits), stride):
        pairs += rng.choice(orbits[start : start + stride])
    rng.shuffle(pairs)
    return pairs


def check_lr_block(pairs, expansions) -> str | None:
    """None when the block satisfies the three identities, else the reason."""
    if len(expansions) != len(pairs):
        return f"{len(expansions)} expansions for {len(pairs)} pairs"
    table = {}
    for (lam, mu), terms in zip(pairs, expansions):
        table[(tuple(lam), tuple(mu))] = {tuple(nu): c for nu, c in terms}
    for (lam, mu), terms in table.items():
        n = sum(lam) + sum(mu)
        if any(sum(nu) != n or c <= 0 for nu, c in terms.items()):
            return f"bad term in {lam} * {mu}"
        mass = sum(c * hook_dimension(nu) for nu, c in terms.items())
        if mass != comb(n, sum(lam)) * hook_dimension(lam) * hook_dimension(mu):
            return f"degree identity fails for {lam} * {mu}"
        if table[(mu, lam)] != terms:
            return f"c(lam, mu) != c(mu, lam) for {lam} * {mu}"
        conj = table[(conjugate(lam), conjugate(mu))]
        if conj != {conjugate(nu): c for nu, c in terms.items()}:
            return f"conjugation identity fails for {lam} * {mu}"
    return None


# --- jobs for one run ----------------------------------------------------------


def cli_job(argv, negative=False) -> dict:
    return {"argv": argv, "negative": negative}


def make_jobs(workload: str, seed: int, reference: dict, smoke: bool = False):
    """The jobs of one pass, drawn from the seed.

    CLI workloads return a list of CLI jobs; `lr-table` returns a list of
    blocks, each {"size": n, "pairs": [...]}.  The job order of every pass
    is drawn later, from the same seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify-sweep":
        argvs = _classify_jobs()[2:3] if smoke else _classify_jobs()
        return [cli_job(a) for a in argvs]
    if workload == "oracle-search":
        argvs = [["oracle", "search", "--type", "A", "--rank", "3"]] if smoke else _oracle_jobs()
        return [cli_job(a) for a in argvs]
    if workload == "verify-oracle":
        if smoke:
            return [cli_job(_verify_argv("family:PA:3"))]
        negatives = rng.sample(negative_pool(reference["families"]), NEGATIVES_PER_RUN)
        return [cli_job(a) for a in _positive_verify_jobs()] + [
            cli_job(a, negative=True) for a in negatives
        ]
    if workload == "lr-table":
        sizes = [6] if smoke else LR_SIZES
        stride = 1 if smoke else LR_STRIDE
        return [{"size": n, "pairs": lr_block(n, rng, stride)} for n in sizes]
    raise ValueError(f"unknown workload {workload!r}")
