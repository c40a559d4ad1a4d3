"""Golden outputs: `classify` and `oracle` documents, the even-rank D
certificates, and the CLI's help, usage and error messages.

The `classify` files under tests/golden/ were recorded from the program
before its searches were merged into one exact-cover engine, the `oracle`
files before the oracle moved onto integer Cayley tables; any drift in a
class representative, an ordering or a count shows up here as a diff.
`cli_messages.json` holds the exit code, stdout and stderr of `run()` on
help, usage errors and one valid run, recorded at a terminal width of 80
columns before the parser was built per command, and on six ranks outside
their type's range (`oracle` at A0, B0, D1, I2(1) and H3 rank 4, `verify`
at `family:H3:2`), recorded before the oracle read its groups from one
table keyed by Coxeter type; the A0, B0, D1 and I2(1) refusals were
re-recorded when they came to name the type, not the group.  Its last
three entries, `char --index` on an object without the lists and on a
number and `verify --model '[5]'`, were recorded when `from_json` came to
name the missing key or the expected shape.  `oracle
search` A6 and D5 and `oracle classes` B5 were recorded before the search
induced each class-sum key once, so every `oracle` argv the benchmark
runs is pinned here too; each `oracle` file whose argv the benchmark
reference records must hash to the digest recorded there.  No file pins
`verify`: its positive `--oracle` jobs are checked against the reference
digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coxmodel.classification import d_even_nonexistence
from coxmodel.cli import run

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"
CLASSIFY = sorted(GOLDEN.glob("classify_*.json"))
ORACLE = sorted(GOLDEN.glob("oracle_*.json"))
CLI_MESSAGES = json.loads((GOLDEN / "cli_messages.json").read_text(encoding="utf-8"))


def test_golden_files_are_present():
    assert len(CLASSIFY) == 53


@pytest.mark.parametrize("path", CLASSIFY, ids=lambda p: p.stem)
def test_classify_matches_golden(path, capsys):
    doc = json.loads(path.read_text(encoding="utf-8"))
    argv = [
        "classify",
        "--type", doc["type"],
        "--rank", str(doc["rank"]),
        "--relation", doc["relation"],
        "--golden", str(path),
    ]
    code = run(argv)
    _, err = capsys.readouterr()
    assert code == 0, err


def test_oracle_golden_files_are_present():
    # search: A3-A6, B2-B5, D4, D5, I2(5), I2(6), H3; classes: B4, B5, D4, D6
    assert len(ORACLE) == 17


def _oracle_argv(doc):
    return doc["command"].split() + ["--type", doc["type"], "--rank", str(doc["rank"])]


@pytest.mark.parametrize("path", ORACLE, ids=lambda p: p.stem)
def test_oracle_matches_golden(path, capsys):
    want = path.read_text(encoding="utf-8")
    doc = json.loads(want)
    argv = _oracle_argv(doc)
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == want


def test_oracle_goldens_match_the_benchmark_reference():
    """A golden file and the benchmark's recorded digest of its argv agree.

    The reference keys each argv by `json.dumps(argv)` and records
    [exit code, sha256 of stdout]; it is read here, never written.
    """
    outputs = json.loads(REFERENCE.read_text(encoding="utf-8"))["outputs"]
    covered = []
    for path in ORACLE:
        text = path.read_text(encoding="utf-8")
        want = outputs.get(json.dumps(_oracle_argv(json.loads(text))))
        if want is None:
            continue
        assert want == [0, hashlib.sha256(text.encode()).hexdigest()], path.stem
        covered.append(path.stem)
    # the benchmark does not run `oracle classes` at B4 or D4
    assert sorted(set(p.stem for p in ORACLE) - set(covered)) == [
        "oracle_classes_B4",
        "oracle_classes_D4",
    ]


def _benchmark_workloads():
    """perfbench/workloads.py, loaded by path: it is not a package."""
    import importlib.util

    path = REFERENCE.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_oracle_matches_the_benchmark_reference(capsys):
    """Each positive `verify --model family:... --oracle` job of the
    benchmark prints what the reference recorded: [exit code, sha256 of
    stdout], read here, never written."""
    outputs = json.loads(REFERENCE.read_text(encoding="utf-8"))["outputs"]
    argvs = _benchmark_workloads()._positive_verify_jobs()
    assert len(argvs) == 28
    for argv in argvs:
        code = run(argv)
        out, err = capsys.readouterr()
        got = [code, hashlib.sha256(out.encode()).hexdigest()]
        assert got == outputs[json.dumps(argv)], (argv, err)


@pytest.mark.parametrize("n", [6, 8])
def test_d_even_certificate_matches_golden(n):
    want = (GOLDEN / f"d_even_nonexistence_{n}.json").read_text(encoding="utf-8")
    got = json.dumps(d_even_nonexistence(n), indent=2, sort_keys=True) + "\n"
    assert got == want


@pytest.mark.parametrize("case", CLI_MESSAGES, ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_cli_messages_match_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code = run(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
