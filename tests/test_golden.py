"""Golden outputs: `classify` and `oracle` documents, the even-rank D
certificates, and the CLI's help, usage and error messages.

The `classify` files under tests/golden/ were recorded from the program
before its searches were merged into one exact-cover engine, the `oracle`
files before the oracle moved onto integer Cayley tables; any drift in a
class representative, an ordering or a count shows up here as a diff.
`cli_messages.json` holds the exit code, stdout and stderr of `run()` on
help, usage errors and one valid run, recorded at a terminal width of 80
columns before the parser was built per command.
"""

import json
from pathlib import Path

import pytest

from coxmodel.classification import d_even_nonexistence
from coxmodel.cli import run

GOLDEN = Path(__file__).parent / "golden"
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
    # search: A3-A5, B2-B5, D4, I2(5), I2(6), H3; classes: B4, D4, D6
    assert len(ORACLE) == 14


@pytest.mark.parametrize("path", ORACLE, ids=lambda p: p.stem)
def test_oracle_matches_golden(path, capsys):
    want = path.read_text(encoding="utf-8")
    doc = json.loads(want)
    argv = doc["command"].split() + ["--type", doc["type"], "--rank", str(doc["rank"])]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == want


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
