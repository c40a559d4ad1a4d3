import json

import pytest

from coxmodel.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_lr_coefficient(capsys):
    code, out, _ = invoke(
        capsys, "lr", "--lam", "(2,1)", "--mu", "(2,1)", "--nu", "(3,2,1)"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["coefficient"] == 2


def test_lr_expansion(capsys):
    code, out, _ = invoke(capsys, "lr", "--lam", "(2,1)", "--mu", "(1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["expansion"] == [["(3,1)", 1], ["(2,2)", 1], ["(2,1,1)", 1]]


def test_lr_rejects_bad_partition(capsys):
    code, _, err = invoke(capsys, "lr", "--lam", "(1,2)", "--mu", "(1)")
    assert code == 1
    assert "error" in err


def test_char_command(capsys):
    idx = {"type": "B", "alpha": [0, 3], "beta": ["id", "id"], "gamma": ["triv", "sgn"]}
    code, out, _ = invoke(capsys, "char", "--index", json.dumps(idx))
    assert code == 0
    doc = json.loads(out)
    coeffs = dict(tuple(kv) for kv in doc["character"]["coeffs"])
    assert coeffs == {
        "((1,1,1),())": 1,
        "((1,1),(1))": 1,
        "((1),(1,1))": 1,
        "((),(1,1,1))": 1,
    }


@pytest.mark.parametrize(
    "model",
    ["family:PB:3", "family:PBhat:4", "family:PD:5", "family:I2odd:7", "family:H3:3"],
)
def test_verify_known_families(capsys, model):
    code, out, _ = invoke(capsys, "verify", "--model", model)
    assert code == 0
    assert json.loads(out)["status"] == "perfect"


def test_verify_with_oracle(capsys):
    code, out, _ = invoke(capsys, "verify", "--model", "family:PB:3", "--oracle")
    assert code == 0
    assert json.loads(out)["status"] == "perfect"


def test_verify_failure_exits_2(capsys):
    model = [
        {"type": "B", "alpha": [3, 0], "beta": ["id", "id"], "gamma": ["triv", "triv"]}
    ]
    code, out, _ = invoke(capsys, "verify", "--model", json.dumps(model))
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "not_perfect"
    assert "witness" in doc


def test_verify_bad_family_exits_1(capsys):
    code, _, err = invoke(capsys, "verify", "--model", "family:NOPE:3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("model", ["family:H3:5", "family:H3:0", "family:H3:-3"])
def test_verify_h3_rejects_other_ranks(capsys, model):
    code, out, err = invoke(capsys, "verify", "--model", model)
    assert code == 1
    assert out == ""
    assert "rank 3" in err


@pytest.mark.parametrize("command", ["char", "verify"])
@pytest.mark.parametrize(
    "beta,gamma",
    [
        (["pq"], "triv"),
        (["tri", 3], "triv"),
        ([], "triv"),
        ({"a": 1}, "triv"),
        ("id", ["x"]),
    ],
    ids=["pq-without-sizes", "tri-too-short", "empty", "object", "gamma-list"],
)
def test_malformed_index_symbols_exit_1(capsys, command, beta, gamma):
    idx = {"type": "B", "alpha": [2, 1], "beta": [beta, "id"], "gamma": [gamma, "triv"]}
    if command == "char":
        argv = ("char", "--index", json.dumps(idx))
    else:
        argv = ("verify", "--model", json.dumps([idx]))
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_classify_is_byte_identical(capsys):
    code1, out1, _ = invoke(capsys, "classify", "--type", "B", "--rank", "3")
    code2, out2, _ = invoke(capsys, "classify", "--type", "B", "--rank", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] == 8


def test_classify_dihedral_and_h3(capsys):
    code, out, _ = invoke(capsys, "classify", "--type", "I2", "--rank", "8")
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out, _ = invoke(capsys, "classify", "--type", "H3")
    assert code == 0
    assert json.loads(out)["count"] == 4


@pytest.mark.parametrize("option", [("--rank", "9"), ("--relation", "full")])
def test_classify_h3_rejects_other_ranks_and_relations(capsys, option):
    code, out, err = invoke(capsys, "classify", "--type", "H3", *option)
    assert code == 1
    assert out == ""
    assert "rank 3" in err


def test_classify_golden_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "classify", "--type", "A", "--rank", "4")
    assert code == 0
    golden = tmp_path / "a4.json"
    golden.write_text(out, encoding="utf-8")
    code, out2, err = invoke(
        capsys, "classify", "--type", "A", "--rank", "4", "--golden", str(golden)
    )
    assert code == 0 and out2 == out
    golden.write_text(out.replace('"count": 4', '"count": 5'), encoding="utf-8")
    code, _, err = invoke(
        capsys, "classify", "--type", "A", "--rank", "4", "--golden", str(golden)
    )
    assert code == 2
    assert "count" in err  # unified diff mentions the changed line


def test_oracle_classes(capsys):
    code, out, _ = invoke(capsys, "oracle", "classes", "--type", "B", "--rank", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert all(set(c) == {"theta", "min", "size"} for c in doc["classes"])


def test_oracle_search(capsys):
    code, out, _ = invoke(capsys, "oracle", "search", "--type", "I2", "--rank", "6")
    assert code == 0
    assert json.loads(out)["count"] == 4


@pytest.mark.parametrize("action", ["search", "classes"])
@pytest.mark.parametrize(
    "ctype,rank",
    [
        ("A", 0), ("A", -1), ("B", 0), ("D", 0), ("D", 1),
        ("I2", 0), ("I2", 1), ("H3", 2), ("H3", 9),
    ],
)
def test_oracle_rejects_small_ranks(capsys, action, ctype, rank):
    code, out, err = invoke(capsys, "oracle", action, "--type", ctype, "--rank", str(rank))
    assert code == 1
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_classify_above_the_type_a_cap_exits_1(capsys):
    code, out, err = invoke(capsys, "classify", "--type", "A", "--rank", "17")
    assert code == 1
    assert out == ""
    assert "search capped at rank 16 for type A" in err


def test_classify_does_not_import_the_oracle():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import coxmodel

    src = str(Path(coxmodel.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "from coxmodel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['classify', '--type', 'B', '--rank', '3'])\n"
        "print(code, 'coxmodel.oracle' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import coxmodel

    src = str(Path(coxmodel.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "coxmodel.cli", "lr", "--lam", "(1)", "--mu", "(1)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["expansion"] == [["(2)", 1], ["(1,1)", 1]]


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "coxmodel.cli"],
        input="",
        capture_output=True,
        text=True,
    )
    # argparse exits nonzero without a subcommand; main() must not traceback
    assert "Traceback" not in proc.stderr
