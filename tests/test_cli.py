import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coxmodel
from coxmodel import oracle as oc
from coxmodel.classification import known_model
from coxmodel.cli import COMMANDS, _plain_args, build_parser, render, run
from coxmodel.model_index import format_index

REPO = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "lam,mu,terms",
    [
        # one new cell at the end of any of the 1000 rows, or below them
        ("(" + ",".join(map(str, range(1000, 0, -1))) + ")", "(1)", 1001),
        # a row of 1200 on a column of 1200
        ("(" + ",".join(["1"] * 1200) + ")", "(1200)", 2),
    ],
    ids=["staircase-1000", "column-1200"],
)
def test_lr_on_deep_partitions(capsys, lam, mu, terms):
    code, out, err = invoke(capsys, "lr", "--lam", lam, "--mu", mu)
    assert code == 0
    assert "Traceback" not in err
    assert len(json.loads(out)["expansion"]) == terms


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
    [
        "family:PB:3",
        "family:PBhat:4",
        "family:PD:5",
        "family:I2odd:7",
        "family:H3:3",
        "family:I2odd:7 --oracle",
        "family:I2even:8 --oracle",
    ],
)
def test_verify_known_families(capsys, model):
    code, out, _ = invoke(capsys, "verify", "--model", *model.split())
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
    assert err == "error: H3 exists at rank 3 only\n"


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


@pytest.mark.parametrize("option", ["--index", "--model"])
def test_deeply_nested_json_exits_1(capsys, option):
    command = "char" if option == "--index" else "verify"
    code, out, err = invoke(capsys, command, option, "[" * 100000)
    assert code == 1
    assert out == ""
    assert "bad JSON" in err and "Traceback" not in err


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
    # a rank is refused by the rule every command shares
    assert err == {
        "--rank": "error: H3 exists at rank 3 only\n",
        "--relation": "error: H3 is classified at rank 3 under the strong relation only\n",
    }[option[0]]


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
    if ctype == "H3":
        assert err == "error: H3 exists at rank 3 only\n"


def test_classify_above_the_type_a_cap_exits_1(capsys):
    code, out, err = invoke(capsys, "classify", "--type", "A", "--rank", "17")
    assert code == 1
    assert out == ""
    assert "search capped at rank 16 for type A" in err


@pytest.mark.parametrize(
    "ctype,rank,floor",
    [("A", 0, 1), ("A", -2, 1), ("B", 0, 1), ("D", 0, 3), ("D", 1, 3), ("D", 2, 3)],
)
def test_classify_below_the_rank_floor_exits_1(capsys, ctype, rank, floor):
    code, out, err = invoke(capsys, "classify", "--type", ctype, "--rank", str(rank))
    assert code == 1
    assert out == ""
    assert f"type {ctype} needs rank >= {floor}, got {rank}" in err


def test_the_element_cap_admits_a_group_of_its_size(capsys, monkeypatch):
    # a fresh cache makes the cap apply to B3 (48 elements)
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", "48")
    assert oc.get_group("B", 3).order == 48
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", "47")
    with pytest.raises(oc.CapExceeded) as exc:
        oc.get_group("B", 3)
    assert str(exc.value) == "group symB exceeds cap 47"
    code, out, err = invoke(capsys, "oracle", "search", "--type", "B", "--rank", "3")
    assert (code, out, err) == (3, "", "cap exceeded: group symB exceeds cap 47\n")


@pytest.mark.parametrize(
    "ctype,rank,label",
    [
        ("A", "10", "symA"),
        ("A", "200", "symA"),
        ("B", "9", "symB"),
        ("D", "10", "symD"),
        ("I2", "10000000", "dihedral10000000"),
    ],
)
def test_the_cap_refuses_a_group_by_its_order_before_building_it(
    capsys, monkeypatch, ctype, rank, label
):
    def no_build(*args):
        raise RuntimeError("a group past the cap was built")

    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.delenv("COXMODEL_ORACLE_CAP", raising=False)
    monkeypatch.setattr(oc.Group, "__init__", no_build)
    code, out, err = invoke(capsys, "oracle", "classes", "--type", ctype, "--rank", rank)
    assert (code, out, err) == (3, "", f"cap exceeded: group {label} exceeds cap 1000000\n")


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_a_bad_element_cap_exits_1(capsys, monkeypatch, value):
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", value)
    code, out, err = invoke(capsys, "oracle", "search", "--type", "A", "--rank", "3")
    assert (code, out) == (1, "")
    assert err == f"error: COXMODEL_ORACLE_CAP must be a positive integer, got '{value}'\n"


def test_an_empty_element_cap_is_the_default(monkeypatch):
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", "")
    assert oc.oracle_cap() == 1_000_000
    assert oc.get_group("B", 3).order == 48


@pytest.mark.parametrize("rank", [127, 130])
@pytest.mark.parametrize("ctype,label", [("A", "symA"), ("B", "symB"), ("D", "symD")])
def test_the_cap_exits_3_on_more_letters_than_a_byte_codes(capsys, monkeypatch, ctype, label, rank):
    # the group's order passes the cap, so it is refused before any BFS,
    # at 130 letters as at 127; the tuple keys of groups wider than a byte
    # codes are checked through `_keys_for` in test_oracle.py
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", "200")
    code, out, err = invoke(capsys, "oracle", "search", "--type", ctype, "--rank", str(rank))
    assert (code, out, err) == (3, "", f"cap exceeded: group {label} exceeds cap 200\n")


def test_verify_below_the_rank_floor_exits_1(capsys):
    model = [{"type": "D", "alpha": [2, 0], "beta": ["id", "id"], "gamma": ["triv", "triv"]}]
    code, out, err = invoke(capsys, "verify", "--model", json.dumps(model), "--oracle")
    assert code == 1
    assert out == ""
    assert "type D needs rank >= 3, got 2" in err


# one argv per command; a command missing here fails the test below
_SAMPLE_ARGVS = {
    "lr": ["lr", "--lam", "(2,1)", "--mu", "(1)", "--nu", "(3,1)"],
    "char": ["char", "--index", "{}"],
    "verify": ["verify", "--model", "family:PB:3", "--oracle"],
    "classify": ["classify", "--type", "B", "--rank", "4", "--relation", "full"],
    "oracle": ["oracle", "classes", "--type", "D", "--rank", "4"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_command_parser_parses_like_the_full_one(name):
    # every job parses on the plain path, which must build the namespace
    # the full parser builds
    argv = _SAMPLE_ARGVS[name]
    assert vars(_plain_args(argv)) == vars(build_parser().parse_args(argv))


def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["coxmodel", "lr", "--lam", "(1)", "--mu", "(1)"])
    code = run()
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["expansion"] == [["(2)", 1], ["(1,1)", 1]]


def test_help_lists_every_command(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "{lr,char,verify,classify,oracle}" in out
    for name, (help_line, _, _) in COMMANDS.items():
        assert f"    {name} " in out and help_line in out


def fresh_python(*args, env=None, **kwargs):
    """Run a new interpreter that imports this checkout's coxmodel."""
    src = str(Path(coxmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def test_classify_does_not_import_the_oracle():
    script = (
        "import contextlib, io, sys\n"
        "from coxmodel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['classify', '--type', 'B', '--rank', '3'])\n"
        "print(code, 'coxmodel.oracle' in sys.modules)\n"
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_plain_jobs_do_not_import_argparse():
    script = (
        "import contextlib, io, sys\n"
        "from coxmodel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(['classify', '--type', 'B', '--rank', '3']),\n"
        "             cli.run(['verify', '--model', 'family:PA:3', '--oracle'])]\n"
        "print(*codes, 'argparse' in sys.modules)\n"
        "cli.run(['-h'])\n"
    )
    proc = fresh_python("-c", script, env={"COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    first, help_text = proc.stdout.split("\n", 1)
    assert first.split() == ["0", "0", "False"]
    golden = json.loads((REPO / "tests" / "golden" / "cli_messages.json").read_text())
    assert help_text == next(case["stdout"] for case in golden if case["argv"] == ["-h"])


def test_python_dash_m_runs_the_cli():
    proc = fresh_python("-m", "coxmodel.cli", "lr", "--lam", "(1)", "--mu", "(1)")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["expansion"] == [["(2)", 1], ["(1,1)", 1]]


def test_console_script_entry_point():
    proc = fresh_python("-m", "coxmodel.cli", input="")
    # argparse exits nonzero without a subcommand; main() must not traceback
    assert "Traceback" not in proc.stderr


def test_verify_reports_an_oracle_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oc, "index_agrees_with_oracle", lambda group, idx, orc: False)
    code, out, _ = invoke(capsys, "verify", "--model", "family:PA:3", "--oracle")
    assert code == 2
    assert '"status": "oracle_mismatch"' in out
    assert json.loads(out)["indices"] == [format_index(i) for i in known_model("PA", 3)]


@pytest.mark.parametrize(
    "model", ["family:I2odd:7 --oracle", "family:H3:3", "family:H3:3 --oracle"]
)
def test_verify_dihedral_compares_oracle_covers_not_their_count(capsys, monkeypatch, model):
    # as many covers as the odd family has models, but not its characters;
    # H3 compares its known models with the covers with or without --oracle
    bogus = [(((1, 0, 0, 0, 0), ()),), (((0, 1, 0, 0, 0), ()),)]
    monkeypatch.setattr(oc, "oracle_search", lambda group: bogus)
    code, out, _ = invoke(capsys, "verify", "--model", *model.split())
    assert code == 2
    assert json.loads(out)["status"] == "not_perfect"


# Two README examples are placeholders, not commands: an elided JSON
# list (", ...]") and a golden file the reader supplies.
_README_PLACEHOLDERS = re.compile(r", \.\.\.\]|--golden expected\.json")


def test_readme_cli_examples_exit_0(capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("coxmodel ")
    ]
    examples = [line for line in lines if not _README_PLACEHOLDERS.search(line)]
    assert len(lines) - len(examples) == 2 and examples
    for line in examples:
        code, _, err = invoke(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)


# --- the plain path parses like argparse --------------------------------------

_FLAGS = sorted(
    {opt.name for _, options, _ in COMMANDS.values() for opt in options} - {"action"}
)
# values on both sides of each rule of the plain path, and argparse's own
# spellings: abbreviations, "=" forms, help, "--"
_WORDS = [
    "", "-3", "03", "\u0663", "x", "3", "12", "9" * 5000, "-", "--", "-h", "--help",
    "--rel", "--type=A", "--rank=3", "junk",
    "A", "B", "D", "I2", "H3", "E", "strong", "full", "weak",
    "search", "classes", "orbits", "(2,1)", "(1)", "{}", "family:PA:3", *COMMANDS,
]


@st.composite
def _command_lines(draw):
    """A command's options in any order, then a few stray words anywhere."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command]
    for opt in draw(st.permutations(COMMANDS[command][1])):
        if draw(st.integers(0, 5)) == 0:
            continue
        if opt.name.startswith("--"):
            argv.append(opt.name)
        if opt.kind != "store_true":
            good = opt.choices or (["0", "3", "12"] if opt.kind is int else ["(2,1)"])
            argv.append(draw(st.one_of(st.sampled_from(good), st.sampled_from(_WORDS))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_FLAGS + _WORDS)))
    return argv


def argparse_namespace(argv):
    """vars() of what argparse parses from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_plain_args_agree_with_argparse():
    # the spellings the benchmark's jobs use all take the plain path
    model = json.dumps([idx.to_json() for idx in known_model("PB", 3)])
    for argv in (
        ["classify", "--type", "D", "--rank", "8", "--relation", "full"],
        ["classify", "--type", "I2", "--rank", "12"],
        ["classify", "--type", "H3"],
        ["oracle", "search", "--type", "B", "--rank", "5"],
        ["oracle", "classes", "--type", "D", "--rank", "6"],
        ["verify", "--model", "family:PBhat:4", "--oracle"],
        ["verify", "--model", model, "--oracle"],
    ):
        plain = _plain_args(argv)
        assert plain is not None and vars(plain) == argparse_namespace(argv), argv

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    def check(argv):
        plain = _plain_args(argv)
        assert plain is None or vars(plain) == argparse_namespace(argv), argv

    check()


# --- no input ends in a traceback ---------------------------------------------

_PARTITION_TEXT = st.one_of(
    st.sampled_from(
        ["(1)", "(2,1)", "(3)", "(1,1,1)", "(2,2)", "()", "(1,2)", "(0)", "(-1)", "2,1"]
    ),
    st.text(max_size=5),
)
_BETAS = ["id", "idplus", "fpf", "fpfplus", "fpfdiamond", ["pq", 1, 2], ["pq", 2, 2],
          ["tri", 3, 1, "cw"], ["tri", 1, 3, "ccw"], ["pq"], 7, None]
_INDEX_FIELDS = {
    "type": st.sampled_from(["A", "B", "D", "I2", 3]),
    "alpha": st.one_of(st.lists(st.integers(-3, 3), max_size=3), st.just("2"), st.just([1.5])),
    "beta": st.lists(st.sampled_from(_BETAS), max_size=3),
    "gamma": st.lists(st.sampled_from(["triv", "sgn", "pm", "mp", "x", 0]), max_size=3),
}
# well-formed documents mostly, then missing keys and non-documents
_INDEX_DOCS = st.one_of(
    st.fixed_dictionaries(_INDEX_FIELDS),
    st.fixed_dictionaries({}, optional=_INDEX_FIELDS),
    st.sampled_from([5, "A", None, [], [1, 2]]),
)
_TYPES = st.sampled_from(["A", "B", "D", "I2", "H3", "E"])
_FAMILIES = st.sampled_from(
    ["PA", "PB", "PBhat", "PD", "Aextra4", "B3extra1", "B3extra2", "I2odd", "I2even", "H3", "X"]
)


def _rank(draw, top, dihedral):
    """A small rank; for I2 also one from 10^6 to 10^7, which the closed form answers at once."""
    small = st.integers(-1, top)
    return str(draw(st.one_of(small, st.integers(10**6, 10**7)) if dihedral else small))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["lr", "char", "verify", "classify", "oracle", "junk"]))
    if command == "lr":
        argv = ["lr", "--lam", draw(_PARTITION_TEXT), "--mu", draw(_PARTITION_TEXT)]
        if draw(st.booleans()):
            argv += ["--nu", draw(_PARTITION_TEXT)]
    elif command == "char":
        argv = ["char", "--index", json.dumps(draw(_INDEX_DOCS))]
    elif command == "verify":
        if draw(st.booleans()):
            family = draw(_FAMILIES)
            model = f"family:{family}:{_rank(draw, 7, family in ('I2odd', 'I2even'))}"
        else:
            model = json.dumps(draw(st.lists(_INDEX_DOCS, max_size=3)))
        argv = ["verify", "--model", model] + (["--oracle"] if draw(st.booleans()) else [])
    elif command == "classify":
        ctype = draw(_TYPES)
        top = 6 if ctype in ("A", "B", "D") else 12
        argv = ["classify", "--type", ctype, "--rank", _rank(draw, top, ctype == "I2")]
        argv += ["--relation", draw(st.sampled_from(["strong", "full", "weak"]))]
    elif command == "oracle":
        action = draw(st.sampled_from(["search", "classes", "orbits"]))
        argv = ["oracle", action, "--type", draw(_TYPES), "--rank", str(draw(st.integers(-1, 5)))]
    else:
        argv = draw(st.lists(st.sampled_from(["classify", "--rank", "x", "--type", "-", ""])))
    return argv


def test_no_cli_input_ends_in_a_traceback(monkeypatch):
    # groups above the cap exit 3 at once; a fresh cache makes the cap apply
    monkeypatch.setenv("COXMODEL_ORACLE_CAP", "200")
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})

    @settings(max_examples=150, deadline=None)
    @given(_argvs())
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv

    check()


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


GOLDEN_FILES = sorted((REPO / "tests" / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_render_is_json_dumps_on_every_golden_document(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert render(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        "",
        0,
        {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
        ["é", "ü\u2603", "\U0001f600", 'quote " and \\ back', "tab\tline\nfeed\x00\x1f\x7f"],
        {"\u00e9": 1, "z": True, "a": False, "m": None},
        [True, False, None, -1, 0, 10**30, -(10**30)],
        (1, (2, ()), [3, (4,)]),
        {"nested": {"deep": [{"x": -7, "y": [None]}]}},
    ],
)
def test_render_is_json_dumps_on_edge_documents(doc):
    assert render(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc", [1.5, {1: "int key"}, {None: 0}, {"a": {(1,): 2}}, {1, 2}, b"x", object()]
)
def test_render_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        render(doc)
