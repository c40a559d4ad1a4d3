"""Command line front end.

Subcommands:
  lr        Littlewood-Richardson coefficients or full product expansions.
  char      The virtual character of one model index.
  verify    Check that a model (explicit or named family) is perfect.
  classify  Enumerate perfect models up to equivalence.
  oracle    Brute-force group computations: search and classes.

Exit codes: 0 success, 1 domain error, 2 verification failure or golden
mismatch, 3 resource cap exceeded.  Output is a JSON document on stdout
with "schema": 1; collections are sorted so output is byte-identical
across runs.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import classification as cl
from . import partitions as pt
from .lr import lr_coefficient, lr_expand
from .model_index import (
    ModelIndex,
    character_of_index,
    format_index,
    from_json,
)

SCHEMA = 1


_quote = json.encoder.encode_basestring_ascii


def render(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte.

    Strings, ints, bools, None, lists, tuples and dicts with str keys;
    anything else raises TypeError.  `json.dumps` with `indent` runs the
    pure-Python encoder, which this walk undercuts.
    """
    out: list[str] = []
    _render(doc, "\n", out.append)
    return "".join(out)


def _render(x, newline: str, write) -> None:
    """Write x; `newline` carries the indentation of its container."""
    if isinstance(x, str):
        write(_quote(x))
    elif x is None:
        write("null")
    elif x is True:
        write("true")
    elif x is False:
        write("false")
    elif isinstance(x, int):
        write(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            write(sep)
            _render(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        for key in x:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            write(sep + _quote(key) + ": ")
            _render(x[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"cannot render {type(x).__name__}")


def _document(doc: dict) -> str:
    """The text of one document: what `_emit` writes, `--golden` compares."""
    return render({"schema": SCHEMA, **doc}) + "\n"


def _emit(doc: dict) -> None:
    sys.stdout.write(_document(doc))


def _read(parse, value, what: str):
    """`parse(value)`, with any failure a ValueError that names `what`."""
    try:
        return parse(value)
    except Exception as exc:
        raise ValueError(f"bad {what} {value!r}: {exc}") from exc


def _json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad JSON: {exc}") from exc


def _cmd_lr(args) -> int:
    lam = _read(pt.parse_partition, args.lam, "partition")
    mu = _read(pt.parse_partition, args.mu, "partition")
    doc = {"command": "lr", "lam": pt.format_partition(lam), "mu": pt.format_partition(mu)}
    if args.nu is not None:
        nu = _read(pt.parse_partition, args.nu, "partition")
        doc["nu"] = pt.format_partition(nu)
        doc["coefficient"] = lr_coefficient(lam, mu, nu)
    else:
        doc["expansion"] = [[pt.format_partition(nu), c] for nu, c in lr_expand(lam, mu).items()]
    _emit(doc)
    return 0


def _cmd_char(args) -> int:
    idx = _read(from_json, _json(args.index), "model index")
    chi = character_of_index(idx)
    _emit({"command": "char", "index": format_index(idx), "character": chi.to_json()})
    return 0


def _load_model(text: str):
    """A model argument: either family:NAME:n or a JSON list of indexes."""
    if text.startswith("family:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected family:NAME:n, got {text!r}")
        name, rank = parts[1], parts[2]
        try:
            n = int(rank)
        except ValueError as exc:
            raise ValueError(f"bad rank {rank!r}") from exc
        if name in ("I2odd", "I2even", "H3"):
            return (name[:2], name, n)  # the type, I2 or H3
        return ("index", name, cl.known_model(name, n))
    docs = _json(text)
    if not isinstance(docs, list) or not docs:
        raise ValueError("model JSON must be a nonempty list of indexes")
    return ("index", None, tuple(_read(from_json, d, "model index") for d in docs))


def _oracle_check_model(indices) -> bool:
    from . import oracle as oc

    group = oc.get_group(indices[0].ctype, indices[0].rank)
    chars = [oc.oracle_char_of_index(group, idx) for idx in indices]
    return oc.oracle_is_perfect(group, chars) and all(
        oc.index_agrees_with_oracle(group, idx, orc) for idx, orc in zip(indices, chars)
    )


def _cmd_verify(args) -> int:
    kind = _load_model(args.model)
    doc = {"command": "verify", "model": args.model}
    if kind[0] in ("I2", "H3"):
        # the known models must be exactly the oracle's covers; I2 first
        # checks its closed form, and asks the oracle only under --oracle
        ctype, name, n = kind
        if ctype == "H3":
            ok, models = True, cl.h3_known_models()
        else:
            if n < 5 or (n % 2 == 0) != (name == "I2even"):
                raise ValueError(f"{name} needs matching parity and m >= 5")
            wanted = cl.dihedral_known_models(n)
            found = {frozenset(model) for model in cl.classify_dihedral(n)["models"]}
            ok = all(frozenset(model) in found for model in wanted)
            models = [[cl.DIHEDRAL_MEMBER[member] for member in model] for model in wanted]
        if ok and (args.oracle or ctype == "H3"):
            from . import oracle as oc

            ok = cl.known_models_are_oracle_covers(oc.get_group(ctype, n), models)
        doc["status"] = "perfect" if ok else "not_perfect"
    else:
        _, _, indices = kind
        verdict = cl.is_perfect_symbolic(indices)
        ok = verdict["status"] == "perfect"
        if ok and args.oracle and not _oracle_check_model(indices):
            ok, verdict = False, {"status": "oracle_mismatch"}
        doc["indices"] = [format_index(i) for i in indices]
        doc["status"] = verdict["status"]
        if "witness" in verdict:
            from .char_ring import format_label

            doc["witness"] = format_label(indices[0].ctype, verdict["witness"])
            doc["multiplicity"] = verdict["multiplicity"]
    _emit(doc)
    return 0 if ok else 2


# How one member of a classified model is written, per type.
_MEMBER_JSON = {
    "I2": lambda triple: "%s:%s" % triple,
    "H3": lambda member: {"J": list(member[0]), "centralizer_order": len(member[1])},
}


def _classify_payload(args) -> dict:
    r = cl.classify(args.type, args.rank, args.relation)
    encode = _MEMBER_JSON.get(args.type, ModelIndex.to_json)
    return {
        "command": "classify",
        **{k: r[k] for k in ("type", "rank", "relation", "count")},
        "models": [[encode(member) for member in model] for model in r["models"]],
    }


def _cmd_classify(args) -> int:
    payload = _classify_payload(args)
    if args.golden:
        text = _document(payload)
        try:
            with open(args.golden, encoding="utf-8") as fh:
                want = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read golden file: {exc}") from exc
        if text != want:
            import difflib

            diff = "".join(
                difflib.unified_diff(
                    want.splitlines(keepends=True),
                    text.splitlines(keepends=True),
                    fromfile=args.golden,
                    tofile="computed",
                )
            )
            sys.stderr.write(diff)
            return 2
    _emit(payload)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle as oc

    group = oc.get_group(args.type, args.rank)
    if args.action == "classes":
        classes = sorted(
            oc.perfect_classes(group),
            key=lambda c: (c["theta"], str(c["min"])),
        )
        key, rows = "classes", [
            {
                "theta": list(c["theta"]),
                "min": list(c["min"]),
                "size": len(c["elements"]),
            }
            for c in classes
        ]
    else:
        key, rows = "covers", [
            [
                {
                    "J": list(descs[0][0]),
                    "triples": len(descs),
                }
                for _, descs in cover
            ]
            for cover in oc.oracle_search(group)
        ]
    _emit(
        {
            "command": "oracle " + args.action,
            "type": args.type,
            "rank": args.rank,
            "count": len(rows),
            key: rows,
        }
    )
    return 0


class Option(NamedTuple):
    """One argument of a command.

    `name` is a long flag ("--rank") or, without dashes, a positional;
    its dashless form is the attribute the handler reads.  `kind` is str,
    int or "store_true".  `build_parser` hands the fields to argparse,
    and `_plain_args` reads them directly.
    """

    name: str
    kind: object = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


_TYPES = ("A", "B", "D", "I2", "H3")

# name -> (help line, options, handler), in the order help lists them
COMMANDS = {
    "lr": (
        "Littlewood-Richardson coefficients",
        (
            Option("--lam", required=True),
            Option("--mu", required=True),
            Option("--nu"),
        ),
        _cmd_lr,
    ),
    "char": (
        "character of a model index",
        (Option("--index", required=True, help="JSON index document"),),
        _cmd_char,
    ),
    "verify": (
        "check a model is perfect",
        (
            Option("--model", required=True, help="JSON list or family:NAME:n"),
            Option("--oracle", "store_true", default=False),
        ),
        _cmd_verify,
    ),
    "classify": (
        "classify perfect models",
        (
            Option("--type", required=True, choices=_TYPES),
            Option("--rank", int, default=3),
            Option("--relation", choices=("strong", "full"), default="strong"),
            Option("--golden", help="compare output against this file"),
        ),
        _cmd_classify,
    ),
    "oracle": (
        "brute-force group computations",
        (
            Option("action", choices=("search", "classes")),
            Option("--type", required=True, choices=_TYPES),
            Option("--rank", int, default=3),
        ),
        _cmd_oracle,
    ),
}


def _add_option(parser, opt: Option) -> None:
    kwargs = {"default": opt.default, "choices": opt.choices, "help": opt.help}
    kwargs = {key: value for key, value in kwargs.items() if value is not None}
    if opt.required:
        kwargs["required"] = True
    if opt.kind == "store_true":
        kwargs["action"] = "store_true"
    elif opt.kind is int:
        kwargs["type"] = int
    parser.add_argument(opt.name, **kwargs)


def build_parser():
    """The CLI's argparse parser, one subparser per command.

    This is the only place that imports argparse: `run()` needs it only
    for help and errors (see `_plain_args`).
    """
    import argparse

    p = argparse.ArgumentParser(prog="coxmodel")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, options, _) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        for opt in options:
            _add_option(parser, opt)
    return p


def _plain_args(argv):
    """The namespace argparse would build from `argv`, if `argv` is plain.

    Plain means: a command name first, then that command's long flags
    spelled in full, each at most once, and its positionals in order;
    every value is a word that does not start with "-", an int is ASCII
    digits, a value with choices is one of them, and nothing required is
    missing.  Anything else gives None, and `run()` hands the line to
    argparse, which prints the help, the usage and every error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    flags = {opt.name: opt for opt in options if opt.name.startswith("--")}
    positionals = [opt for opt in options if opt.name not in flags]
    values = {}
    words = iter(argv[1:])
    for word in words:
        opt = flags.get(word)
        if opt is None:
            if not positionals:
                return None
            opt, value = positionals.pop(0), word
        elif opt.dest in values:
            return None
        elif opt.kind == "store_true":
            values[opt.dest] = True
            continue
        else:
            value = next(words, "-")  # a flag that ends the line is not plain
        if value.startswith("-"):
            return None
        if opt.kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if positionals:
        return None
    for opt in options:
        if opt.dest not in values:
            if opt.required:
                return None
            values[opt.dest] = opt.default
    return SimpleNamespace(command=argv[0], **values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command][2](args)
    except cl.CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
