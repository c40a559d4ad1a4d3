"""Span recorder for the traced benchmark run.

The recorder wraps the public boundary functions of each coxmodel module
from outside the package.  Every call becomes a span (function, start,
end, parent span, job id) kept in memory; the worker turns the spans into
per-function call counts and self times when its jobs are done, and can
write the raw spans out when it ends.

`from .x import f` copies the binding into the importing module, so a
wrapper has to replace the name in every coxmodel module that holds it,
not only in the module that defines it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

MODULES = (
    "cli",
    "classification",
    "model_index",
    "induction",
    "char_ring",
    "lr",
    "partitions",
    "oracle",
)


def _length(result, *args, **kwargs):
    return len(result)


def _order(result, *args, **kwargs):
    return result.order


def _mf_length(result, ctype=None, n=None, mf_only=False):
    return len(result) if mf_only else 0


# (module, function or Class.method, measure).  A measure maps the call's
# result and arguments to a number that is summed per function; it feeds
# the extra per-layer metrics such as covers found or group elements built.
BOUNDARIES = (
    ("cli", "run", None),
    ("classification", "classify", None),
    ("classification", "search_perfect_models", _length),
    ("classification", "is_perfect_symbolic", None),
    ("classification", "classify_dihedral", None),
    ("classification", "classify_h3", None),
    ("model_index", "enumerate_indices", _mf_length),
    ("model_index", "canonical_form", None),
    ("model_index", "character_of_index", None),
    ("induction", "bullet", None),
    ("induction", "column_char", None),
    ("induction", "ind_A_to_B", None),
    ("induction", "ind_A_to_D", None),
    ("char_ring", "VirtualCharacter.add", None),
    ("char_ring", "is_multiplicity_free", None),
    ("lr", "lr_expand", _length),
    ("lr", "lr_coefficient", None),
    ("partitions", "partitions_of", None),
    ("oracle", "get_group", None),
    ("oracle", "build_group", _order),
    ("oracle", "Group.subgroup", _order),
    ("oracle", "Group.conjugacy_classes", None),
    ("oracle", "perfect_classes", None),
    ("oracle", "all_triples", None),
    ("oracle", "triple_character", None),
    ("oracle", "twisted_centralizer", None),
    ("oracle", "induced_character", None),
    ("oracle", "sqrt_count", None),
    ("oracle", "oracle_search", _length),
    ("oracle", "virtual_char_values", None),
    ("oracle", "decompose", None),
    ("oracle", "check_index_against_oracle", None),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in BOUNDARIES)
_EXPAND = NAMES.index("lr.lr_expand")
_COEF = NAMES.index("lr.lr_coefficient")
_ENUMERATE = NAMES.index("model_index.enumerate_indices")
_CHAR = NAMES.index("model_index.character_of_index")
_GET = NAMES.index("oracle.get_group")
_BUILD = NAMES.index("oracle.build_group")
_ORACLE = frozenset(i for i, name in enumerate(NAMES) if name.startswith("oracle."))
# (parent, child) pairs whose direct child calls feed a ratio.
CHILD_COUNTS = frozenset({(_EXPAND, _COEF), (_ENUMERATE, _CHAR), (_GET, _BUILD)})


class Recorder:
    """Spans of one worker process, kept in memory until the worker ends.

    A span is [name id, start, end, parent span index or -1, job id,
    measured value].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.distinct_chars: set = set()
        self._cached = {}

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"coxmodel.{name}") for name in MODULES
        }
        loaded = [importlib.import_module("coxmodel"), *modules.values()]
        for name_id, (mod, attr, measure) in enumerate(BOUNDARIES):
            owner = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name_id, cls.__dict__[meth], measure))
                continue
            orig = getattr(owner, attr)
            if hasattr(orig, "cache_info"):
                self._cached[NAMES[name_id]] = orig
            wrapper = self._wrap(name_id, orig, measure)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    def _wrap(self, name_id, func, measure):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        distinct = NAMES[name_id] == "oracle.triple_character"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if measure is not None:
                span[5] = measure(result, *args, **kwargs)
            if distinct:
                self.distinct_chars.add((self.job, result))
            return result

        return traced

    def summary(self) -> dict:
        """Per-function counts and self times, and the extra counters."""
        spans = self.spans
        n = len(NAMES)
        calls, self_s, value = [0] * n, [0.0] * n, [0] * n
        child_time = [0.0] * len(spans)
        kids = {}  # (span index, child name id) -> calls, for CHILD_COUNTS
        for name_id, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if (spans[parent][0], name_id) in CHILD_COUNTS:
                    kids[parent, name_id] = kids.get((parent, name_id), 0) + 1
        extra = {
            "lr_expand.terms": 0,
            "lr_expand.coefficient_calls": 0,
            "enumerate_indices.character_calls": 0,
            "get_group.hits": 0,
            "oracle_spans_by_job": {},
        }
        by_job = extra["oracle_spans_by_job"]
        for i, (name_id, start, end, _, job, measured) in enumerate(spans):
            calls[name_id] += 1
            self_s[name_id] += end - start - child_time[i]
            value[name_id] += measured
            if name_id == _EXPAND and (i, _COEF) in kids:
                # a call that missed lr_expand's cache
                extra["lr_expand.terms"] += measured
                extra["lr_expand.coefficient_calls"] += kids[i, _COEF]
            elif name_id == _ENUMERATE:
                extra["enumerate_indices.character_calls"] += kids.get((i, _CHAR), 0)
            elif name_id == _GET and (i, _BUILD) not in kids:
                extra["get_group.hits"] += 1
            if name_id in _ORACLE:
                by_job[job] = by_job.get(job, 0) + 1
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": dict(zip(NAMES, self_s)),
            "value": dict(zip(NAMES, value)),
            "extra": extra,
            "cache": {
                name: list(func.cache_info()[:2]) for name, func in self._cached.items()
            },
            "triple_character.distinct": len(self.distinct_chars),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name_id, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": NAMES[name_id],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                )
                fh.write("\n")
