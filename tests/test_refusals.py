"""The library's refusals of bad arguments, one row each.

Every row names a call, the exception it raises and the exact message.
These are the refusals that no other test reaches; the `RuntimeError`
invariants, which fire only on a wrong program, are not here.
"""

import pytest

from coxmodel import char_ring as cr
from coxmodel import classification as cl
from coxmodel import induction as ind
from coxmodel import model_index as mx
from coxmodel import oracle as oc
from coxmodel import partitions as pt
from coxmodel.classification import CapExceeded

CHI_A = cr.char_of("A", (2, 1))
CHI_B = cr.char_of("B", ((1,), (1,)))
IDX_A = mx.from_json({"type": "A", "alpha": [2], "beta": ["id"], "gamma": ["triv"]})
IDX_A3 = mx.from_json({"type": "A", "alpha": [3], "beta": ["id"], "gamma": ["triv"]})
IDX_B = mx.from_json(
    {"type": "B", "alpha": [0, 2], "beta": ["id", "id"], "gamma": ["triv", "sgn"]}
)


def _set_ctype():
    IDX_A.ctype = "B"


def _build_s4_under_cap_10():
    """The BFS's own cap check, which `get_group` pre-empts by the order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COXMODEL_ORACLE_CAP", "10")
        oc.Group("s4", *oc.GROUP_TYPES["A"].group(4))


ROWS = {
    # char_ring
    "label_rank E": (lambda: cr.label_rank("E", (1,)), ValueError, "bad character type: 'E'"),
    "irr_universe E": (lambda: cr.irr_universe("E", 3), ValueError, "bad character type: 'E'"),
    "parse_label E": (lambda: cr.parse_label("E", "(1)"), ValueError, "bad character type: 'E'"),
    "irr_universe A -1": (lambda: cr.irr_universe("A", -1), ValueError, "negative rank: -1"),
    "d_deg sign x": (lambda: cr.d_deg((1,), "x"), ValueError, "bad degenerate sign: 'x'"),
    "twist unknown": (lambda: cr.twist(CHI_A, "spin"), ValueError, "unknown twist kind: 'spin'"),
    "twist diamond A": (
        lambda: cr.twist(CHI_A, "diamond"),
        ValueError,
        "diamond twist applies to type D only",
    ),
    "twist b_minusplus A": (
        lambda: cr.twist(CHI_A, "b_minusplus"),
        ValueError,
        "b_minusplus twist applies to type B only",
    ),
    "twist b_plusminus A": (
        lambda: cr.twist(CHI_A, "b_plusminus"),
        ValueError,
        "b_plusminus twist applies to type B only",
    ),
    "is_multiplicity_free negative": (
        lambda: cr.is_multiplicity_free(cr.char_of("A", (2, 1), -1)),
        ValueError,
        "negative coefficient at (2,1)",
    ),
    # classification
    "is_perfect_symbolic empty": (lambda: cl.is_perfect_symbolic([]), ValueError, "empty model"),
    "is_perfect_symbolic mixed ranks": (
        lambda: cl.is_perfect_symbolic([IDX_A, IDX_A3]),
        ValueError,
        "mixed types or ranks in model",
    ),
    "search_perfect_models E": (
        lambda: cl.search_perfect_models("E", 3),
        ValueError,
        "bad character type: 'E'",
    ),
    # induction
    "bullet mixed": (
        lambda: ind.bullet("A", CHI_A, CHI_B),
        ValueError,
        "bullet: mixed character types",
    ),
    "ind_A_to_B B": (
        lambda: ind.ind_A_to_B(CHI_B),
        ValueError,
        "ind_A_to_B expects a type A character",
    ),
    "ind_A_to_D B": (
        lambda: ind.ind_A_to_D(CHI_B),
        ValueError,
        "ind_A_to_D expects a type A character",
    ),
    "ind_A_to_D sideways": (
        lambda: ind.ind_A_to_D(CHI_A, "sideways"),
        ValueError,
        "bad side: 'sideways'",
    ),
    "restrict_B_to_D A": (
        lambda: ind.restrict_B_to_D(CHI_A),
        ValueError,
        "restrict_B_to_D expects a type B character",
    ),
    "induce_D_to_B A": (
        lambda: ind.induce_D_to_B(CHI_A),
        ValueError,
        "induce_D_to_B expects a type D character",
    ),
    "project piL A": (
        lambda: ind.project("piL", CHI_A),
        ValueError,
        "piL expects a type B character",
    ),
    "project piD A": (
        lambda: ind.project("piD", CHI_A),
        ValueError,
        "piD expects a type D character",
    ),
    "project unknown": (
        lambda: ind.project("piX", CHI_A),
        ValueError,
        "unknown projection: 'piX'",
    ),
    # model_index
    "transform star B": (
        lambda: mx.transform(IDX_B, "star"),
        ValueError,
        "star applies to type A only",
    ),
    "transform diamond A": (
        lambda: mx.transform(IDX_A, "diamond"),
        ValueError,
        "diamond applies to type D only",
    ),
    "transform unknown": (
        lambda: mx.transform(IDX_A, "flip"),
        ValueError,
        "unknown transform: 'flip'",
    ),
    "project_index unknown": (
        lambda: mx.project_index("piX", IDX_B),
        ValueError,
        "unknown projection: 'piX'",
    ),
    "project_index piD B": (
        lambda: mx.project_index("piD", IDX_B),
        ValueError,
        "piD applies to type D indexes",
    ),
    "enumerate_indices E": (
        lambda: mx.enumerate_indices("E", 3),
        ValueError,
        "bad index type: 'E'",
    ),
    "ModelIndex immutable": (_set_ctype, AttributeError, "ModelIndex is immutable"),
    # oracle and partitions
    "irr_column E": (
        lambda: oc.irr_column("E", [(1,)], (1,)),
        ValueError,
        "bad character type: 'E'",
    ),
    "combine unknown": (
        lambda: pt.combine((1,), (1,), "zip"),
        ValueError,
        "unknown combine mode: 'zip'",
    ),
    "orows parity": (lambda: pt.orows(4, 1), ValueError, "orows(4,1): parity mismatch"),
    "degenerate_labels odd": (
        lambda: pt.degenerate_labels(3),
        ValueError,
        "degenerate labels need even rank, got 3",
    ),
    "Group s4 cap 10": (_build_s4_under_cap_10, CapExceeded, "group s4 exceeds cap 10"),
}


@pytest.mark.parametrize("call, exc, message", ROWS.values(), ids=ROWS.keys())
def test_library_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_normalize_is_a_transform():
    idx = mx.from_json(
        {"type": "A", "alpha": [1, 1], "beta": ["id", "id"], "gamma": ["triv", "sgn"]}
    )
    assert mx.transform(idx, "normalize") == mx.normalize(idx)
