"""Hostile-input fuzzing of the entry points that read untrusted input.

Each JSON example takes a golden report or a spec file and replaces, deletes
or adds one value somewhere in it.  The replacement values are the ones that
slip past naive checks: NaN, infinities, floats, bools, huge ints, strings
and deeply nested lists.  Whatever the input, ``parse_cipher`` must return a
cipher or raise ``SpecError`` or ``CapExceeded``, and ``verify_report`` must
return a verdict with its problems listed or raise one of those two.  The
same kind of values, written as tokens to a table or matrix file, must make
the command line exit 0, 64 or 65, never raise.
"""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tbaudit.cipher import TbCipher
from tbaudit.cli import main
from tbaudit.errors import CapExceeded, SpecError
from tbaudit.report import verify_report
from tbaudit.specfile import parse_cipher

SPEC_DIR = Path(__file__).parent.parent / "specs"
GOLDENS = [json.loads(p.read_text())
           for p in sorted((SPEC_DIR / "golden").glob("*.json"))]
SPECS = [json.loads(p.read_text()) for p in sorted(SPEC_DIR.glob("*.json"))]

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _nested(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


HOSTILE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False,
                     None, "", "ff", 2**70, -2**70, 10**300, 0, -1, 9.5,
                     [], {}, _nested(2000)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2**80, 2**80),
    st.lists(st.integers(-4, 300), max_size=4),
)


def _paths(obj, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _paths(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _paths(val, path + (i,))


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(HOSTILE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete":
        del parent[key]
    elif action == "add" and isinstance(parent, dict):
        parent[draw(st.sampled_from(["flags", "cap", "budget", "x"]))] = (
            draw(HOSTILE))
    elif action == "add":
        parent.append(draw(HOSTILE))
    else:
        parent[key] = draw(HOSTILE)
    return doc


@FUZZ
@given(mutated(SPECS + [g["cipher"] for g in GOLDENS if "cipher" in g]))
def test_parse_cipher_survives_mutated_specs(doc):
    try:
        cipher = parse_cipher(doc)
    except (SpecError, CapExceeded):
        return
    assert isinstance(cipher, TbCipher)


@FUZZ
@given(mutated(GOLDENS))
def test_verify_report_survives_mutated_goldens(doc):
    try:
        ok, problems = verify_report(doc)
    except (SpecError, CapExceeded):
        return
    assert ok is (not problems)
    assert all(isinstance(p, str) for p in problems)


TOKENS = st.lists(st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "True", "None", "9.5", "1e300",
                     "-1", "0x10", "1_0", "zz", "ff" * 40, "[]", "{}", "\u00e9",
                     "\udcff"]),
    st.integers(-2**80, 2**80).map(str),
    st.integers(0, 300).map(lambda v: format(v, "x"))), max_size=20)


@settings(FUZZ, suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])
@given(TOKENS, st.sampled_from([" ", ",", "\n", ", "]),
       st.sampled_from([None, ["0", "1", "3", "2"], ["1", "2", "4", "8"]]))
def test_cli_survives_hostile_table_and_matrix_files(tmp_path, tokens, sep,
                                                     valid):
    # a valid 2-bit table or 4-row matrix now and then reaches the analysis;
    # "\udcff" writes the byte 0xff, which is not UTF-8
    path = tmp_path / "values.hex"
    path.write_bytes(sep.join(valid or tokens).encode(
        errors="surrogateescape"))
    for argv in (["analyze-sbox", str(path)],
                 ["analyze-mixing", str(path), "--m", "2", "--b", "2"]):
        assert main(argv) in (0, 64, 65), (argv, path.read_bytes())
