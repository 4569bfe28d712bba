"""Loading ciphers from JSON descriptions.

A cipher file names the brick layout and lists the rounds:

    {
      "layout": {"m": 3, "b": 3},
      "rounds": [
        {"bricks": "inverse_gf2m", "layer": "rotation"},
        {"bricks": ["inverse_gf2m", "0 2 1 4 7 3 6 5", "inverse_gf2m"],
         "layer": ["3", "5", "7", "1", "2", "4", "8", "10", "20"]}
      ]
    }

Bricks are builtin names or explicit tables (a list, or one string of
whitespace/comma separated hex values); a single entry is replicated across
all bricks of the round.  Layers are builtin names, an object
{"name": "random_strongly_proper", "seed": n}, or a list of d hex row
vectors giving the matrix that acts on row vectors from the right.
Validation failures raise SpecError with the JSON path of the offender.

This module is the one reader and decoder of untrusted input: it reads
every file given to the program (``_read_text``, bounded at MAX_JSON_BYTES)
and decodes every table, matrix, layout, subspace row or recorded integer
that a spec, a report or a table or matrix file carries.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from pathlib import Path
from typing import Any

from . import presets
from .cipher import Round, TbCipher
from .errors import SingularMatrixError, SpecError
from .gf2 import BitMatrix, BrickLayout, _is_int
from .mixing import MixingLayer
from .sbox import SBox

__all__ = ["MAX_JSON_BYTES", "MAX_JSON_DEPTH", "load_cipher", "parse_cipher",
           "cipher_to_spec"]

# The largest file and the deepest nesting of arrays and objects that the
# JSON reader takes.  Specs and reports are far below both; the depth bound
# keeps the parser's recursion well inside Python's limit at any call depth.
MAX_JSON_BYTES = 1 << 24
MAX_JSON_DEPTH = 256

# An opening quote takes its string whether or not a closing quote follows,
# so each quote is scanned once: an unclosed string costs linear time here
# and is left for json.loads to refuse.
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_NOT_BRACKET = re.compile(r"[^][{}]+")
_BRACKET_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}

_IGNORED_KEYS = {"comment", "name", "description"}


def _fail(path: str, message: str):
    raise SpecError(message, path=path)


def _as_dict(obj, path: str, allowed: set[str]) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed and key not in _IGNORED_KEYS:
            _fail(path, f"unknown key {key!r}")
    return obj


def _as_int(obj, path: str) -> int:
    if not _is_int(obj):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _parse_value(entry, path: str) -> int:
    """One table/matrix entry: JSON integer, or string of hex digits."""
    if isinstance(entry, bool):
        _fail(path, "expected a number or hex string, got a boolean")
    if isinstance(entry, int):
        if entry < 0:
            _fail(path, "value is negative")
        return entry
    if isinstance(entry, str):
        try:
            return int(entry, 16)
        except ValueError:
            _fail(path, f"not a hex value: {entry!r}")
    _fail(path, f"expected a number or hex string, got {type(entry).__name__}")


def _parse_values(entry, path: str) -> list[int]:
    if isinstance(entry, str):
        parts = entry.replace(",", " ").split()
        if not parts:
            _fail(path, "empty table string")
        return [_parse_value(p, path) for p in parts]
    if isinstance(entry, list):
        return [_parse_value(v, f"{path}[{i}]") for i, v in enumerate(entry)]
    _fail(path, f"expected a list or string, got {type(entry).__name__}")


def _parse_brick(entry, m: int, path: str) -> SBox:
    if isinstance(entry, str) and entry in presets.BUILTIN_BRICKS:
        try:
            box = presets.BUILTIN_BRICKS[entry](m)
        except ValueError as exc:
            _fail(path, str(exc))
        if box.m != m:
            _fail(path, f"the {entry} brick is {box.m}-bit, layout has m={m}")
        return box
    if isinstance(entry, str) and " " not in entry and "," not in entry \
            and len(entry) > 4:
        # Looks like a (misspelled) name rather than a table.
        _fail(path, f"unknown brick {entry!r}; builtins: "
                    f"{', '.join(presets.BUILTIN_BRICKS)}")
    values = _parse_values(entry, path)
    if len(values) != 1 << m:
        _fail(path, f"table has {len(values)} entries, layout needs {1 << m}")
    try:
        return SBox(tuple(values))
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_layer(entry, layout: BrickLayout, path: str) -> MixingLayer:
    if isinstance(entry, str):
        if entry not in presets.BUILTIN_LAYERS:
            _fail(path, f"unknown layer {entry!r}; builtins: "
                        f"{', '.join(presets.BUILTIN_LAYERS)}")
        layer = presets.BUILTIN_LAYERS[entry](layout.m, layout.b)
        if layer.layout != layout:
            _fail(path, f"{entry} needs layout m={layer.layout.m}, "
                        f"b={layer.layout.b}")
        return layer
    if isinstance(entry, dict):
        obj = _as_dict(entry, path, {"name", "seed"})
        name = obj.get("name")
        if name != "random_strongly_proper":
            _fail(f"{path}.name",
                  "only 'random_strongly_proper' takes parameters")
        seed = _as_int(obj.get("seed", 0), f"{path}.seed")
        return presets.find_strongly_proper_layer(layout, seed=seed)
    rows = _parse_values(entry, path)
    if len(rows) != layout.d:
        _fail(path, f"matrix has {len(rows)} rows, layout needs {layout.d}")
    top = 1 << layout.d
    for i, row in enumerate(rows):
        if row >= top:
            _fail(f"{path}[{i}]", f"row value {row:#x} exceeds {layout.d} bits")
    try:
        return MixingLayer(BitMatrix(tuple(rows), layout.d), layout)
    except SingularMatrixError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_once(seen: dict, parse, entry, *args):
    """``parse(entry, *args)``, kept in ``seen`` for a string entry: SBox and
    MixingLayer are frozen, and a failing entry raises at its first use."""
    if isinstance(entry, str):
        if (parse, entry) not in seen:
            seen[parse, entry] = parse(entry, *args)
        return seen[parse, entry]
    return parse(entry, *args)


def _parse_layout(obj, path: str) -> BrickLayout:
    lay = _as_dict(obj, path, {"m", "b"})
    if "m" not in lay or "b" not in lay:
        _fail(path, "needs both 'm' and 'b'")
    m = _as_int(lay["m"], f"{path}.m")
    b = _as_int(lay["b"], f"{path}.b")
    try:
        return BrickLayout(m, b)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_cipher(obj) -> TbCipher:
    """Build a cipher from a parsed JSON object."""
    top = _as_dict(obj, "$", {"layout", "rounds"})
    if "layout" not in top:
        _fail("$", "missing 'layout'")
    layout = _parse_layout(top["layout"], "$.layout")
    rounds_obj = top.get("rounds")
    if not isinstance(rounds_obj, list) or not rounds_obj:
        _fail("$.rounds", "expected a nonempty list of rounds")
    rounds = []
    seen: dict = {}
    for h, robj in enumerate(rounds_obj):
        rpath = f"$.rounds[{h}]"
        rdict = _as_dict(robj, rpath, {"bricks", "layer"})
        if "bricks" not in rdict or "layer" not in rdict:
            _fail(rpath, "each round needs 'bricks' and 'layer'")
        braw = rdict["bricks"]
        bpath = f"{rpath}.bricks"
        # A bare string or a flat list of numbers is one brick, replicated;
        # a list of strings/lists is one entry per brick.
        if isinstance(braw, list) and braw and all(
                isinstance(v, (str, list)) for v in braw):
            entries = braw
        else:
            entries = [braw] * layout.b
        if len(entries) != layout.b:
            _fail(bpath, f"round has {len(entries)} bricks, layout needs "
                         f"{layout.b}")
        bricks = tuple(
            _parse_once(seen, _parse_brick, e, layout.m, f"{bpath}[{i}]")
            for i, e in enumerate(entries))
        layer = _parse_once(seen, _parse_layer, rdict["layer"], layout,
                            f"{rpath}.layer")
        rounds.append(Round(bricks, layer))
    return TbCipher(tuple(rounds))


def _nesting_depth(text: str) -> int:
    """The most arrays and objects open at once in JSON text.  Strings are
    cut out first, since a bracket inside one opens nothing, then all but
    the brackets; the running count over those is taken by C iterators, not
    a Python loop."""
    brackets = _NOT_BRACKET.sub("", _JSON_STRING.sub("", text))
    return max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)),
               default=0)


def _read_text(path: str | Path) -> str:
    """The text of a file given to the program; a file that cannot be read
    or decoded as UTF-8, or is larger than MAX_JSON_BYTES, is a SpecError.
    No more than one byte past the bound is read."""
    p = Path(path)
    try:
        with p.open("rb") as f:
            data = f.read(MAX_JSON_BYTES + 1)
    except OSError as exc:
        raise SpecError(f"cannot read {p}: {exc.strerror}")
    if len(data) > MAX_JSON_BYTES:
        raise SpecError(f"file larger than {MAX_JSON_BYTES} bytes",
                        path=str(p))
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise SpecError(f"not UTF-8: byte {data[exc.start]:#04x} at offset "
                        f"{exc.start}", path=str(p))


def read_json(path: str | Path) -> Any:
    """Read a JSON file given to the program (a spec or a report) by
    ``_read_text``; a file that cannot be parsed or nests deeper than
    MAX_JSON_DEPTH is a SpecError too.  Both bounds are checked before the
    parser runs, so the answer does not depend on the caller's stack
    depth."""
    p = Path(path)
    text = _read_text(p)
    if _nesting_depth(text) > MAX_JSON_DEPTH:
        raise SpecError(f"JSON nested too deeply (more than "
                        f"{MAX_JSON_DEPTH} levels)", path=str(p))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}", path=str(p))
    except RecursionError:
        raise SpecError("JSON nested too deeply", path=str(p))


def load_cipher(path: str | Path) -> TbCipher:
    """Read and validate a cipher description file."""
    return parse_cipher(read_json(path))


def cipher_to_spec(cipher: TbCipher) -> dict:
    """Explicit JSON object for a cipher (tables and matrix rows in hex)."""
    layout = cipher.layout
    rounds = []
    for rnd in cipher.rounds:
        rounds.append({
            "bricks": [" ".join(format(v, "x") for v in box.table)
                       for box in rnd.bricks],
            "layer": [format(row, "x") for row in rnd.layer.matrix.rows],
        })
    return {"layout": {"m": layout.m, "b": layout.b}, "rounds": rounds}
