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
"""

from __future__ import annotations

import json
from pathlib import Path

from . import presets
from .cipher import Round, TbCipher
from .errors import SingularMatrixError, SpecError
from .gf2 import BitMatrix, BrickLayout
from .mixing import MixingLayer
from .sbox import SBox

__all__ = ["load_cipher", "parse_cipher", "cipher_to_spec",
           "BRICK_BUILTINS", "LAYER_BUILTINS"]

BRICK_BUILTINS = ("inverse_gf2m", "present", "identity")
LAYER_BUILTINS = ("rotation", "identity", "aes_shift_rows",
                  "aes_mix_columns", "aes_sr_mc")

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
    if isinstance(obj, bool) or not isinstance(obj, int):
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
    if isinstance(entry, str) and entry in BRICK_BUILTINS:
        if entry == "present":
            if m != 4:
                _fail(path, f"the present brick is 4-bit, layout has m={m}")
            return presets.present_sbox()
        if entry == "identity":
            return presets.identity_sbox(m)
        try:
            return presets.inversion_sbox(m)
        except ValueError as exc:
            _fail(path, str(exc))
    if isinstance(entry, str) and " " not in entry and "," not in entry \
            and len(entry) > 4:
        # Looks like a (misspelled) name rather than a table.
        _fail(path, f"unknown brick {entry!r}; builtins: "
                    f"{', '.join(BRICK_BUILTINS)}")
    values = _parse_values(entry, path)
    if len(values) != 1 << m:
        _fail(path, f"table has {len(values)} entries, layout needs {1 << m}")
    try:
        return SBox(tuple(values))
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_layer(entry, layout: BrickLayout, path: str) -> MixingLayer:
    if isinstance(entry, str):
        if entry == "rotation":
            return presets.rotation_layer(layout)
        if entry == "identity":
            return presets.identity_layer(layout)
        if entry in ("aes_shift_rows", "aes_mix_columns", "aes_sr_mc"):
            if (layout.m, layout.b) != (8, 16):
                _fail(path, f"{entry} needs layout m=8, b=16")
            if entry == "aes_shift_rows":
                return presets.aes_shift_rows_layer()
            if entry == "aes_mix_columns":
                return presets.aes_mix_columns_layer()
            return presets.aes_sr_mc_layer()
        _fail(path, f"unknown layer {entry!r}; builtins: "
                    f"{', '.join(LAYER_BUILTINS)}")
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


def parse_cipher(obj) -> TbCipher:
    """Build a cipher from a parsed JSON object."""
    top = _as_dict(obj, "$", {"layout", "rounds"})
    if "layout" not in top:
        _fail("$", "missing 'layout'")
    lay = _as_dict(top["layout"], "$.layout", {"m", "b"})
    if "m" not in lay or "b" not in lay:
        _fail("$.layout", "needs both 'm' and 'b'")
    m = _as_int(lay["m"], "$.layout.m")
    b = _as_int(lay["b"], "$.layout.b")
    try:
        layout = BrickLayout(m, b)
    except ValueError as exc:
        _fail("$.layout", str(exc))
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


def load_cipher(path: str | Path) -> TbCipher:
    """Read and validate a cipher description file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {p}: {exc.strerror}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}", path=str(p))
    return parse_cipher(obj)


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
