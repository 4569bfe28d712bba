"""JSON cipher descriptions: parsing, validation paths, and round-tripping."""

import json
from pathlib import Path

import pytest

from tbaudit.cipher import (build_linear_toy_cipher,
                            build_present_toy_cipher, build_rotation_cipher)
from tbaudit.errors import SingularMatrixError, SpecError
from tbaudit.presets import present_sbox, inversion_sbox
from tbaudit.specfile import (BRICK_BUILTINS, LAYER_BUILTINS, cipher_to_spec,
                              load_cipher, parse_cipher)

SPEC_DIR = Path(__file__).parent.parent / "specs"


def minimal_spec(**overrides):
    obj = {
        "layout": {"m": 3, "b": 2},
        "rounds": [{"bricks": "inverse_gf2m", "layer": "rotation"}],
    }
    obj.update(overrides)
    return obj


def ciphers_equal(a, b):
    if a.layout != b.layout or a.ell != b.ell:
        return False
    for ra, rb in zip(a.rounds, b.rounds):
        if [x.table for x in ra.bricks] != [x.table for x in rb.bricks]:
            return False
        if ra.layer.matrix.rows != rb.layer.matrix.rows:
            return False
    return True


# ---------------------------------------------------------------------------
# The bundled description files match the programmatic builders.


def test_bundled_weak_rotation_specs():
    assert ciphers_equal(load_cipher(SPEC_DIR / "weak_rotation_m3b3_l3.json"),
                         build_rotation_cipher(3, 3, 3))
    assert ciphers_equal(load_cipher(SPEC_DIR / "weak_rotation_m3b3_l4.json"),
                         build_rotation_cipher(3, 3, 4))


def test_bundled_present_toy_spec():
    assert ciphers_equal(load_cipher(SPEC_DIR / "toy_present_m4b2_l3.json"),
                         build_present_toy_cipher(3))


def test_bundled_linear_bricks_spec():
    assert ciphers_equal(load_cipher(SPEC_DIR / "linear_bricks_m3b2_l2.json"),
                         build_linear_toy_cipher(2))


# ---------------------------------------------------------------------------
# Parsing shapes.


def test_single_brick_name_is_replicated():
    cipher = parse_cipher(minimal_spec())
    assert len(cipher.rounds[0].bricks) == 2
    assert cipher.rounds[0].bricks[0].table == inversion_sbox(3).table
    assert cipher.rounds[0].bricks[1].table == inversion_sbox(3).table


def test_repeated_string_entries_are_parsed_once_per_spec():
    obj = minimal_spec()
    obj["rounds"] *= 3
    cipher = parse_cipher(obj)
    bricks = [box for rnd in cipher.rounds for box in rnd.bricks]
    assert all(box is bricks[0] for box in bricks)
    assert all(rnd.layer is cipher.rounds[0].layer for rnd in cipher.rounds)
    # a separate parse builds its own objects
    assert parse_cipher(obj).rounds[0].layer is not cipher.rounds[0].layer


def test_per_brick_lists():
    obj = minimal_spec()
    obj["rounds"][0]["bricks"] = ["identity", "0 1 2 3 4 5 7 6"]
    cipher = parse_cipher(obj)
    assert cipher.rounds[0].bricks[0].table == tuple(range(8))
    assert cipher.rounds[0].bricks[1].table == (0, 1, 2, 3, 4, 5, 7, 6)


def test_flat_number_list_is_one_replicated_table():
    obj = minimal_spec()
    obj["rounds"][0]["bricks"] = [0, 1, 2, 3, 4, 5, 7, 6]
    cipher = parse_cipher(obj)
    assert all(b.table == (0, 1, 2, 3, 4, 5, 7, 6)
               for b in cipher.rounds[0].bricks)


def test_hex_string_table_with_commas():
    obj = minimal_spec()
    obj["rounds"][0]["bricks"] = "0, 1, 2, 3, 4, 5, 7, 6"
    cipher = parse_cipher(obj)
    assert cipher.rounds[0].bricks[0].table == (0, 1, 2, 3, 4, 5, 7, 6)


def test_hex_values_are_base_16():
    obj = minimal_spec(layout={"m": 4, "b": 2})
    obj["rounds"][0]["bricks"] = "0 1 2 3 4 5 6 7 8 9 a b c d e f"
    cipher = parse_cipher(obj)
    assert cipher.rounds[0].bricks[0].table == tuple(range(16))


def test_explicit_matrix_layer():
    obj = minimal_spec()
    obj["rounds"][0]["layer"] = ["8", "4", "2", "1", "20", "10"]
    cipher = parse_cipher(obj)
    assert cipher.rounds[0].layer.matrix.rows == (8, 4, 2, 1, 0x20, 0x10)


def test_seeded_layer_object():
    obj = minimal_spec()
    obj["rounds"][0]["layer"] = {"name": "random_strongly_proper", "seed": 0}
    cipher = parse_cipher(obj)
    from tbaudit.presets import find_strongly_proper_layer
    want = find_strongly_proper_layer(cipher.layout, seed=0)
    assert cipher.rounds[0].layer.matrix.rows == want.matrix.rows


def test_comment_keys_are_ignored():
    obj = minimal_spec(comment="x", name="y", description="z")
    obj["rounds"][0]["comment"] = "per-round note"
    parse_cipher(obj)


def test_builtin_lists_are_stable():
    assert BRICK_BUILTINS == ("inverse_gf2m", "present", "identity")
    assert set(LAYER_BUILTINS) == {
        "rotation", "identity", "aes_shift_rows", "aes_mix_columns",
        "aes_sr_mc"}


# ---------------------------------------------------------------------------
# Error paths, each carrying the JSON path of the offender.


@pytest.mark.parametrize("mutate,path_fragment,msg_fragment", [
    (lambda o: o.pop("layout"), "$", "missing 'layout'"),
    (lambda o: o.update(layout=[3, 2]), "$.layout", "expected an object"),
    (lambda o: o.update(layout={"m": 3}), "$.layout", "needs both"),
    (lambda o: o.update(layout={"m": 3.5, "b": 2}), "$.layout.m",
     "expected an integer"),
    (lambda o: o.update(layout={"m": True, "b": 2}), "$.layout.m",
     "expected an integer"),
    (lambda o: o.update(layout={"m": 1, "b": 2}), "$.layout", ""),
    (lambda o: o.update(rounds=[]), "$.rounds", "nonempty"),
    (lambda o: o.update(rounds="x"), "$.rounds", "nonempty"),
    (lambda o: o.update(extra=1), "$", "unknown key"),
    (lambda o: o["rounds"][0].pop("layer"), "$.rounds[0]",
     "needs 'bricks' and 'layer'"),
    (lambda o: o["rounds"][0].update(bricks="presnt"),
     "$.rounds[0].bricks[0]", "unknown brick"),
    (lambda o: o["rounds"][0].update(bricks="0 1 2 3"),
     "$.rounds[0].bricks[0]", "table has 4 entries"),
    (lambda o: o["rounds"][0].update(bricks="0 1 2 3 4 5 6 6"),
     "$.rounds[0].bricks[0]", ""),
    (lambda o: o["rounds"][0].update(bricks=["identity"] * 3),
     "$.rounds[0].bricks", "3 bricks"),
    (lambda o: o["rounds"][0].update(bricks=[0, 1, "zz", 3, 4, 5, 6, 7]),
     "$.rounds[0].bricks[0][2]", "not a hex value"),
    (lambda o: o["rounds"][0].update(bricks=[-1, 1, 2, 3, 4, 5, 6, 7]),
     "$.rounds[0].bricks[0][0]", "negative"),
    (lambda o: o["rounds"][0].update(layer="spiral"), "$.rounds[0].layer",
     "unknown layer"),
    (lambda o: o["rounds"][0].update(layer=["1", "2"]), "$.rounds[0].layer",
     "2 rows"),
    (lambda o: o["rounds"][0].update(layer=["20", "2", "4", "8", "10", "60"]),
     "$.rounds[0].layer[5]", "exceeds 6 bits"),
    (lambda o: o["rounds"][0].update(layer={"name": "rotation"}),
     "$.rounds[0].layer.name", "random_strongly_proper"),
    (lambda o: o["rounds"][0].update(
        layer={"name": "random_strongly_proper", "seed": "x"}),
     "$.rounds[0].layer.seed", "expected an integer"),
    (lambda o: o["rounds"][0].update(layer=True), "$.rounds[0].layer",
     "expected a list or string"),
])
def test_spec_error_paths(mutate, path_fragment, msg_fragment):
    obj = minimal_spec()
    mutate(obj)
    with pytest.raises(SpecError) as exc:
        parse_cipher(obj)
    assert exc.value.path == path_fragment
    assert msg_fragment in str(exc.value)


def test_present_brick_needs_m4():
    obj = minimal_spec()
    obj["rounds"][0]["bricks"] = "present"
    with pytest.raises(SpecError, match="4-bit"):
        parse_cipher(obj)


def test_aes_layers_need_aes_layout():
    obj = minimal_spec()
    obj["rounds"][0]["layer"] = "aes_sr_mc"
    with pytest.raises(SpecError, match="m=8, b=16"):
        parse_cipher(obj)


def test_inversion_brick_needs_known_modulus():
    obj = minimal_spec(layout={"m": 7, "b": 2})
    with pytest.raises(SpecError) as exc:
        parse_cipher(obj)
    assert exc.value.path == "$.rounds[0].bricks[0]"


def test_singular_matrix_layer():
    obj = minimal_spec()
    obj["rounds"][0]["layer"] = ["1", "1", "2", "4", "8", "10"]
    with pytest.raises(SingularMatrixError):
        parse_cipher(obj)


def test_load_missing_file(tmp_path):
    with pytest.raises(SpecError, match="cannot read"):
        load_cipher(tmp_path / "nope.json")


def test_load_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"layout": {\n  "m": 3,,\n}}')
    with pytest.raises(SpecError, match="line 2"):
        load_cipher(p)


# ---------------------------------------------------------------------------
# Round trip.


def test_cipher_to_spec_roundtrip(tmp_path):
    cipher = build_present_toy_cipher(2)
    obj = cipher_to_spec(cipher)
    p = tmp_path / "rt.json"
    p.write_text(json.dumps(obj))
    again = load_cipher(p)
    assert ciphers_equal(cipher, again)
    # tables serialize in hex
    assert obj["rounds"][0]["bricks"][0].split()[0] == format(
        present_sbox().table[0], "x")
