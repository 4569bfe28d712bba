"""Standard building blocks: field inversion boxes, the PRESENT S-box,
rotation and AES-shaped mixing layers, and a seeded search for strongly
proper layers used by the toy ciphers.
"""

from __future__ import annotations

import random

from .gf2 import BitMatrix, BrickLayout, random_invertible
from .mixing import MixingLayer, is_strongly_proper
from .sbox import SBox, _check_width

__all__ = [
    "GF2_MODULI",
    "PRESENT_SBOX",
    "gf_mul",
    "gf_inv",
    "inversion_sbox",
    "present_sbox",
    "identity_sbox",
    "identity_layer",
    "rotation_layer",
    "aes_layout",
    "aes_shift_rows_layer",
    "aes_mix_columns_layer",
    "aes_sr_mc_layer",
    "find_strongly_proper_layer",
]

# Irreducible moduli for the binary fields we build inversion boxes over.
# m=8 is the AES modulus x^8+x^4+x^3+x+1.
GF2_MODULI: dict[int, int] = {
    2: 0b111,          # x^2+x+1
    3: 0b1011,         # x^3+x+1
    4: 0b10011,        # x^4+x+1
    5: 0b100101,       # x^5+x^2+1
    6: 0b1000011,      # x^6+x+1
    8: 0x11B,
}

PRESENT_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
                0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)


def gf_mul(a: int, b: int, modulus: int, m: int) -> int:
    """Carry-less multiply mod an irreducible polynomial of degree m."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return acc


def gf_inv(a: int, modulus: int, m: int) -> int:
    """Multiplicative inverse via a^(2^m - 2); gf_inv(0) = 0."""
    result = 1 if a else 0
    base = a
    e = (1 << m) - 2
    while e:
        if e & 1:
            result = gf_mul(result, base, modulus, m)
        base = gf_mul(base, base, modulus, m)
        e >>= 1
    return result


def inversion_sbox(m: int) -> SBox:
    modulus = GF2_MODULI.get(m)
    if modulus is None:
        raise ValueError(
            f"no modulus registered for m={m}; known: {sorted(GF2_MODULI)}")
    return SBox(tuple(gf_inv(x, modulus, m) for x in range(1 << m)))


def present_sbox() -> SBox:
    return SBox(PRESENT_SBOX)


def identity_sbox(m: int) -> SBox:
    _check_width(m)
    return SBox(tuple(range(1 << m)))


def identity_layer(layout: BrickLayout) -> MixingLayer:
    d = layout.d
    return MixingLayer(BitMatrix(tuple(1 << i for i in range(d)), d), layout)


def rotation_layer(layout: BrickLayout) -> MixingLayer:
    """Brick-circulant permutation layer: brick i moves to brick i+1 (mod b).

    Proper (no wall is invariant) but maps every wall to a wall, so never
    strongly proper.
    """
    m, b, d = layout.m, layout.b, layout.d
    rows = []
    for i in range(b):
        for j in range(m):
            rows.append(1 << ((((i + 1) % b) * m) + j))
    return MixingLayer(BitMatrix(tuple(rows), d), layout)


def aes_layout() -> BrickLayout:
    return BrickLayout(8, 16)


def _aes_brick(r: int, c: int) -> int:
    """0-based brick index of state byte (row r, column c), rows listed
    first: bricks 1..4 are the first state row."""
    return 4 * r + c


def aes_shift_rows_layer() -> MixingLayer:
    """ShiftRows as a 128-bit permutation matrix: state row r rotates left
    by r, so the byte at (r, c) lands at (r, c - r mod 4)."""
    layout = aes_layout()
    rows = [0] * 128
    for r in range(4):
        for c in range(4):
            src = _aes_brick(r, c)
            dst = _aes_brick(r, (c - r) % 4)
            for j in range(8):
                rows[8 * src + j] = 1 << (8 * dst + j)
    return MixingLayer(BitMatrix(tuple(rows), 128), layout)


_MC_COEFFS = ((2, 3, 1, 1),
              (1, 2, 3, 1),
              (1, 1, 2, 3),
              (3, 1, 1, 2))


def aes_mix_columns_layer() -> MixingLayer:
    """MixColumns as a 128-bit matrix: each state column is multiplied by the
    circulant (2 3 1 1) matrix over GF(2^8)."""
    layout = aes_layout()
    rows = [0] * 128
    for c in range(4):
        for r in range(4):
            src = _aes_brick(r, c)
            for j in range(8):
                acc = 0
                for r_out in range(4):
                    coeff = _MC_COEFFS[r_out][r]
                    byte = gf_mul(coeff, 1 << j, 0x11B, 8)
                    acc |= byte << (8 * _aes_brick(r_out, c))
                rows[8 * src + j] = acc
    return MixingLayer(BitMatrix(tuple(rows), 128), layout)


def aes_sr_mc_layer() -> MixingLayer:
    """The combined ShiftRows-then-MixColumns linear layer."""
    sr = aes_shift_rows_layer()
    mc = aes_mix_columns_layer()
    return MixingLayer(sr.matrix.mul(mc.matrix), aes_layout())


def find_strongly_proper_layer(layout: BrickLayout, seed: int = 0) -> MixingLayer:
    """First strongly proper layer along a seeded stream of random invertible
    matrices.  Deterministic for a given seed, so callers can treat the
    result as a fixed constant."""
    rng = random.Random(seed)
    while True:
        layer = MixingLayer(random_invertible(rng, layout.d), layout)
        ok, _ = is_strongly_proper(layer)
        if ok:
            return layer
