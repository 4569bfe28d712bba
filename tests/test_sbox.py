"""S-box measurements against dict-and-set brute force."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tbaudit.sbox as sbox_mod
from tbaudit.errors import CapExceeded
from tbaudit.gf2 import Subspace, enumerate_subspaces, gaussian_binomial
from tbaudit.presets import identity_sbox, inversion_sbox, present_sbox
from tbaudit.sbox import (ANTI_INVARIANCE_BUDGET, SBox, _violation_scan,
                          analyze_sbox,
                          anti_invariance_order, anti_invariance_scan_cost,
                          ddt, differential_uniformity, has_linear_component,
                          is_strongly_anti_invariant, meets_min_image_bound,
                          min_derivative_image, nonlinearity,
                          walsh_row_extrema)

from oracles import (brute_anti_invariance_order,
                     brute_anti_invariance_violations, brute_linear_components,
                     brute_min_derivative_image, brute_nonlinearity,
                     brute_uniformity, image_span_rows,
                     scalar_violation_scan)

INV4 = inversion_sbox(4)
INV5 = inversion_sbox(5)
PRESENT = present_sbox()

# delta=6, min image 5, anti-invariance order 1: the uniformity route would
# demand strong 2-anti-invariance and fail, while the measured min image
# already supports exponent r=2, which only needs order 1.
SPLIT_ROUTE_TABLE = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)


def random_box(seed, m=4):
    t = list(range(1 << m))
    random.Random(seed).shuffle(t)
    return SBox(tuple(t))


perm_strategy = st.permutations(list(range(8)))


# ---------------------------------------------------------------------------
# Construction.


def test_sbox_validation():
    with pytest.raises(ValueError, match="bijection"):
        SBox((0, 0, 1, 2))
    with pytest.raises(ValueError, match="outside"):
        SBox((0, 1, 2, 9))
    with pytest.raises(ValueError, match="power of two"):
        SBox((0, 1, 2))
    with pytest.raises(ValueError, match="power of two"):
        SBox((0, 1))
    with pytest.raises(ValueError, match="exceeds"):
        SBox(tuple(range(1 << 13)))


@given(perm_strategy)
def test_normalization_and_inverse(perm):
    box = SBox(tuple(perm))
    assert box.m == 3
    assert box.shift == perm[0]
    norm = box.normalized()
    assert norm[0] == 0
    assert sorted(norm) == list(range(8))
    inv = box.inverse_table()
    assert all(inv[box.table[x]] == x for x in range(8))


# ---------------------------------------------------------------------------
# Difference distribution.


@given(perm_strategy)
def test_ddt_counts_match_brute_force(perm):
    box = SBox(tuple(perm))
    table = ddt(box)
    from oracles import brute_ddt

    counts = brute_ddt(perm)
    for a in range(8):
        for v in range(8):
            assert table.counts[a][v] == counts.get((a, v), 0)
    assert (table.counts.sum(axis=1) == 8).all()
    assert table.counts[0][0] == 8


@pytest.mark.parametrize("box", [INV4, PRESENT, identity_sbox(4),
                                 SBox(SPLIT_ROUTE_TABLE),
                                 random_box(11), random_box(12)])
def test_uniformity_and_min_image_match_brute_force(box):
    assert differential_uniformity(box) == brute_uniformity(box.table)
    size, _ = brute_min_derivative_image(box.table)
    mini = min_derivative_image(box)
    assert mini.size == size
    # the reported u must actually attain the minimum
    n = 1 << box.m
    image = {box.table[x ^ mini.u] ^ box.table[x] for x in range(n)}
    assert len(image) == size


def test_named_box_measurements():
    assert differential_uniformity(INV4) == 4
    assert min_derivative_image(INV4) == (7, 1)
    assert differential_uniformity(INV5) == 2
    assert differential_uniformity(PRESENT) == 4
    assert differential_uniformity(identity_sbox(4)) == 16
    assert min_derivative_image(identity_sbox(4)).size == 1


def test_min_image_bound_definition():
    # inv4 min image is 7: strictly above 2^(4-r) exactly for r >= 2
    assert not meets_min_image_bound(INV4, 1)
    assert meets_min_image_bound(INV4, 2)
    assert meets_min_image_bound(INV4, 4)
    with pytest.raises(ValueError):
        meets_min_image_bound(INV4, 0)
    with pytest.raises(ValueError):
        meets_min_image_bound(INV4, 5)


# ---------------------------------------------------------------------------
# Walsh spectrum.


@given(perm_strategy)
def test_walsh_extrema_match_direct_sums(perm):
    box = SBox(tuple(perm))
    norm = box.normalized()
    extrema = walsh_row_extrema(box)
    for c in range(8):
        best = 0
        for a in range(8):
            total = sum(
                -1 if (bin(c & norm[x]).count("1")
                       + bin(a & x).count("1")) & 1 else 1
                for x in range(8))
            best = max(best, abs(total))
        assert extrema[c] == best
    assert extrema[0] == 8


@pytest.mark.parametrize("box,expected", [
    (INV4, 4), (PRESENT, 4), (identity_sbox(4), 0)])
def test_nonlinearity_known_values(box, expected):
    assert nonlinearity(box) == expected
    assert nonlinearity(box) == brute_nonlinearity(box.table)


@pytest.mark.parametrize("seed", range(6))
def test_linear_components_match_brute_force(seed):
    box = random_box(seed)
    has, mask = has_linear_component(box)
    brute = brute_linear_components(box.table)
    assert has == bool(brute)
    if has:
        assert mask == brute[0]


def test_linear_components_named():
    assert has_linear_component(INV4) == (False, None)
    assert has_linear_component(PRESENT) == (False, None)
    assert has_linear_component(identity_sbox(4)) == (True, 1)
    assert has_linear_component(inversion_sbox(2)) == (True, 1)


@given(perm_strategy)
def test_measurements_ignore_the_output_shift(perm):
    box = SBox(tuple(perm))
    shifted = SBox(tuple(v ^ 5 for v in perm))
    assert differential_uniformity(box) == differential_uniformity(shifted)
    assert nonlinearity(box) == nonlinearity(shifted)
    assert (anti_invariance_order(box)
            == anti_invariance_order(shifted))


# ---------------------------------------------------------------------------
# Anti-invariance.


def test_scan_cost_is_the_subspace_count():
    for m in (3, 4, 5):
        for r in range(1, m):
            assert anti_invariance_scan_cost(m, r) == sum(
                gaussian_binomial(m, k) for k in range(m - r, m))
    assert anti_invariance_scan_cost(10, 3) == 6522989


@pytest.mark.parametrize("box", [INV4, PRESENT, identity_sbox(4),
                                 SBox(SPLIT_ROUTE_TABLE),
                                 random_box(21), random_box(22)])
def test_anti_invariance_matches_subspace_brute_force(box):
    m = box.m
    for r in range(1, m):
        ok, pair = is_strongly_anti_invariant(box, r)
        violations = brute_anti_invariance_violations(box.table, r)
        assert ok == (not violations)
        if not ok:
            u, w = pair
            norm = box.normalized()
            assert {norm[x] for x in u.elements()} == set(w.elements())
            assert (frozenset(u.elements()), frozenset(w.elements())) \
                in violations
    assert anti_invariance_order(box) == brute_anti_invariance_order(box.table)


def test_inversion_subfield_is_the_order_witness():
    ok, pair = is_strongly_anti_invariant(INV4, 2)
    assert not ok
    u, w = pair
    assert u == Subspace((1, 6), 4)
    assert w == u  # the F_4 subfield maps onto itself
    assert is_strongly_anti_invariant(INV4, 1) == (True, None)
    assert anti_invariance_order(INV4) == 1
    assert anti_invariance_order(INV5) == 3
    assert anti_invariance_order(identity_sbox(4)) == 0
    # F_64 contains F_8 as a 3-dimensional subfield fixed by inversion
    assert anti_invariance_order(inversion_sbox(6)) == 2


def test_anti_invariance_r_range():
    with pytest.raises(ValueError):
        is_strongly_anti_invariant(INV4, 0)
    with pytest.raises(ValueError):
        is_strongly_anti_invariant(INV4, 4)
    with pytest.raises(ValueError):
        anti_invariance_order(INV4, max_r=0)


def test_budget_refusal_carries_the_cost():
    with pytest.raises(CapExceeded) as exc:
        is_strongly_anti_invariant(INV5, 4, budget=3)
    assert exc.value.estimate > 3
    assert exc.value.limit == 3
    # the whole scan's cost is checked up front, even though the identity's
    # first violation (dim 4, 31 subspaces) lies within the budget
    with pytest.raises(CapExceeded) as exc:
        is_strongly_anti_invariant(identity_sbox(5), 2, budget=31)
    assert exc.value.estimate == anti_invariance_scan_cost(5, 2)
    assert exc.value.limit == 31


def test_order_is_capped_by_max_r():
    # inv5 is strongly 3-anti-invariant; a shallow scan certifies less
    assert anti_invariance_order(INV5, max_r=2) == 2
    assert anti_invariance_order(INV5, max_r=1) == 1


def half_identity_box(seed, m):
    """Identity on the low m//2 bits, a seeded permutation on the rest."""
    h = m // 2
    g = list(range(1 << (m - h)))
    random.Random(seed).shuffle(g)
    low = (1 << h) - 1
    return SBox(tuple((x & low) | g[x >> h] << h for x in range(1 << m)))


def _scan_or_refusal(scan, box, k_lo, budget, refuse):
    try:
        return scan(box.normalized(), box.m, k_lo, budget, refuse)
    except CapExceeded as exc:
        return ("refused", str(exc), exc.estimate, exc.limit)


def _budget_cases(box):
    # Budgets that run out exactly at a dimension boundary or one short of
    # it, so the scan stops partway: analyze_sbox's lower-bound path when
    # refuse is False.
    m, spent = box.m, 0
    for k in range(m - 1, 1, -1):
        spent += gaussian_binomial(m, k)
        for budget in (spent - 1, spent):
            for refuse in (True, False):
                yield 1, budget, refuse


def _oracle_scan_cases():
    boxes = [present_sbox()]
    for m in range(3, 8):
        boxes += [random_box(40 + m, m), identity_sbox(m),
                  half_identity_box(m, m)]
        if m <= 6:
            boxes += [random_box(50 + m, m), inversion_sbox(m)]
    for box in boxes:
        for k_lo in range(1, box.m):
            yield box, k_lo, ANTI_INVARIANCE_BUDGET, True
        if box.m <= 6:
            for case in _budget_cases(box):
                yield (box, *case)
    # A handful at m = 8, where the oracle takes about half a second a scan.
    yield random_box(1, 8), 5, ANTI_INVARIANCE_BUDGET, True
    yield inversion_sbox(8), 1, ANTI_INVARIANCE_BUDGET, True
    yield half_identity_box(8, 8), 1, ANTI_INVARIANCE_BUDGET, True
    # clean through dims 7..5, then out of budget at dim 4
    yield random_box(2, 8), 1, anti_invariance_scan_cost(8, 3), False


def test_violation_scan_matches_the_scalar_oracle():
    # The retired scan took the image-span rank of every subspace; the new
    # one must give the same (k*, pair, k_done), refusals included.
    found = 0
    for box, k_lo, budget, refuse in _oracle_scan_cases():
        got = _scan_or_refusal(_violation_scan, box, k_lo, budget, refuse)
        want = _scan_or_refusal(scalar_violation_scan, box, k_lo, budget,
                                refuse)
        assert got == want, (box.table, k_lo, budget, refuse)
        found += got[0] not in (None, "refused")
    assert found > 100


@given(st.integers(3, 5).flatmap(
    lambda m: st.permutations(list(range(1 << m)))))
def test_pair_filter_passes_every_violation(perm):
    # If f(U) is a subspace, f^-1(f(a) + f(b)) lies in U for every pair of
    # basis rows a, b: the necessary condition the scan filters on.
    box = SBox(tuple(perm))
    f = box.normalized()
    f_inv = {y: x for x, y in enumerate(f)}
    for k in range(2, box.m):
        for u in enumerate_subspaces(box.m, k):
            if image_span_rows(f, u.basis, k) is None:
                continue
            assert all(f_inv[f[a] ^ f[b]] in u
                       for a, b in combinations(u.basis, 2))


def test_anti_invariance_scan_decides_few_subspaces_by_span(monkeypatch):
    # A random 8-bit brick has delta 10-12, so audit asks for strong
    # 3-anti-invariance: 108,205 subspaces, of which the pair filter leaves
    # 1 for an image-span rank on this box.
    calls = []
    reduced = sbox_mod._reduced_rows
    monkeypatch.setattr(sbox_mod, "_reduced_rows",
                        lambda vectors, limit=None: calls.append(limit)
                        or reduced(vectors, limit=limit))
    box = random_box(1, 8)
    assert anti_invariance_scan_cost(8, 3) == 108_205
    assert is_strongly_anti_invariant(box, 3) == (True, None)
    assert len(calls) <= 8, f"{len(calls)} image-span ranks per brick"
    assert None not in calls, "each rank stops once it exceeds dim U"


# ---------------------------------------------------------------------------
# The combined report.


def test_analyze_sbox_is_consistent_with_the_parts():
    rep = analyze_sbox(INV4)
    assert rep.m == 4
    assert rep.shift == 0
    assert rep.delta == differential_uniformity(INV4)
    assert rep.min_image == min_derivative_image(INV4)
    assert rep.nonlinearity == nonlinearity(INV4)
    assert rep.linear_component is None
    assert rep.anti_invariance_order == 1
    assert rep.order_is_exact
    u, w = rep.violation
    assert u == w == Subspace((1, 6), 4)


def test_analyze_sbox_degrades_to_a_lower_bound_under_budget():
    # scanning dim 4 of a 5-bit box costs gb(5,4)=31; dim 3 adds gb(5,3)=155.
    rep = analyze_sbox(INV5, budget=31)
    assert rep.anti_invariance_order == 1  # dims {4} clean certifies order 1
    assert not rep.order_is_exact
    assert rep.violation is None
    rep = analyze_sbox(INV5, budget=5)
    assert rep.anti_invariance_order is None
    assert not rep.order_is_exact


def test_analyze_sbox_keeps_the_shift():
    shifted = SBox(tuple(v ^ 9 for v in INV4.table))
    rep = analyze_sbox(shifted)
    assert rep.shift == 9
    assert rep.delta == 4


def test_split_route_table_measurements():
    box = SBox(SPLIT_ROUTE_TABLE)
    assert differential_uniformity(box) == 6
    assert min_derivative_image(box).size == 5
    assert anti_invariance_order(box) == 1
