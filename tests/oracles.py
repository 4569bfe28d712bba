"""Independent brute-force reference implementations used as test oracles.

Nothing in here imports tbaudit at module level.  Everything is written the
slow, obvious way: sets of ints for subspaces, dict counting for difference
tables, frozensets of frozensets for partitions.  Tests compare package
output against these.  The one exception is the last section: retired
routes, built on the package's own kernels (imported inside each function),
kept as second routes for the code that replaced them.
"""

from itertools import combinations


# ---------------------------------------------------------------------------
# GF(2) vector spaces, the slow way.


def xor_span(vectors):
    """The span of a list of int-coded vectors, as a set."""
    span = {0}
    for v in vectors:
        span |= {e ^ v for e in span}
    return span


def is_xor_closed(values):
    vals = set(values)
    if 0 not in vals:
        return False
    return all(a ^ b in vals for a in vals for b in vals)


def span_rank(vectors):
    pivots = []
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return len(pivots)


def canonical_rref_bases(d, k):
    """Every k-dim subspace of (F_2)^d as its RREF basis tuple, in the
    package's canonical order, one basis at a time: pivot-column sets
    lexicographically; within a set, the free entries (row i, column c right
    of row i's pivot and not a pivot column) follow a reflected Gray
    sequence, step t flipping the slot of t's lowest set bit."""
    for pivots in combinations(range(d), k):
        rows = [1 << p for p in pivots]
        slots = [(i, c) for i in range(k) for c in range(pivots[i] + 1, d)
                 if c not in pivots]
        yield tuple(rows)
        for t in range(1, 1 << len(slots)):
            i, c = slots[(t & -t).bit_length() - 1]
            rows[i] ^= 1 << c
            yield tuple(rows)


def image_span_rows(table, rows, k):
    """Independent vectors spanning table[U] for U = span(rows), or None as
    soon as more than k are needed.  For an injective table with
    table[0] = 0 and k = dim U, table[U] is a subspace exactly when the rank
    is k."""
    by_pivot = {}
    elems = [0]
    for row in rows:
        new = [e ^ row for e in elems]
        for x in new:
            v = table[x]
            while v and v & -v in by_pivot:
                v ^= by_pivot[v & -v]
            if v:
                if len(by_pivot) == k:
                    return None
                by_pivot[v & -v] = v
        elems += new
    return list(by_pivot.values())


def all_subspaces(d, dims=None):
    """Every subspace of (F_2)^d as a frozenset of elements.

    Grown level by level: each (k+1)-dim subspace is span(S + {v}) for some
    k-dim S and outside vector v, so nothing is missed.  Keep d small.
    """
    if dims is None:
        dims = range(d + 1)
    wanted = set(dims)
    level = {frozenset({0})}
    out = set()
    if 0 in wanted:
        out.add(frozenset({0}))
    for k in range(1, max(wanted) + 1) if wanted else []:
        nxt = set()
        for s in level:
            for v in range(1, 1 << d):
                if v not in s:
                    grown = set(s)
                    grown |= {e ^ v for e in grown}
                    nxt.add(frozenset(grown))
        level = nxt
        if k in wanted:
            out |= level
    return out


def gaussian_recurrence(d, k):
    """[d choose k]_2 via the Pascal-style recurrence, bottom up."""
    if k < 0 or k > d:
        return 0
    table = [[0] * (d + 1) for _ in range(d + 1)]
    for n in range(d + 1):
        table[n][0] = 1
        for j in range(1, n + 1):
            table[n][j] = table[n - 1][j] + (1 << (n - j)) * table[n - 1][j - 1]
    return table[d][k]


def matrix_apply_by_columns(rows, ncols, v):
    """Row-vector action v @ M, computed column by column via dot parities."""
    y = 0
    for j in range(ncols):
        col = 0
        for i, row in enumerate(rows):
            col |= ((row >> j) & 1) << i
        if bin(v & col).count("1") & 1:
            y |= 1 << j
    return y


# ---------------------------------------------------------------------------
# S-box measurements.


def brute_ddt(table):
    n = len(table)
    counts = {}
    for a in range(n):
        for x in range(n):
            key = (a, table[x ^ a] ^ table[x])
            counts[key] = counts.get(key, 0) + 1
    return counts


def brute_uniformity(table):
    counts = brute_ddt(table)
    return max(c for (a, _), c in counts.items() if a != 0)


def brute_min_derivative_image(table):
    n = len(table)
    best = None
    for u in range(1, n):
        image = {table[x ^ u] ^ table[x] for x in range(n)}
        if best is None or len(image) < best[0]:
            best = (len(image), u)
    return best


def brute_linear_components(table):
    """All nonzero masks c with x -> parity(c & f(x)) linear, f normalized."""
    n = len(table)
    norm = [y ^ table[0] for y in table]
    out = []
    for c in range(1, n):
        g = [bin(c & y).count("1") & 1 for y in norm]
        if all(g[x ^ y] == g[x] ^ g[y] for x in range(n) for y in range(n)):
            out.append(c)
    return out


def brute_nonlinearity(table):
    """Min Hamming distance from any nonzero component to any affine function."""
    n = len(table)
    m = n.bit_length() - 1
    best = n
    for c in range(1, n):
        g = [bin(c & table[x]).count("1") & 1 for x in range(n)]
        for a in range(n):
            for b in (0, 1):
                dist = sum(
                    g[x] != ((bin(a & x).count("1") & 1) ^ b) for x in range(n))
                best = min(best, dist)
    return best


def brute_anti_invariance_violations(table, r):
    """All (U, f(U)) pairs with dim(U) in [m-r, m-1] and f(U) a subspace.

    U and the image are returned as element frozensets; f is normalized
    before checking, matching how the package defines the property.
    """
    n = len(table)
    m = n.bit_length() - 1
    norm = [y ^ table[0] for y in table]
    out = []
    for u_set in all_subspaces(m, dims=range(m - r, m)):
        image = frozenset(norm[x] for x in u_set)
        if is_xor_closed(image):
            out.append((u_set, image))
    return out


def brute_anti_invariance_order(table):
    n = len(table)
    m = n.bit_length() - 1
    norm = [y ^ table[0] for y in table]
    largest_bad = None
    for u_set in all_subspaces(m, dims=range(1, m)):
        if is_xor_closed(frozenset(norm[x] for x in u_set)):
            k = len(u_set).bit_length() - 1
            if largest_bad is None or k > largest_bad:
                largest_bad = k
    if largest_bad is None:
        return m - 1
    return m - 1 - largest_bad


# ---------------------------------------------------------------------------
# Walls and partition images.


def wall_elements(m, b, bricks):
    """All vectors supported only on the given 1-based bricks."""
    out = set()
    allowed = 0
    for i in bricks:
        allowed |= ((1 << m) - 1) << ((i - 1) * m)
    for x in range(1 << (m * b)):
        if x & ~allowed == 0:
            out.add(x)
    return out


def walls_mode_masks(supports, b):
    """The walls-mode chain search, restated on brick masks.

    ``supports[h][i]`` is the b-bit mask of bricks that layer h sends brick
    i (0-based) into.  Every proper nonempty brick set, taken in
    lexicographic order of its sorted 1-based tuple, is pushed through the
    first l-1 layers; it is kept while each image touches as many bricks as
    the set itself.  Returns the mask sequence (U_1 .. U_l) of every kept
    set.
    """
    subsets = sorted(
        tuple(i + 1 for i in range(b) if (mask >> i) & 1)
        for mask in range(1, (1 << b) - 1))
    out = []
    for bricks in subsets:
        cur = sum(1 << (i - 1) for i in bricks)
        seq = [cur]
        for layer in supports[:-1]:
            img = 0
            for i in range(b):
                if (cur >> i) & 1:
                    img |= layer[i]
            if bin(img).count("1") != len(bricks):
                break
            cur = img
            seq.append(cur)
        else:
            out.append(seq)
    return out


def cosets_of(subspace_elements, d):
    """The coset partition of a subspace, as a frozenset of frozensets."""
    seen = set()
    blocks = set()
    for x in range(1 << d):
        if x not in seen:
            block = frozenset(x ^ u for u in subspace_elements)
            seen |= block
            blocks.add(block)
    return frozenset(blocks)


def brute_partition_image(table, subspace_elements):
    """Image of a coset partition under a permutation table.

    Returns the element set of W when the image partition is the coset
    partition of some subspace W, else None.
    """
    n = len(table)
    d = n.bit_length() - 1
    blocks = {frozenset(table[x] for x in block)
              for block in cosets_of(subspace_elements, d)}
    zero_block = next(b for b in blocks if 0 in b)
    if not is_xor_closed(zero_block):
        return None
    for block in blocks:
        rep = min(block)
        if block != frozenset(rep ^ w for w in zero_block):
            return None
    return set(zero_block)


def brute_derivative_containment(table, u_elements, w_elements):
    n = len(table)
    return all(table[x ^ u] ^ table[x] in w_elements
               for u in u_elements if u
               for x in range(n))


# ---------------------------------------------------------------------------
# Permutation groups and partitions of a finite domain.


def set_partitions(n):
    """All partitions of {0..n-1} via restricted growth strings."""
    rgs = [0] * n

    def rec(i, maxval):
        if i == n:
            blocks = {}
            for x, label in enumerate(rgs):
                blocks.setdefault(label, []).append(x)
            yield frozenset(frozenset(b) for b in blocks.values())
            return
        for label in range(maxval + 2):
            rgs[i] = label
            yield from rec(i + 1, max(maxval, label))

    yield from rec(1, 0)


def partition_invariant(partition, gen_images):
    """Whether every generator maps the partition onto itself."""
    for images in gen_images:
        moved = frozenset(frozenset(images[x] for x in block)
                          for block in partition)
        if moved != partition:
            return False
    return True


def brute_invariant_partitions_small(gen_images):
    """All invariant partitions of a degree-n group, n small (Bell(n) blows
    up fast; fine at n = 8)."""
    n = len(gen_images[0])
    return [p for p in set_partitions(n)
            if partition_invariant(p, gen_images)]


def brute_block_systems_transitive(gen_images):
    """All invariant partitions of a transitive group via blocks through 0.

    For each candidate block containing 0 (size dividing n), chase its orbit
    under the generators; the orbit is a partition iff its members are
    pairwise disjoint, and then it is invariant by closure.
    """
    n = len(gen_images[0])
    found = []
    others = [x for x in range(1, n)]
    for size in [s for s in range(1, n + 1) if n % s == 0]:
        for rest in combinations(others, size - 1):
            base = frozenset((0,) + rest)
            orbit = {base}
            frontier = [base]
            ok = True
            while frontier and ok:
                nxt = []
                for block in frontier:
                    for images in gen_images:
                        moved = frozenset(images[x] for x in block)
                        if moved not in orbit:
                            for seen in orbit:
                                if seen & moved:
                                    ok = False
                                    break
                            if not ok:
                                break
                            orbit.add(moved)
                            nxt.append(moved)
                    if not ok:
                        break
                frontier = nxt
            if ok and len(orbit) * size == n:
                found.append(frozenset(orbit))
    return found


def partition_meet(a, b):
    """Common refinement of two partitions (block-wise intersection)."""
    out = set()
    for x in a:
        for y in b:
            inter = x & y
            if inter:
                out.add(inter)
    return frozenset(out)


def finest_containing_pair(partitions, pair):
    """Meet of every partition that keeps the pair together."""
    a, b = pair
    keeping = [p for p in partitions
               if any(a in block and b in block for block in p)]
    if not keeping:
        return None
    meet = keeping[0]
    for p in keeping[1:]:
        meet = partition_meet(meet, p)
    return meet


# ---------------------------------------------------------------------------
# GF(2) polynomial arithmetic for modulus sanity checks.


def polymod(a, b):
    """a mod b for polynomials coded as ints, b != 0."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def poly_is_irreducible(p):
    """Trial division by every polynomial of degree 1 .. deg/2."""
    deg = p.bit_length() - 1
    if deg <= 0:
        return False
    for q in range(2, 1 << (deg // 2 + 1)):
        if polymod(p, q) == 0:
            return False
    return True


def carryless_mul_mod(a, b, modulus, m):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return acc


# ---------------------------------------------------------------------------
# Retired search routes, kept as second routes.


def table_scan_chains(cipher):
    """Every chain of a cipher by the full-codebook table scan that the
    derivative-span scan replaced: each proper subspace U of the first
    round's table is pruned on its image-span rank, coset-tested, and pushed
    through the later rounds' tables by ``partition_image``.  The chains come
    in scan order (dim U, then the enumeration order of U)."""
    from tbaudit.cipher import (LinearPartition, PartitionChain,
                                partition_image, round_table)
    from tbaudit.gf2 import Subspace, _maps_cosets, _reduced_rows
    d = cipher.layout.d
    tab = round_table(cipher.rounds[0])
    tab = tab ^ tab[0]  # the bricks' constants folded out: f(0) = 0
    py = tab.tolist()
    later_tables = [round_table(r) for r in cipher.rounds[1:]]
    chains = []
    for k in range(1, d):
        for rows in canonical_rref_bases(d, k):
            w_rows = image_span_rows(py, rows, k)
            if w_rows is None or not _maps_cosets(tab, rows, w_rows):
                continue
            spaces = [Subspace(rows, d), Subspace(_reduced_rows(w_rows), d)]
            for tab_h in later_tables:
                nxt = partition_image(tab_h, LinearPartition(spaces[-1]))
                if nxt is None:
                    break
                spaces.append(nxt.subspace)
            else:
                chains.append(PartitionChain(tuple(spaces)))
    return chains


def scalar_violation_scan(table, m, k_lo, budget, refuse=True):
    """The anti-invariance scan that the pre-filtered block scan replaced:
    the image-span rank of every subspace, dims m-1 down to k_lo, with the
    same budget accounting, refusals and (k*, pair, k_done) result."""
    from tbaudit.errors import CapExceeded
    from tbaudit.gf2 import Subspace, gaussian_binomial, rref
    spent = 0
    k_done = m
    for k in range(m - 1, k_lo - 1, -1):
        spent += gaussian_binomial(m, k)
        if spent > budget:
            if refuse:
                raise CapExceeded(
                    f"anti-invariance scan at m={m} refused at dimension {k}",
                    estimate=spent, limit=budget)
            return None, None, k_done
        for rows in canonical_rref_bases(m, k):
            w = image_span_rows(table, rows, k)
            if w is not None:
                return k, (Subspace(rows, m), rref(w, m)), k_done
        k_done = k
    return None, None, k_done


def all_points_is_primitive(gens):
    """Primitivity by the loop that orbit-representative testing replaced:
    Atkinson's minimal block system gluing 0 to every other point in turn,
    the first nontrivial one returned as the witness."""
    from tbaudit.groups import minimal_block
    for beta in range(1, gens.degree):
        system = minimal_block(gens, [(0, beta)])
        if system.nontrivial:
            return False, system
    return True, None


def _retired_phi_closure(stack, seed_rows, d):
    """The scalar closure of the seeds under every u -> g(u) + g(0), for the
    image arrays stacked as the rows of ``stack``; None when it is the full
    space."""
    import numpy as np
    from tbaudit.gf2 import _reduced_rows, _span_elements
    rows = _reduced_rows(seed_rows, limit=d - 1)
    while rows is not None:
        els = _span_elements(rows)
        ind = np.zeros(1 << d, dtype=bool)
        ind[els] = True
        mapped = (stack[:, els] ^ stack[:, :1]).ravel()
        outside = np.unique(mapped[~ind[mapped]])
        if not len(outside):
            return rows
        rows = _reduced_rows(rows + tuple(outside.tolist()), limit=d - 1)
    return None


def phi_closure_partition_search(gens, max_results=512):
    """Invariant linear partitions by the search that the batched seed pass
    replaced: the scalar closure under every u -> g(u) + g(0) of each of the
    2^d - 1 seeds in turn, pairwise joins to a fixed point, then the full
    derivative test, with the same cap, refusal and sorted output."""
    import numpy as np
    from tbaudit.errors import CapExceeded
    from tbaudit.gf2 import Subspace, _maps_cosets
    n = gens.degree
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError("degree is not a power of two")
    stack = np.stack([p.images for p in gens.perms])
    closures = {}
    for seed in range(1, n):
        rows = _retired_phi_closure(stack, [seed], d)
        if rows is not None:
            closures.setdefault(rows, None)
    frontier = list(closures)
    while frontier:
        if len(closures) > max_results:
            raise CapExceeded("too many closed subspaces",
                              estimate=len(closures), limit=max_results)
        nxt = []
        for a in frontier:
            for b in list(closures):
                joined = _retired_phi_closure(stack, a + b, d)
                if joined is not None and joined not in closures:
                    closures[joined] = None
                    nxt.append(joined)
        frontier = nxt
    out = [Subspace(rows, d) for rows in closures
           if all(_maps_cosets(img, rows, rows) for img in stack)]
    out.sort(key=lambda s: (s.dim, s.basis))
    return out
