"""Independent brute-force reference implementations used as test oracles.

Nothing in here imports tbaudit at module level.  Everything is written the
slow, obvious way: sets of ints for subspaces, dict counting for difference
tables, frozensets of frozensets for partitions.  Tests compare package
output against these.  The one exception is the last section: retired
routes, built on the package's own kernels (imported inside each function),
kept as second routes for the code that replaced them, and a reference
cipher that only tests use.
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


def requested_r_conditions(table):
    """The brick condition at every requested exponent r, as the report's
    own branch decided it before the audit's routine took it over: the bound
    (delta <= 2^r, or with ``use_1prime`` a minimum derivative image above
    2^(m-r)) and strong (r-1)-anti-invariance, which holds exactly when
    r - 1 is at most the anti-invariance order; r and the anti-invariance
    answer are reported only when the bound holds.  The report's condition
    objects, keyed by (r, use_1prime)."""
    n = len(table)
    m = n.bit_length() - 1
    delta = brute_uniformity(table)
    min_image = brute_min_derivative_image(table)[0]
    order = brute_anti_invariance_order(table)
    out = {}
    for r in range(1, m):
        anti_ok = r - 1 <= order
        for use_1prime in (False, True):
            bound_ok = (min_image > 1 << (m - r) if use_1prime
                        else delta <= 1 << r)
            out[r, use_1prime] = {
                "route": "min-image" if use_1prime else "uniformity",
                "r": r if bound_ok else None,
                "anti_invariant_ok": anti_ok if bound_ok else None,
                "ok": bound_ok and anti_ok,
                "detail": f"requested r={r}: bound "
                          f"{'holds' if bound_ok else 'fails'}",
            }
    return out


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


def wall_walk_links_hold(cipher, walk):
    """Per row of a wall walk (the brick masks of U_1 .. U_{l+1}), whether
    every link is one ``verify_chain`` accepts, decided on the masks alone:
    the image of the wall of bricks I under the round's layer lies in the
    wall of bricks J, and |I| = |J|.  The image's bricks are read off the
    layer matrix's rows.  A row whose last mask touches another number of
    bricks than its first ends in lambda(U_l) itself, so its last link is
    not checked."""
    m, b = cipher.layout.m, cipher.layout.b
    brick = (1 << m) - 1
    supports = []
    for rnd in cipher.rounds:
        rows = rnd.layer.matrix.rows
        per_brick = []
        for i in range(b):
            acc = 0
            for row in rows[i * m:(i + 1) * m]:
                acc |= row
            per_brick.append(sum(1 << j for j in range(b)
                                 if (acc >> (j * m)) & brick))
        supports.append(per_brick)
    out = []
    for masks in [list(map(int, row)) for row in walk]:
        ok = True
        links = len(masks) - 1
        if bin(masks[-1]).count("1") != bin(masks[0]).count("1"):
            links -= 1
        for h in range(links):
            src, dst = masks[h], masks[h + 1]
            img = 0
            for i in range(b):
                if (src >> i) & 1:
                    img |= supports[h][i]
            ok = (ok and img & ~dst == 0
                  and bin(src).count("1") == bin(dst).count("1"))
        out.append(ok)
    return out


def retired_lex_proper_masks(b):
    """(sorted 1-based brick tuple, mask) of every proper nonempty brick
    set, in lexicographic order of the tuples: the recursive walk the wall
    checks used before they moved to numpy tables."""
    full = (1 << b) - 1
    out = []

    def rec(prefix, mask, nxt):
        for i in range(nxt, b + 1):
            cur = prefix + (i,)
            cm = mask | (1 << (i - 1))
            if cm != full:
                out.append((cur, cm))
            rec(cur, cm, i + 1)

    rec((), 0, 1)
    return out


def retired_wall_images(supports, mask):
    """The retired per-mask walker: brick masks of a wall and of its images
    under the successive layers (``supports[h][i]`` is the mask of bricks
    layer h sends brick i into), up to the last image that is a wall."""
    masks = [mask]
    for sup in supports:
        img = 0
        for i in range(len(sup)):
            if (masks[-1] >> i) & 1:
                img |= sup[i]
        if bin(img).count("1") != bin(mask).count("1"):
            break
        masks.append(img)
    return masks


def _mask_tuple(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def retired_is_proper(supports, b):
    """(ok, first wall, as a brick tuple, that the layer fixes)."""
    for bricks, mask in retired_lex_proper_masks(b):
        if retired_wall_images([supports], mask)[1:] == [mask]:
            return False, bricks
    return True, None


def retired_is_strongly_proper(supports, b):
    """(ok, (first wall whose image is a wall, that image), as tuples)."""
    for bricks, mask in retired_lex_proper_masks(b):
        images = retired_wall_images([supports], mask)
        if len(images) == 2:
            return False, (bricks, _mask_tuple(images[1]))
    return True, None


def retired_family_escape(supports, b):
    """(bricks, escape step or None) per proper wall, in lexicographic
    order, over the prefixes of the layers given by their supports."""
    out = []
    for bricks, mask in retired_lex_proper_masks(b):
        steps = len(retired_wall_images(supports, mask))
        out.append((bricks, steps if steps <= len(supports) else None))
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
# Retired routes, kept as second routes.


def retired_substitution_table(bricks, layout, normalized=True):
    """The bricklayer table by the route that the one-pass brick-by-brick
    build replaced: every brick looked up over an index array of all 2^d
    points, read-only uint32."""
    import numpy as np
    n = 1 << layout.d
    m = layout.m
    idx = np.arange(n, dtype=np.uint32)
    sub = np.zeros(n, dtype=np.uint32)
    for i, box in enumerate(bricks):
        bt = np.array(box.normalized() if normalized else box.table,
                      dtype=np.uint32)
        sub |= bt[(idx >> (i * m)) & ((1 << m) - 1)] << (i * m)
    sub.setflags(write=False)
    return sub


def retired_round_table(rnd):
    """The keyless round table by the retired route: the raw bricklayer
    table, gathered through the span table of all of L's rows."""
    import numpy as np
    from tbaudit.gf2 import _span_elements
    sub = retired_substitution_table(rnd.bricks, rnd.layout, normalized=False)
    out = _span_elements(rnd.layer.matrix.rows, np.uint32)[sub]
    out.setflags(write=False)
    return out


def retired_encryption_table(cipher, keys):
    """The keyed codebook by the retired route: every point pushed from an
    index array through the retired round tables."""
    import numpy as np
    state = np.arange(1 << cipher.layout.d, dtype=np.uint32)
    for rnd, k in zip(cipher.rounds, keys):
        state = retired_round_table(rnd)[state] ^ k
    return state


def build_linear_toy_cipher(ell=2):
    """Identity bricks under the toy ciphers' strongly proper layer (at
    ell = 2, the cipher of ``specs/linear_bricks_m3b2_l2.json``): the walls
    search has nothing to find, but the bricks are linear, so the audit
    must stay Inconclusive rather than Secure."""
    from tbaudit.cipher import Round, TbCipher
    from tbaudit.gf2 import BrickLayout
    from tbaudit.presets import find_strongly_proper_layer, identity_sbox
    box = identity_sbox(3)
    layer = find_strongly_proper_layer(BrickLayout(3, 2), seed=0)
    return TbCipher((Round((box, box), layer),) * ell)


def retired_walls_audit_chains(cipher):
    """The walls-mode chains that ``audit`` counted before it counted the
    rows of the wall walk, the first of which it embedded: every chain built
    and sent through ``verify_chain``."""
    from tbaudit.cipher import find_trapdoor_chains, verify_chain
    return [ch for ch in find_trapdoor_chains(cipher, "walls")
            if verify_chain(cipher, ch)]


def table_scan_chains(cipher):
    """Every chain of a cipher by the full-codebook table scan that the
    derivative-span scan replaced: each proper subspace U of the first
    round's table is pruned on its image-span rank, coset-tested, and pushed
    through the later rounds' tables by ``partition_image``.  The chains come
    in scan order (dim U, then the enumeration order of U)."""
    from tbaudit.cipher import PartitionChain, partition_image, round_table
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
                nxt = partition_image(tab_h, spaces[-1])
                if nxt is None:
                    break
                spaces.append(nxt)
            else:
                chains.append(PartitionChain(tuple(spaces)))
    return chains


def retired_seed_atoms(cipher):
    """The distinct U_1 bases of the proper seed closures by the seed pass
    that the full-point pass replaced: every one of the 2^d - 1 closures
    runs to its fixpoint, or to rank d, in plain stack order."""
    from tbaudit.cipher import _span_kernel
    from tbaudit.gf2 import _reduced_rows
    d = cipher.layout.d
    ell = cipher.ell
    fwd = [_span_kernel(rnd, False) for rnd in cipher.rounds]
    bwd = [_span_kernel(rnd, True) for rnd in cipher.rounds]
    atoms = {}
    for seed in range(1, 1 << d):
        spaces = [{} for _ in range(ell + 1)]
        todo = [(0, seed)]
        while todo:
            h, v = todo.pop()
            rows = spaces[h]
            while v:
                p = v & -v
                q = rows.get(p)
                if q is None:
                    break
                v ^= q
            if not v:
                continue
            rows[p] = v
            if len(rows) == d:
                break
            if h < ell:
                todo += [(h + 1, w) for w in fwd[h](v)]
            if h:
                todo += [(h - 1, w) for w in bwd[h - 1](v)]
        else:
            atoms[_reduced_rows(spaces[0].values())] = None
    return list(atoms)


def retired_push_head(kernels, head, d):
    """The chain with U_1 = span(head), or None, by the scalar push that the
    batched block push replaced: each round reduces the derivative spans of
    the last position's rows under the rank bound dim U_1."""
    from tbaudit.cipher import PartitionChain
    from tbaudit.gf2 import Subspace, _reduced_rows
    spaces = [head]
    for spanning in kernels:
        rows = _reduced_rows((v for u in spaces[-1] for v in spanning(u)),
                             limit=len(head))
        if rows is None:
            return None
        spaces.append(rows)
    return PartitionChain(tuple(Subspace(s, d) for s in spaces))


def table_verify_chain(cipher, chain):
    """Whether every link of a chain holds by the full-codebook route: the
    partition image of U_h under round h's table is the coset partition of
    U_{h+1}.  ``verify_chain`` takes this route only for non-wall links."""
    from tbaudit.cipher import partition_image, round_table
    if len(chain.spaces) != cipher.ell + 1:
        return False
    for rnd, cur, nxt in zip(cipher.rounds, chain.spaces, chain.spaces[1:]):
        if partition_image(round_table(rnd), cur) != nxt:
            return False
    return True


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


def retired_minimal_block(gens, pairs):
    """The finest partition in which each given pair shares a class and
    x ~ y forces g(x) ~ g(y) for every generator g, by the union-find that
    the numpy class join replaced: merging two points forces their images
    under every generator to merge too, so merged pairs are queued and
    chased until stable.  On a transitive group this is the minimal block
    system through the pairs."""
    from tbaudit.groups import BlockSystem
    n = gens.degree
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []
    classes = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            classes -= 1
            queue.append((a, b))
    images = gens.images.tolist()
    while queue and classes > 1:
        a, b = queue.pop()
        for img in images:
            ga, gb = img[a], img[b]
            ra, rb = find(ga), find(gb)
            if ra != rb:
                parent[ra] = rb
                classes -= 1
                if classes == 1:
                    break
                queue.append((ga, gb))
    return BlockSystem([find(x) for x in range(n)])


def all_points_is_primitive(gens):
    """Primitivity by the loop that orbit-representative testing replaced:
    Atkinson's minimal block system gluing 0 to every other point in turn,
    each by the retired union-find, the first nontrivial one returned as the
    witness.  Assumes a transitive group."""
    for beta in range(1, gens.degree):
        system = retired_minimal_block(gens, [(0, beta)])
        if system.nontrivial:
            return False, system
    return True, None


# How many points of the breadth-first tree give retired_is_primitive the
# Schreier generators of its stabilizer subgroup: on round groups, 8 leave
# 1-3 orbits.
_SCHREIER_POINTS = 8


def _transversal(images, pred, via, y):
    """The tree element u_y (u_y(0) = y) as an image array, built by walking
    the Schreier vector from y back to the root."""
    import numpy as np
    path = []
    while y:
        path.append(int(via[y]))
        y = int(pred[y])
    u = np.arange(len(pred), dtype=np.int64)
    for k in reversed(path):
        u = images[k][u]
    return u


def retired_is_primitive(gens):
    """Whether the generated (transitive) group is primitive, by the
    Schreier-subgroup cut that the partition search's seed pass replaced.

    Atkinson's block test: the minimal block system Sigma_beta gluing 0 to
    beta is nontrivial for some beta exactly when the group is imprimitive,
    and the least such beta's system is returned as the witness.

    Only one beta per orbit of a subgroup H of the point stabilizer G_0 is
    tested.  Every h in G_0 maps each block system of G onto itself, so
    Sigma_beta = Sigma_{h(beta)}; the least nontrivial beta is therefore the
    least point of its H-orbit, and testing the least point of every H-orbit
    in increasing order gives the verdict and the witness of testing every
    beta, whatever H is.  H is generated by the Schreier generators
    u_{g(y)}^-1 g u_y of a few tree points y spread evenly over the
    breadth-first order (the root's alone are trivial whenever the tree
    elements at the root are the generators themselves, as for round
    groups).  Tree elements are built on demand and never all kept.  A
    trivial H tests every beta.
    """
    import numpy as np
    from tbaudit.groups import _join_classes, _minimal_block, _schreier_tree
    pred, via, order = _schreier_tree(gens)
    n = gens.degree
    images = gens.images
    identity = np.arange(n, dtype=np.int64)
    roots = identity
    for y in dict.fromkeys(order[k * n // _SCHREIER_POINTS].item()
                           for k in range(_SCHREIER_POINTS)):
        u_y = _transversal(images, pred, via, y)
        for k, img in enumerate(images):
            z = int(img[y])
            if pred[z] == y and via[z] == k:
                continue  # a tree edge: u_z = g u_y, so s is the identity
            inv_u_z = np.empty(n, dtype=np.int64)
            inv_u_z[_transversal(images, pred, via, z)] = identity
            s = inv_u_z[img[u_y]]
            if not np.array_equal(s, identity):
                roots = _join_classes(roots, identity, s)
        if (roots[1:] == 1).all():
            break  # H is transitive on the points other than 0
    for beta in np.flatnonzero(roots == identity)[1:].tolist():
        system = _minimal_block(gens, np.array([[0, beta]]))
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
    stack = gens.images
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
