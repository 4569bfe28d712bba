"""Workload definitions: seeded inputs, the operations, and their output checks.

Each workload is a fixed cycle of input classes.  Operation ``i`` of a run
belongs to class ``cycle[i % len(cycle)]`` and its input is derived only from
the seed, the workload, the class and the op's index within its class, so the
same seed always gives the same inputs.  A run is a fixed number of whole
cycles.  Structural sizes that dominate an operation's cost (rounds, brick
counts) cycle through a fixed tuple, and the cycle counts cover each tuple
whole, so every run of a workload does the same amount of work per class, in
the same order, whatever the seed; the seed sets the random bricks and
layers.

Operations are real user actions: ``tbaudit.cli.main([...])`` on spec files
written during set-up, or, for ``groups``, the library calls that
``tbaudit demo group-check`` makes.  Checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tbaudit import cli, groups, specfile
from tbaudit.cipher import (PartitionChain, encrypt, find_trapdoor_chains,
                            verify_chain)
from tbaudit.gf2 import Subspace

# Exit codes of the tbaudit command line.
EXIT_OK, EXIT_VULNERABLE, EXIT_INCONCLUSIVE = 0, 2, 3
VERDICT_EXIT = {"secure": EXIT_OK, "vulnerable": EXIT_VULNERABLE,
                "inconclusive": EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# Input generation (stdlib only, independent of the package under test).


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _rank(rows) -> int:
    red: dict[int, int] = {}
    for y in rows:
        while y:
            p = y & -y
            q = red.get(p)
            if q is None:
                red[p] = y
                break
            y ^= q
    return len(red)


def random_invertible_rows(rng: random.Random, d: int) -> list[int]:
    while True:
        rows = [rng.getrandbits(d) for _ in range(d)]
        if _rank(rows) == d:
            return rows


def random_bijection(rng: random.Random, m: int) -> list[int]:
    table = list(range(1 << m))
    rng.shuffle(table)
    return table


def _apply_rows(rows, v: int) -> int:
    y = 0
    i = 0
    while v:
        if v & 1:
            y ^= rows[i]
        v >>= 1
        i += 1
    return y


@functools.cache
def _gf256_inverse_table() -> tuple[int, ...]:
    def mul(a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= 0x11B
        return acc

    inv = [0] * 256
    for a in range(1, 256):
        inv[a] = next(b for b in range(1, 256) if mul(a, b) == 1)
    return tuple(inv)


def affine_inversion_brick(rng: random.Random) -> list[int]:
    """x -> A(inv(Bx + c)) + e over GF(2^8): a fresh box affine-equivalent to
    field inversion, so its measurements stay as cheap as inversion's."""
    inv = _gf256_inverse_table()
    a = random_invertible_rows(rng, 8)
    b = random_invertible_rows(rng, 8)
    c, e = rng.getrandbits(8), rng.getrandbits(8)
    return [_apply_rows(a, inv[_apply_rows(b, x) ^ c]) ^ e
            for x in range(256)]


def _hex_table(values) -> str:
    return " ".join(format(v, "x") for v in values)


def _hex_rows(rows) -> list[str]:
    return [format(r, "x") for r in rows]


def _spec(m: int, b: int, rounds: list[dict]) -> dict:
    return {"layout": {"m": m, "b": b}, "rounds": rounds}


def _cycled(j: int, values: tuple):
    """The j-th op of a class takes values[j mod len]: the same sizes, in the
    same order, for every seed."""
    return values[j % len(values)]


# ---------------------------------------------------------------------------
# Input classes.  Each returns the spec object for the j-th op of the class.


def _sparse_random(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    return _spec(4, 2, [{"bricks": [_hex_table(random_bijection(rng, 4))
                                    for _ in range(2)],
                         "layer": _hex_rows(random_invertible_rows(rng, 8))}
                        for _ in range(ell)])


def _sparse_rotation(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    return _spec(4, 2, [{"bricks": [_hex_table(random_bijection(rng, 4))
                                    for _ in range(2)],
                         "layer": "rotation"} for _ in range(ell)])


def _dense_affine2(seed, wl, cls, j):
    # every 2-bit bijection is affine, so every round maps every subspace
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    return _spec(2, 3, [{"bricks": [_hex_table(random_bijection(rng, 2))
                                    for _ in range(3)],
                         "layer": _hex_rows(random_invertible_rows(rng, 6))}
                        for _ in range(ell)])


def _dense_identity3(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    return _spec(3, 2, [{"bricks": "identity",
                         "layer": _hex_rows(random_invertible_rows(rng, 6))}
                        for _ in range(ell)])


def _dense_mixed3(seed, wl, cls, j):
    # one identity brick and one random 3-bit brick per round
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    rounds = []
    for _ in range(ell):
        bricks = ["identity", _hex_table(random_bijection(rng, 3))]
        rng.shuffle(bricks)
        rounds.append({"bricks": bricks,
                       "layer": _hex_rows(random_invertible_rows(rng, 6))})
    return _spec(3, 2, rounds)


def _audit_random8(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    return _spec(8, 2, [{"bricks": [_hex_table(random_bijection(rng, 8))
                                    for _ in range(2)],
                         "layer": _hex_rows(random_invertible_rows(rng, 16))}
                        for _ in range(2)])


def _audit_rotation_wide(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    b = _cycled(j, (10, 11, 12, 11, 10))
    return _spec(2, b, [{"bricks": [_hex_table(random_bijection(rng, 2))
                                    for _ in range(b)],
                         "layer": "rotation"} for _ in range(3)])


def _audit_rotation_m8(seed, wl, cls, j):
    rng = _rng(seed, wl, cls, j)
    ell = _cycled(j, (2, 3))
    return _spec(8, 2, [{"bricks": [_hex_table(affine_inversion_brick(rng))
                                    for _ in range(2)],
                         "layer": "rotation"} for _ in range(ell)])


def _audit_aes(seed, wl, cls, j):
    # the AES-shaped layers and the inversion brick are fixed: only the
    # number of rounds varies, and it does not depend on the seed
    ell = _cycled(j, (2, 3, 4, 6, 10))
    return _spec(8, 16, [{"bricks": "inverse_gf2m", "layer": "aes_sr_mc"}
                         for _ in range(ell)])


def _groups_rotation(m, b):
    # b rounds, so each single-brick partition comes back to itself and the
    # encryption maps have invariant partitions
    def make(seed, wl, cls, j):
        rng = _rng(seed, wl, cls, j)
        return _spec(m, b, [{"bricks": [_hex_table(random_bijection(rng, m))
                                        for _ in range(b)],
                             "layer": "rotation"} for _ in range(b)])
    return make


def _groups_random(m, b):
    def make(seed, wl, cls, j):
        rng = _rng(seed, wl, cls, j)
        return _spec(m, b, [{"bricks": [_hex_table(random_bijection(rng, m))
                                        for _ in range(b)],
                             "layer": _hex_rows(
                                 random_invertible_rows(rng, m * b))}
                            for _ in range(2)])
    return make


# ---------------------------------------------------------------------------
# Operations and their outcomes.


@dataclass
class Op:
    index: int
    cls: str
    spec: dict
    spec_path: Path
    report_path: Path
    cipher: object = None  # parsed in set-up for library-call workloads


@dataclass
class Outcome:
    calls: list = field(default_factory=list)  # (argv, rc, stdout, stderr)
    result: object = None


def _run_cli(argv: list[str], outcome: Outcome) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    outcome.calls.append((argv, rc, out.getvalue(), err.getvalue()))
    return rc, out.getvalue()


def run_find_trapdoor(op: Op) -> Outcome:
    outcome = Outcome()
    _run_cli(["find-trapdoor", str(op.spec_path), "--mode", "exhaustive",
              "--json"], outcome)
    return outcome


def run_audit(op: Op) -> Outcome:
    outcome = Outcome()
    _, text = _run_cli(["audit", str(op.spec_path), "--json"], outcome)
    op.report_path.write_text(text)
    _run_cli(["verify-report", str(op.report_path), "--spec",
              str(op.spec_path)], outcome)
    return outcome


def run_group_check(op: Op) -> Outcome:
    c = op.cipher
    ind = groups.sample_ind_generators(c)
    found = groups.invariant_linear_partition_search(ind)
    minimal = groups.minimal_invariant_partitions(found)
    system = (groups.minimal_block(ind, [(0, found[0].basis[0])])
              if found else None)
    rnd = groups.sample_round_generators(c)
    primitive, witness = groups.is_primitive(rnd)
    return Outcome(result=(ind, found, minimal, system, rnd, primitive,
                           witness))


# ---------------------------------------------------------------------------
# Output checks.  Each returns (answer, problems); the answer feeds the
# completeness digest, problems make the op count as failed.


def _chain_from_json(obj) -> PartitionChain:
    return PartitionChain(tuple(
        Subspace(tuple(int(r, 16) for r in s["basis"]), s["ambient"])
        for s in obj["spaces"]))


def _chain_key(chain: PartitionChain) -> list:
    return [list(s.basis) for s in chain.spaces]


def holds_under_sampled_keys(cipher, chain: PartitionChain, rng, *,
                             keys: int = 3, points: int = 4) -> bool:
    """Pointwise check that the keyed cipher sends cosets of U_1 into cosets
    of U_{l+1}: enc(x + u) + enc(x) must lie in U_{l+1} for u in a basis of
    U_1, for sampled keys and points."""
    d = cipher.layout.d
    first, last = chain.spaces[0], chain.spaces[-1]
    for _ in range(keys):
        ks = tuple(rng.getrandbits(d) for _ in range(cipher.ell))
        for _ in range(points):
            x = rng.getrandbits(d)
            y = encrypt(cipher, ks, x)
            for u in first.basis:
                if (encrypt(cipher, ks, x ^ u) ^ y) not in last:
                    return False
    return True


def _cli_problems(outcome: Outcome, expected: list[set[int]]) -> list[str]:
    problems = []
    for (argv, rc, _, err), allowed in zip(outcome.calls, expected):
        if rc not in allowed:
            problems.append(f"{argv[0]} exited {rc}, expected one of "
                            f"{sorted(allowed)}: {err.strip()[:200]}")
    if len(outcome.calls) != len(expected):
        problems.append(f"{len(outcome.calls)} command(s) ran, expected "
                        f"{len(expected)}")
    return problems


def check_chains(op: Op, outcome: Outcome, rng) -> tuple[object, list[str]]:
    problems = _cli_problems(outcome, [{EXIT_OK, EXIT_VULNERABLE}])
    if problems:
        return None, problems
    _, rc, text, _ = outcome.calls[0]
    rep = json.loads(text)
    cipher = specfile.parse_cipher(op.spec)
    count = rep["chain_count"]
    chains = [_chain_from_json(obj) for obj in rep["chains"]]
    if rc != (EXIT_VULNERABLE if count else EXIT_OK):
        problems.append(f"exit code {rc} disagrees with {count} chain(s)")
    if rep["completeness"] != "search-complete":
        problems.append(f"completeness is {rep['completeness']!r}")
    if len(chains) != count and not (rep["truncated"] and len(chains) < count):
        problems.append(f"{len(chains)} chains embedded of {count}")
    if op.cls.endswith("rotation") and not count:
        problems.append("rotation cipher reported without chains")
    bad = [i for i, ch in enumerate(chains) if not verify_chain(cipher, ch)]
    if bad:
        problems.append(f"{len(bad)} reported chain(s) fail verify_chain, "
                        f"first #{bad[0]}")
    for ch in chains[:4]:
        if not holds_under_sampled_keys(cipher, ch, rng):
            problems.append("a reported chain fails under sampled keys")
            break
    # walls-mode chains must all be in the exhaustive set
    embedded = {tuple(map(tuple, _chain_key(ch))) for ch in chains}
    last_key = ((chains[-1].spaces[0].dim, chains[-1].spaces[0].basis)
                if chains else None)
    for ch in find_trapdoor_chains(cipher, "walls"):
        key = tuple(map(tuple, _chain_key(ch)))
        first = (ch.spaces[0].dim, ch.spaces[0].basis)
        if rep["truncated"] and last_key is not None and first > last_key:
            # beyond the embedded prefix: it must at least be a chain
            if not verify_chain(cipher, ch):
                problems.append("a walls chain fails verify_chain")
        elif key not in embedded:
            problems.append("a walls-mode chain is missing from the "
                            "exhaustive result")
            break
    answer = {"rc": rc, "count": count,
              "chains": [_chain_key(ch) for ch in chains]}
    return answer, problems


def check_audit(op: Op, outcome: Outcome, rng) -> tuple[object, list[str]]:
    problems = _cli_problems(outcome, [set(VERDICT_EXIT.values()), {EXIT_OK}])
    if problems:
        return None, problems
    (_, rc, text, _), (_, vrc, vtext, _) = outcome.calls
    rep = json.loads(text)
    verdict = rep["verdict"]
    if VERDICT_EXIT.get(verdict) != rc:
        problems.append(f"exit code {rc} disagrees with verdict {verdict!r}")
    if "re-verify" not in vtext:
        problems.append("verify-report did not confirm the witnesses")
    if op.cls.startswith("rotation") and verdict != "vulnerable":
        problems.append(f"rotation cipher audited {verdict!r}")
    if (verdict == "vulnerable") != (rep["chain"] is not None):
        problems.append("vulnerable verdict and embedded chain disagree")
    if rep["chain"] is not None:
        cipher = specfile.parse_cipher(op.spec)
        chain = _chain_from_json(rep["chain"])
        if not verify_chain(cipher, chain):
            problems.append("embedded chain fails verify_chain")
        elif not holds_under_sampled_keys(cipher, chain, rng):
            problems.append("embedded chain fails under sampled keys")
    answer = {"rc": rc, "verdict": verdict, "count": rep["chain_count"],
              "chain": (None if rep["chain"] is None
                        else _chain_key(_chain_from_json(rep["chain"]))),
              "verify_rc": vrc}
    return answer, problems


def check_groups(op: Op, outcome: Outcome, rng) -> tuple[object, list[str]]:
    ind, found, minimal, system, rnd, primitive, witness = outcome.result
    problems = []
    for s in found:
        if not groups.partition_block_system(s).preserved_by(ind):
            problems.append(f"invariant partition {s.basis} is not "
                            f"preserved by the generators")
            break
    if system is not None and not system.preserved_by(ind):
        problems.append("minimal block system is not preserved")
    if witness is not None and not witness.preserved_by(rnd):
        problems.append("imprimitivity witness is not preserved")
    if primitive != (witness is None):
        problems.append("is_primitive result and witness disagree")
    if op.cls.startswith("rotation") and not found:
        problems.append("rotation cipher without an invariant partition")
    answer = {"found": [list(s.basis) for s in found],
              "minimal": [list(s.basis) for s in minimal],
              "block_size": None if system is None else system.block_size(),
              "primitive": primitive,
              "witness_blocks": None if witness is None else witness.n_blocks}
    return answer, problems


def answer_digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_op(workload: "Workload", op: Op, outcome, seed) -> tuple:
    """(answer digest or None, problems) for one op's outcome, which is an
    Outcome or the text of the exception the op raised."""
    if isinstance(outcome, str):
        return None, ["raised: " + outcome.strip().splitlines()[-1]]
    try:
        answer, problems = workload.check(op, outcome,
                                          _rng(seed, "check", op.index))
    except Exception as exc:  # a malformed output is a failed op
        return None, [f"output check raised {exc!r}"]
    return (None if answer is None else answer_digest(answer)), problems


# ---------------------------------------------------------------------------
# The workloads.


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple  # (class name, input maker), in cycle order
    run: Callable[[Op], Outcome]
    check: Callable  # (op, outcome, rng) -> (answer, problems)
    cycles: int  # cycles in a run: about 15 s on the reference machine
    parse_ciphers: bool = False

    @property
    def n_ops(self) -> int:
        return self.cycles * len(self.classes)

    def op_class(self, i: int) -> tuple[str, object, int]:
        """Class, input maker, and the op's index within its class."""
        cycle, pos = divmod(i, len(self.classes))
        name, make = self.classes[pos]
        slots = [k for k, (n, _) in enumerate(self.classes) if n == name]
        return name, make, cycle * len(slots) + slots.index(pos)


WORKLOADS = {
    "chains-sparse": Workload(
        "chains-sparse",
        (("random", _sparse_random), ("random", _sparse_random),
         ("random", _sparse_random), ("rotation", _sparse_rotation)),
        run_find_trapdoor, check_chains, cycles=10),
    "chains-dense": Workload(
        "chains-dense",
        (("affine2", _dense_affine2), ("identity3", _dense_identity3),
         ("mixed3", _dense_mixed3)),
        run_find_trapdoor, check_chains, cycles=34),
    "audit": Workload(
        "audit",
        (("rotation-m8", _audit_rotation_m8),
         ("rotation-wide", _audit_rotation_wide),
         ("rotation-m8", _audit_rotation_m8),
         ("random8", _audit_random8), ("aes", _audit_aes)),
        run_audit, check_audit, cycles=10),
    "groups": Workload(
        "groups",
        (("rotation-d8", _groups_rotation(4, 2)),
         ("random-d8", _groups_random(4, 2)),
         ("rotation-d9", _groups_rotation(3, 3)),
         ("random-d9", _groups_random(3, 3)),
         ("rotation-d9", _groups_rotation(3, 3)),
         ("random-d9", _groups_random(3, 3))),
        run_group_check, check_groups, cycles=7,
        parse_ciphers=True),
}


def _make_op(workload: Workload, i: int, cls: str, spec: dict,
             directory: Path, stem: str) -> Op:
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(spec))
    op = Op(i, cls, spec, path, directory / f"{stem}.report.json")
    if workload.parse_ciphers:
        op.cipher = specfile.parse_cipher(spec)
    return op


def make_ops(workload: Workload, seed, n: int, directory: Path) -> list[Op]:
    """Generate the inputs of ``n`` ops and write their spec files."""
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(n):
        cls, make, j = workload.op_class(i)
        ops.append(_make_op(workload, i, cls, make(seed, workload.name, cls, j),
                            directory, f"op{i:04d}"))
    return ops


def make_warmup_ops(workload: Workload, rep: int,
                    directory: Path) -> list[Op]:
    """One op per class on inputs no timed op uses; the same for every seed,
    so that set-up does the same work in every run."""
    directory.mkdir(parents=True, exist_ok=True)
    makers = dict(workload.classes)
    return [_make_op(workload, -1, cls, make(f"warmup{rep}",
                                             workload.name, cls, 0),
                     directory, f"warmup-{cls}")
            for cls, make in makers.items()]
