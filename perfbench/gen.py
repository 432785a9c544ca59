"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python over integer tuples and never imports
fanshear, so the inputs a seed produces do not move when the library
changes.  A workload is a list of `Op`s: the argv handed to
`fanshear.cli.main` plus what the checker needs to judge the output.
Input files are written into the run's work directory before any timing
starts.

Inputs whose answer the checker cannot derive on its own (the relations
of a subdivided fan, the twist sequence of a chain) come from fixed pools
whose answers are recorded in `references.json`; the seed picks pool
members and relabels them.  Inputs whose answer is known by construction
(isomorphic or provably non-isomorphic pairs) are drawn freely.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

Vector = tuple[int, ...]

WORKLOADS = ("pipeline", "subdivided", "iso")

VERIFY_NAMES = ("X3_0",) + tuple(f"W4_{i}" for i in range(1, 10))
CHAIN_DIMS = (3, 4, 5, 6, 7)
CHAIN_CANDIDATES = 24
# A round's mix is shaped so that each latency statistic lands inside a
# cluster of ops of like cost, where it moves with the program's speed and
# not with which op happens to sit next to it.  In `pipeline` the median
# lands in the middle of the verifies of W4_2, W4_3, W4_5..W4_8 and the
# d = 5 chains (14 of 31 ops, with 9 cheaper ops and 8 dearer ones) and the
# tail inside the d = 7 chains.
VERIFY_REPEATS = {"X3_0": 1, "W4_1": 1, **{f"W4_{i}": 2 for i in range(2, 10)}}
CHAINS_PER_DIM = {3: 2, 4: 2, 5: 2, 6: 3, 7: 3}
INCONGRUENT_CHAINS = 1
SUBDIVIDED_BASES = ("W4_1", "X3_0", "bundle(4;1,0,2)")
# 16 rays keeps the largest op near 0.5 s on a two-core host (17 rays takes
# about 1 s there), which lets a run hold enough rounds for a steady tail.
SUBDIVIDED_RAYS = range(8, 17)
# The middle size runs three times per base, so the median lands inside the
# nine 12-ray ops of a 33-op round.
SUBDIVIDED_COPIES = {12: 3}
SUBDIVISION_CANDIDATES = 8


@dataclass(frozen=True)
class FanData:
    """A fan as the file format writes it: dimension, named rays, cones."""

    dim: int
    rays: tuple[tuple[str, Vector], ...]
    cones: tuple[tuple[str, ...], ...]

    def text(self) -> str:
        lines = [f"dim {self.dim}"]
        lines += [f"ray {n} " + " ".join(map(str, g)) for n, g in self.rays]
        lines += ["cone " + " ".join(c) for c in self.cones]
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One CLI invocation and the facts its output is checked against."""

    kind: str  # "verify", "chain", "check" or "iso"
    argv: list[str]
    expect: dict = field(default_factory=dict)
    slot: str = ""  # which part of the workload's fixed mix this op fills


def _fan(dim, rays, cones) -> FanData:
    return FanData(
        dim,
        tuple((n, tuple(g)) for n, g in rays),
        tuple(tuple(c.split()) for c in cones),
    )


X3_0 = _fan(
    3,
    [("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("a1", (-1, 1, 0)),
     ("a2", (0, -1, 0)), ("b1", (0, 0, 1)), ("c1", (2, 0, -1))],
    ["e1 e2 b1", "e1 e2 c1", "e1 a2 b1", "e1 a2 c1",
     "e2 a1 b1", "e2 a1 c1", "a1 a2 b1", "a1 a2 c1"],
)

W4_1 = _fan(
    4,
    [("x1", (1, 0, 0, 0)), ("x2", (0, 1, 0, 0)), ("x3", (0, 0, 1, 0)),
     ("x4", (-1, 1, 0, 0)), ("x5", (0, -1, -1, 0)), ("x6", (0, 0, 0, 1)),
     ("x7", (2, 0, 0, -1))],
    ["x1 x2 x3 x6", "x1 x2 x3 x7", "x1 x2 x5 x6", "x1 x2 x5 x7",
     "x1 x3 x5 x6", "x1 x3 x5 x7", "x2 x3 x4 x6", "x2 x3 x4 x7",
     "x2 x4 x5 x6", "x2 x4 x5 x7", "x3 x4 x5 x6", "x3 x4 x5 x7"],
)


def bundle(twists: tuple[int, ...]) -> FanData:
    """Fan of P(O + O(p_1) + ... + O(p_{d-1})) over the line.

    Fiber rays e_i (standard basis) and a1 = -(e_1 + ... + e_{d-1}), base
    rays b1 = e_d and c1 = -e_d + sum p_i e_i; the cones omit one fiber
    ray and one base ray.
    """
    d = len(twists) + 1
    unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    fiber = [(f"e{i + 1}", unit[i]) for i in range(d - 1)]
    fiber.append(("a1", tuple([-1] * (d - 1) + [0])))
    c1 = tuple(list(twists) + [-1])
    rays = fiber + [("b1", unit[d - 1]), ("c1", c1)]
    fiber_names = [n for n, _ in fiber]
    cones = [
        " ".join(list(face) + [base])
        for face in itertools.combinations(fiber_names, d - 1)
        for base in ("b1", "c1")
    ]
    return _fan(d, rays, cones)


BASES = {"W4_1": W4_1, "X3_0": X3_0, "bundle(4;1,0,2)": bundle((1, 0, 2))}


def subdivide(base: FanData, insertions: int, rng: random.Random) -> FanData:
    """Iterated star subdivisions of random maximal cones.

    Same construction as tests/test_random_fans.random_subdivided_fan:
    the new ray s<k> is the sum of the chosen cone's rays, and the cone is
    replaced by the cones that swap one of its rays for s<k>.
    """
    rays = list(base.rays)
    gen = dict(rays)
    cones = [list(c) for c in base.cones]
    for step in range(insertions):
        old = cones.pop(rng.randrange(len(cones)))
        name = f"s{step}"
        gen[name] = tuple(sum(gen[n][i] for n in old) for i in range(base.dim))
        rays.append((name, gen[name]))
        for drop in old:
            cones.append([n if n != drop else name for n in old])
    return FanData(base.dim, tuple(rays), tuple(tuple(c) for c in cones))


def pool_subdivision(base_name: str, ray_count: int, variant: int) -> FanData:
    """Pool member `variant` among subdivisions of base_name with ray_count rays."""
    base = BASES[base_name]
    rng = random.Random(f"subdivision/{base_name}/{ray_count}/{variant}")
    return subdivide(base, ray_count - len(base.rays), rng)


def subdivision_key(base_name: str, ray_count: int, variant: int) -> str:
    return f"{base_name}/{ray_count}/{variant}"


def subdivision_candidates() -> dict[str, FanData]:
    """Every subdivision the pool may hold; references.json keeps a subset."""
    return {
        subdivision_key(b, n, v): pool_subdivision(b, n, v)
        for b in SUBDIVIDED_BASES
        for n in SUBDIVIDED_RAYS
        for v in range(SUBDIVISION_CANDIDATES)
    }


def pooled_variants(refs: dict, base_name: str, ray_count: int) -> list[int]:
    """Variants of (base_name, ray_count) whose answers references.json holds."""
    prefix = f"{base_name}/{ray_count}/"
    return sorted(int(k[len(prefix):]) for k in refs["check"] if k.startswith(prefix))


def _congruent_partner(p: list[int], rng: random.Random, d: int) -> list[int]:
    q = [rng.randrange(6) for _ in p]
    while (sum(q) - sum(p)) % d:
        q[rng.randrange(len(q))] += 1
    return q


def _twists(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def chain_key(d: int, p, q) -> str:
    """Pool key of a chain: twist vectors sorted descending, as the CLI does."""
    def norm(t):
        return ",".join(map(str, sorted(t, reverse=True)))

    return f"{d}:{norm(p)}:{norm(q)}"


def chain_candidates() -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Per dimension, CHAIN_CANDIDATES congruent twist pairs with entries 0..5."""
    pool = {}
    for d in CHAIN_DIMS:
        rng = random.Random(f"chain/{d}")
        pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        keys = set()
        while len(pairs) < CHAIN_CANDIDATES:
            p = [rng.randrange(6) for _ in range(d - 1)]
            q = _congruent_partner(p, rng, d)
            key = chain_key(d, p, q)
            if key not in keys:
                keys.add(key)
                pairs.append((tuple(p), tuple(q)))
        pool[d] = pairs
    return pool


def pooled_chains(refs: dict, d: int) -> list[tuple[list[int], list[int]]]:
    """Twist pairs of dimension d whose answers references.json holds."""
    pairs = []
    for key in sorted(refs["chain"]):
        dim, p, q = key.split(":")
        if int(dim) == d:
            pairs.append((_twists(p), _twists(q)))
    return pairs


def random_unimodular(d: int, rng: random.Random) -> tuple[Vector, ...]:
    """A signed permutation followed by three elementary row operations."""
    order = list(range(d))
    rng.shuffle(order)
    rows = [
        [(rng.choice((-1, 1)) if j == order[i] else 0) for j in range(d)]
        for i in range(d)
    ]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-1, 1))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def apply(matrix, v: Vector) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in matrix)


def _inverse(columns: list[Vector]) -> list[list[Fraction]]:
    """Rows of the inverse of the matrix with the given columns."""
    d = len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(d)] + [Fraction(i == k) for k in range(d)]
            for i in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def anchor_images(fan: FanData) -> set[frozenset[str]]:
    """Cones that some automorphism of the fan sends its first cone to.

    Each is a place where an anchored-frame isomorphism search, anchored
    at the first cone, can succeed.
    """
    gens = dict(fan.rays)
    by_vector = {g: n for n, g in fan.rays}
    cone_sets = {frozenset(c) for c in fan.cones}
    inverse = _inverse([gens[n] for n in fan.cones[0]])
    if all(x.denominator == 1 for row in inverse for x in row):
        # A unimodular first cone: integer arithmetic gives the same images, faster.
        inverse = [[int(x) for x in row] for row in inverse]
    images = set()
    for cone in fan.cones:
        for perm in itertools.permutations(cone):
            target = [gens[n] for n in perm]
            matrix = [[sum(target[t][i] * inverse[t][j] for t in range(fan.dim))
                       for j in range(fan.dim)] for i in range(fan.dim)]
            image = {}
            for name, g in fan.rays:
                moved = by_vector.get(tuple(apply(matrix, g)))
                if moved is None:
                    break
                image[name] = moved
            else:
                if {frozenset(image[n] for n in c) for c in fan.cones} == cone_sets:
                    images.add(frozenset(cone))
                    break
    return images


def relabel(
    fan: FanData, rng: random.Random, prefix: str, anchor_position: float | None = None
) -> tuple[FanData, dict[str, str]]:
    """An isomorphic copy: new ray names, shuffled orders, new coordinates.

    Returns the copy and the map from old to new names.  With
    anchor_position in [0, 1), the first place in the copy's cone list
    where an anchored-frame search from fan's first cone can succeed is
    that fraction of the list, so every seed scans about as far.
    """
    old_names = [n for n, _ in fan.rays]
    fresh = [f"{prefix}{i}" for i in range(len(old_names))]
    rng.shuffle(fresh)
    rename = dict(zip(old_names, fresh))
    matrix = random_unimodular(fan.dim, rng)
    rays = [(rename[n], apply(matrix, g)) for n, g in fan.rays]
    rng.shuffle(rays)
    cones = []
    for c in fan.cones:
        names = [rename[n] for n in c]
        rng.shuffle(names)
        cones.append(tuple(names))
    rng.shuffle(cones)
    if anchor_position is not None:
        images = {frozenset(rename[n] for n in c) for c in anchor_images(fan)}
        hits = [c for c in cones if frozenset(c) in images]
        misses = [c for c in cones if frozenset(c) not in images]
        at = min(int(anchor_position * len(cones)), len(misses))
        cones = misses[:at] + hits[:1] + sorted(misses[at:] + hits[1:], key=lambda _: rng.random())
    return FanData(fan.dim, tuple(rays), tuple(cones)), rename


def star_sizes(fan: FanData) -> list[int]:
    """Sorted count of maximal cones at each ray, an isomorphism invariant."""
    return sorted(sum(n in c for c in fan.cones) for n, _ in fan.rays)


class _Writer:
    def __init__(self, work_dir: Path):
        self.dir = work_dir / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def fan(self, fan: FanData) -> str:
        path = self.dir / f"f{self.count:03d}.fan"
        self.count += 1
        path.write_text(fan.text())
        return str(path)


def _pipeline(rng: random.Random, work_dir: Path, refs: dict) -> list[Op]:
    ops = [
        Op("verify", ["--json", "catalog", "verify", name], {"name": name}, name)
        for name in VERIFY_NAMES
        for _ in range(VERIFY_REPEATS[name])
    ]
    chains = []
    for d in CHAIN_DIMS:
        for p, q in rng.sample(pooled_chains(refs, d), CHAINS_PER_DIM[d]):
            chains.append((d, p, q, True))
    for _ in range(INCONGRUENT_CHAINS):
        d = rng.choice(CHAIN_DIMS)
        p = [rng.randrange(6) for _ in range(d - 1)]
        q = _congruent_partner(p, rng, d)
        q[rng.randrange(d - 1)] += 1 + rng.randrange(d - 1)
        chains.append((d, p, q, False))
    for i, (d, p, q, congruent) in enumerate(chains):
        rng.shuffle(p)
        rng.shuffle(q)
        out_dir = str(work_dir / "chains" / f"c{i:02d}")
        argv = ["--json", "chain", "--dim", str(d),
                "--from", ",".join(map(str, p)), "--to", ",".join(map(str, q)),
                "--out-dir", out_dir]
        expect = {"dim": d, "out_dir": out_dir, "congruent": congruent,
                  "key": chain_key(d, p, q)}
        ops.append(Op("chain", argv, expect, f"chain d={d}" + ("" if congruent else " incongruent")))
    rng.shuffle(ops)
    return ops


def _subdivided(rng: random.Random, work_dir: Path, refs: dict) -> list[Op]:
    writer = _Writer(work_dir)
    ops = []
    for base in SUBDIVIDED_BASES:
        for ray_count in SUBDIVIDED_RAYS:
            for _ in range(SUBDIVIDED_COPIES.get(ray_count, 1)):
                variant = rng.choice(pooled_variants(refs, base, ray_count))
                fan, rename = relabel(pool_subdivision(base, ray_count, variant), rng, "r")
                back = {new: old for old, new in rename.items()}
                ops.append(Op("check", ["--json", "check", writer.fan(fan)],
                              {"key": subdivision_key(base, ray_count, variant),
                               "names": back},
                              f"{base}/{ray_count}"))
    rng.shuffle(ops)
    return ops


# Found pairs, with how many run a round (each copy a fresh input).  The
# place in the second fan's cone list where the search can first succeed
# follows the order of this list, so each slot, with all its copies, keeps
# its stratum in every seed.  The five W4_1 12-ray pairs come first, scan
# alike, and hold the median: 9 cheaper and 9 dearer ops surround them in a
# 23-op round, and the two rejected d = 5 bundle pairs, the dearest ops,
# hold the tail.
ISO_FOUND = ((("W4_1", 12), 5), (("X3_0", 12), 1), (("X3_0", 13), 1), (("W4_1", 13), 1),
             (("bundle(4;1,0,2)", 12), 1), (("bundle(4;1,0,2)", 13), 1),
             ((1, 0, 2), 2), ((2, 1, 0), 2), ((1, 0, 2, 1), 1), ((0, 1, 1, 3), 1))
# Rejected bundle pairs have different twist sums, hence different
# primitive-relation degrees.
ISO_REJECT_BUNDLES = (((1, 0, 2), (0, 0, 1)), ((2, 1, 1), (1, 0, 0)),
                      ((1, 0, 2, 1), (0, 0, 1, 1)), ((2, 1, 0, 1), (1, 0, 0, 0)))
ISO_REJECT_SUBDIVIDED = (("W4_1", 11), ("X3_0", 11), ("bundle(4;1,0,2)", 11))


def _pooled(refs: dict, rng: random.Random, base: str, ray_count: int) -> FanData:
    return pool_subdivision(base, ray_count, rng.choice(pooled_variants(refs, base, ray_count)))


def _iso(rng: random.Random, work_dir: Path, refs: dict) -> list[Op]:
    writer = _Writer(work_dir)
    pairs = []
    found = [(stratum, slot) for stratum, (slot, copies) in enumerate(ISO_FOUND)
             for _ in range(copies)]
    for stratum, slot in found:
        fan = bundle(slot) if isinstance(slot[0], int) else _pooled(refs, rng, *slot)
        a, _ = relabel(fan, rng, "u")
        b, _ = relabel(a, rng, "v", (stratum + rng.random()) / len(ISO_FOUND))
        pairs.append((a, b, True, f"found {slot}"))
    for p, q in ISO_REJECT_BUNDLES:
        pairs.append((relabel(bundle(p), rng, "u")[0], relabel(bundle(q), rng, "v")[0], False,
                      f"rejected bundle {p} {q}"))
    for base, ray_count in ISO_REJECT_SUBDIVIDED:
        # Different star-size multisets rule out an isomorphism.
        fans = [pool_subdivision(base, ray_count, v)
                for v in pooled_variants(refs, base, ray_count)]
        a, b = rng.choice([(a, b) for a, b in itertools.permutations(fans, 2)
                           if star_sizes(a) != star_sizes(b)])
        pairs.append((relabel(a, rng, "u")[0], relabel(b, rng, "v")[0], False,
                      f"rejected {base}/{ray_count}"))
    ops = []
    for a, b, isomorphic, slot in pairs:
        path_a, path_b = writer.fan(a), writer.fan(b)
        ops.append(Op("iso", ["--json", "iso", path_a, path_b],
                      {"isomorphic": isomorphic, "a": path_a, "b": path_b}, slot))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, work_dir: Path, refs: dict,
             input_set: int = 0) -> list[Op]:
    """The ops of one round of `workload`, with input files under work_dir.

    refs is references.json, whose keys name the pooled inputs.  Each
    input_set of a seed draws its own pool members and relabellings.
    """
    makers = {"pipeline": _pipeline, "subdivided": _subdivided, "iso": _iso}
    rng = random.Random(f"{workload}/{seed}/{input_set}")
    return makers[workload](rng, work_dir, refs)
