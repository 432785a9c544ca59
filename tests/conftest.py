"""Shared corpus builders and independent oracles.

The oracles here deliberately avoid the library's own linear algebra:
ranks and cone membership are recomputed with Fraction-based Gaussian
elimination so the tests cross-check the integer row-reduction paths.
Primitive collections are recomputed by plain subset enumeration, which
is exponential in the ray count and meant for fans of up to ~14 rays.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from fanshear import builtin, bundle_fan
from fanshear.scroll import BundleSpec


def fraction_rank(rows):
    """Row rank over Q, by plain Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_solve(columns, target):
    """Solve sum_i x_i * columns[i] == target over Q; None if singular."""
    n = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(len(columns))] + [Fraction(target[i])]
           for i in range(n)]
    for c in range(len(columns)):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][-1] for i in range(len(columns))]


def direction_in_fan(fan, vector):
    """Membership of the direction in the fan's support, solved over Q."""
    for cone in fan.max_cones:
        columns = [fan.generator(n) for n in cone.ray_names]
        coeffs = fraction_solve(columns, vector)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            return True
    return False


def brute_collections(fan):
    """Subset-enumeration oracle: minimal ray sets lying in no maximal cone.

    Ordered by size, then by ray order, as primitive_collections is.
    """
    names = fan.ray_names()
    cone_sets = [set(c.ray_names) for c in fan.max_cones]

    def is_face(s):
        return any(s <= cs for cs in cone_sets)

    out = []
    for size in range(1, len(names) + 1):
        for sub in combinations(names, size):
            s = set(sub)
            if not is_face(s) and all(is_face(s - {n}) for n in s):
                out.append(frozenset(s))
    return tuple(out)


def support_functional(fan, cone, divisor):
    """The linear form agreeing with -divisor on the cone's rays, over Q."""
    columns = [fan.generator(n) for n in cone.ray_names]
    n = len(columns)
    # Solve m . column_i = -divisor_i, i.e. transpose system.
    rows = [[Fraction(columns[i][j]) for j in range(n)] for i in range(n)]
    target = [-divisor[name] for name in cone.ray_names]
    sol = fraction_solve([list(r) for r in zip(*rows)], target)
    return sol


def bundle_specs_for_reduction():
    """Sorted twist vectors with entries <= 4 and max >= 2, d in {2, 3, 4}."""
    out = []
    for d in (2, 3, 4):
        for tw in combinations_with_replacement(range(4, -1, -1), d - 1):
            if max(tw) >= 2:
                out.append(BundleSpec(tw))
    return out


def bundle_specs_for_chains():
    """Sorted twist vectors with sum <= 9, d in {2, 3}."""
    out = []
    for d in (2, 3):
        for tw in combinations_with_replacement(range(9, -1, -1), d - 1):
            if sum(tw) <= 9:
                out.append(BundleSpec(tw))
    return out


def catalog_names():
    return [f"hirzebruch({a})" for a in range(9)] + [
        "X3_0", "W4_1", "W4_2", "W4_3", "W4_4",
        "W4_5", "W4_6", "W4_7", "W4_8", "W4_9",
    ]


def full_corpus():
    """Every catalog fan plus every bundle fan the acceptance suite touches."""
    fans = {}
    for name in catalog_names():
        fans[name] = builtin(name)
    for spec in bundle_specs_for_reduction() + bundle_specs_for_chains():
        key = f"bundle{(spec.dimension,) + spec.twists}"
        if key not in fans:
            fans[key] = bundle_fan(spec)
    return fans


@pytest.fixture(scope="session")
def corpus():
    return full_corpus()
