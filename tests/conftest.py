"""Shared corpus builders and independent oracles.

The oracles here deliberately avoid the library's own linear algebra:
ranks and cone membership are recomputed with Fraction-based Gaussian
elimination so the tests cross-check the integer row-reduction paths.
Primitive collections are recomputed by plain subset enumeration, which
is exponential in the ray count and meant for fans of up to ~14 rays,
and by a walk over every face, which is exponential in the dimension.
Fiber types are recomputed by a full splitting search of the equator and
by the axis test on the built equator, and equators are revalidated with
make_fan.  Fan isomorphism and star equivalence are recomputed by
building the full change-of-basis map of every candidate frame, and
relabelled_image makes isomorphic pairs.
The gluing of a fan's cones is rechecked pair
by pair with Fourier-Motzkin, the check make_fan falls back on when its
completeness certificate fails, and completeness by facet connectivity.
Cone inverses and fibration functionals are recomputed by a determinant
test and a general integral solve, independent of the one row reduction
per cone whose result the library keeps.  The collection-free d-subsets
that fan_from_relations reads its basis from are recomputed by scanning
every combination against every collection, and its one solve is checked
against the loop that tries every such subset as the basis.  Bundle fans
are rebuilt from their relations and revalidated with make_fan,
find_splittings is rerun as the one pass over every axis it was before
its per-axis searches, with the fiber-pair designations read off the
equator of a splitting in the support cone's frame rather than off the
input fan, and a reduction step's splitting is picked out of that full
list.  Primed names are
recomputed with a regular expression for the leading ASCII letters.
Chains are recomputed by walking start's whole descent.  The nef test is
recomputed by names, and the axes by testing every ordered pair of rays.
A record's argument binding, repr, == and hash are recomputed by
exec_frozen, which generates each record's methods from source text as
the package once did.
vec_add and vec_scale are the tests' integer vector helpers.
"""

import random
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from fanshear import builtin, bundle_fan, lattice
from fanshear import deform
from fanshear import fan as fan_module
from fanshear.deform import (
    FiberKind, FiberType, endpoint, fiber_type, find_splittings, split_with_frame,
)
from fanshear.divisor import NefAmpleStatus, class_group
from fanshear.errors import BadFaceStructure, FanError, InconsistentRelations
from fanshear.fan import (
    Ray,
    _certified_complete,
    fan_from_relations,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
)
from fanshear.lattice import UnimodularMap, change_of_basis, shear_map
from fanshear.scroll import BundleSpec, DeformationChain, _renormalized, bundle_presentation


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(k, v):
    return tuple(k * a for a in v)


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


def face_walk_collections(fan):
    """Face-store oracle: minimal non-faces found by extending every face.

    A minimal non-face c is f | x for the face f = c minus its highest ray
    x, and every c ^ b with b in f is a face too.  So one pass over the
    faces, as ray bitmasks, extending each by the rays above its highest
    one, finds every collection exactly once.  It stores all C * 2^d faces,
    so it is exponential in d; ordered as primitive_collections is.
    """
    faces = {0}
    for cone in fan._cone_masks:
        sub = cone
        while sub:
            faces.add(sub)
            sub = (sub - 1) & cone
    bits = [1 << i for i in range(len(fan.rays))]
    found = []
    for face in faces:
        for x in bits:
            candidate = face | x
            if x > face and candidate not in faces and all(
                candidate ^ b in faces for b in bits if b & face
            ):
                found.append(candidate)
    found.sort(key=lambda m: (m.bit_count(), [i for i, b in enumerate(bits) if b & m]))
    names = fan.ray_names()
    return tuple(
        frozenset(n for n, b in zip(names, bits) if b & m) for m in found
    )


def candidate_cones_by_combinations(names, dimension, collections):
    """Combinations-scan oracle of fan._candidate_cones: the d-subsets of
    names containing no collection, in combinations order."""
    return [
        subset for subset in combinations(names, dimension)
        if not any(c.issubset(subset) for c in collections)
    ]


def fan_from_relations_by_every_candidate(dimension, names, relations):
    """fan_from_relations without a basis, as the loop over every candidate:
    each collection-free d-subset, in combinations order, is tried as the
    basis until one yields a valid fan; else the last candidate's error."""
    collections = [frozenset(r.lhs) for r in relations]
    error = InconsistentRelations("no candidate basis cone avoids the given collections")
    for candidate in candidate_cones_by_combinations(names, dimension, collections):
        try:
            return fan_from_relations(dimension, names, relations, candidate)
        except FanError as exc:
            error = exc
    raise error


def projective_space_fan(d):
    """The fan of P^d: rays e0 ... e(d-1) and a = -(e0 + ... + e(d-1)), cones all d-subsets."""
    rays = [(f"e{i}", tuple(int(i == j) for j in range(d))) for i in range(d)]
    rays.append(("a", (-1,) * d))
    names = [n for n, _ in rays]
    return make_fan(d, rays, [[n for n in names if n != left] for left in names])


def det_solve_inverse(columns):
    """Rows of the inverse of the matrix with the given columns, or None.

    A Bareiss determinant decides unimodularity, then solve_integer
    against the identity gives the inverse.
    """
    rows = [list(r) for r in zip(*columns)]
    if abs(lattice.det(rows)) != 1:
        return None
    eye = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
    return tuple(map(tuple, lattice.solve_integer(rows, eye)))


def solve_fibration_functional(fan, up, down):
    """The integral functional vanishing off {up, down}, 1 on up and -1 on down, or None.

    Solved from all the fan's rays at once, with no precondition on up and
    down.
    """
    others = [fan.generator(n) for n in fan.ray_names() if n not in (up, down)]
    rows = others + [fan.generator(up)]
    rhs = [[0]] * len(others) + [[1]]
    try:
        solution = lattice.solve_integer(rows, rhs)
    except (lattice.NoIntegerSolution, lattice.UnderdeterminedSystem):
        return None
    h = tuple(row[0] for row in solution)
    return h if lattice.dot(h, fan.generator(down)) == -1 else None


def facets_pair_up(fan):
    """Completeness by combinatorics: each facet lies in two cones, and the
    facet-adjacency graph of the maximal cones is connected.  Valid on fans,
    whose supports are closed cone complexes."""
    facets = fan._facets
    if any(len(pair) != 2 for pair in facets.values()):
        return False
    adjacent = [[] for _ in fan.max_cones]
    for (j, _), (k, _) in facets.values():
        adjacent[j].append(k)
        adjacent[k].append(j)
    seen = {0}
    queue = [0]
    while queue:
        for j in adjacent[queue.pop()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(fan.max_cones)


def _glued_from(fan, a, b):
    """Whether some functional that vanishes on the common rays and is
    positive on a's other rays is nonpositive on b's other rays."""
    common = a & b
    names = tuple(a)
    inverse = det_solve_inverse([fan.generator(n) for n in names])
    free = [row for n, row in zip(names, inverse) if n not in common]
    off = [fan.generator(n) for n in b - common]
    if len(free) == 1:
        return all(lattice.dot(free[0], g) <= 0 for g in off)
    strict = [tuple(int(i == j) for j in range(len(free))) for i in range(len(free))]
    weak = [tuple(-lattice.dot(row, g) for row in free) for g in off]
    return lattice.linear_feasible(strict, weak)


def pairwise_glued(fan):
    """True when every two maximal cones meet in the cone on their common rays.

    The O(C^2) check make_fan runs when its certificate fails, kept as the
    oracle of the certificate.  The fan may be built unvalidated, with
    Fan(...); the first failing pair raises BadFaceStructure with
    make_fan's message.
    """
    for a, b in combinations(fan.cone_sets, 2):
        if not (_glued_from(fan, a, b) and _glued_from(fan, b, a)):
            raise BadFaceStructure(
                f"cones {fan.sort_names(a)} and {fan.sort_names(b)} do not meet in a common face"
            )
    return True


@contextmanager
def fourier_motzkin_calls():
    """Yield a list that records each lattice.linear_feasible call in the block."""
    real = lattice.linear_feasible
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    lattice.linear_feasible = counted
    try:
        yield calls
    finally:
        lattice.linear_feasible = real


def check_certified(fan):
    """make_fan rebuilds the fan by its certificate alone; the oracle agrees."""
    assert _certified_complete(fan)
    with fourier_motzkin_calls() as calls:
        assert make_fan(fan.dimension, fan.rays, fan.max_cones) == fan
    assert not calls
    assert pairwise_glued(fan)


def fan_isomorphism_by_frames(f1, f2):
    """fan_isomorphism by building the map of every candidate frame.

    Tries the ordered maximal cones of f2 in the same order as
    fan_isomorphism, as images of f1's first maximal cone, and returns the
    first map carrying every ray of f1 to a ray of f2 and the cones onto
    the cones; None if there is none.
    """
    if len(f1.rays) != len(f2.rays) or len(f1.max_cones) != len(f2.max_cones):
        return None
    anchor_cols = [f1.generator(n) for n in f1.max_cones[0].ray_names]
    target_names = {r.generator: r.name for r in f2.rays}
    f2_cones = set(f2.cone_sets)
    for cone in f2.max_cones:
        for perm in permutations(cone.ray_names):
            candidate = change_of_basis(anchor_cols, [f2.generator(n) for n in perm])
            name_map = {r.name: target_names.get(candidate.apply(r.generator)) for r in f1.rays}
            if None in name_map.values():
                continue
            if {frozenset(name_map[n] for n in cs) for cs in f1.cone_sets} == f2_cones:
                return candidate
    return None


def carries_cones(iso, f1, f2):
    """Whether iso maps the generator set of each cone of f1 onto one of f2."""
    image = {frozenset(iso.apply(f1.generator(n)) for n in cs) for cs in f1.cone_sets}
    return image == {frozenset(f2.generator(n) for n in cs) for cs in f2.cone_sets}


def relabelled_image(fan, seed, anchored=False):
    """fan under a random unimodular map, with its rays, cones and cone orders shuffled.

    With anchored, the image of fan's first cone stays first, in the same
    order except that its last two rays swap places, so the frame search
    meets an isomorphism within the first two frames it tries.
    """
    rng = random.Random(seed)
    d = fan.dimension
    carry = UnimodularMap.identity(d)
    for _ in range(3):
        order = rng.sample(range(d), d)
        permute = UnimodularMap(tuple(tuple(int(j == k) for j in range(d)) for k in order))
        shear = shear_map([rng.randint(-2, 2) for _ in range(d - 1)])
        carry = shear.compose(permute).compose(carry)
    rays = list(fan.rays)
    rng.shuffle(rays)
    new_name = {r.name: f"m{i}" for i, r in enumerate(rays)}
    cones = [rng.sample(c.ray_names, d) for c in fan.max_cones]
    rng.shuffle(cones)
    if anchored:
        first = list(fan.max_cones[0].ray_names)
        first[-2:] = first[:-3:-1]
        cones = [first] + [c for c in cones if set(c) != set(first)]
    return make_fan(
        d,
        [(new_name[r.name], carry.apply(r.generator)) for r in rays],
        [[new_name[n] for n in c] for c in cones],
    )


def star_equivalent_by_frames(fan, a, b):
    """star_equivalent by building the map of every candidate frame.

    Sends an ordered cone of a's star, a first, to every ordered cone of
    b's star, b first, and compares the images of the star's cones as
    sets of generators.
    """
    star_a = [cs for cs in fan.cone_sets if a in cs]
    star_b = [cs for cs in fan.cone_sets if b in cs]
    if len(star_a) != len(star_b):
        return False
    gens_a = {frozenset(fan.generator(n) for n in cs) for cs in star_a}
    gens_b = {frozenset(fan.generator(n) for n in cs) for cs in star_b}
    anchor = [fan.generator(n) for n in (a, *fan.sort_names(star_a[0] - {a}))]
    for cs in star_b:
        for perm in permutations(fan.sort_names(cs - {b})):
            carry = change_of_basis(anchor, [fan.generator(n) for n in (b, *perm)])
            if {frozenset(map(carry.apply, cone)) for cone in gens_a} == gens_b:
                return True
    return False


def fiber_type_by_search(split):
    """fiber_type with its bundle case decided by searching all splittings.

    The equator is a bundle over the line with the designated pair as its
    poles when some splitting of the equator has the pivot as upper ray
    and the partner as lower ray.
    """
    pivot, partner = split.pivot_name, split.partner_name
    other = FiberType(FiberKind.OTHER, None)
    if partner is None:
        return other
    equator = split.equator
    names = equator.ray_names()
    if (
        len(names) == split.dimension
        and not any(map(sum, zip(*(r.generator for r in equator.rays))))
        and primitive_collections(equator) == (frozenset(names),)
    ):
        kind = FiberKind.PROJECTIVE_SPACE
    elif any(
        sub.upper_names == (pivot,) and sub.lower_names == (partner,)
        for sub in find_splittings(equator)
    ):
        kind = FiberKind.BUNDLE_OVER_P1
    else:
        return other
    classes = class_group(equator).class_of_ray
    if classes[pivot] == classes[partner] and star_equivalent_by_frames(equator, pivot, partner):
        return FiberType(kind, (pivot, partner))
    return other


def fiber_type_on_equator(split):
    """fiber_type decided on the splitting's built equator.

    No rest ray makes the fiber Other; the equator is a projective space
    when it has one ray more than its dimension, and a bundle over the
    line with the pivot and the first rest ray as poles when _is_axis holds
    on the equator itself.
    """
    pivot, partner = split.pivot_name, split.partner_name
    if partner is None:
        return FiberType(FiberKind.OTHER, None)
    equator = split.equator
    if len(equator.rays) == equator.dimension + 1:
        return FiberType(FiberKind.PROJECTIVE_SPACE, (pivot, partner))
    if not deform._is_axis(equator, pivot, partner):
        return FiberType(FiberKind.OTHER, None)
    return FiberType(FiberKind.BUNDLE_OVER_P1, (pivot, partner))


def check_splittings_against_oracles(fan):
    """Check every splitting of the fan against the oracles; return their number.

    Each splitting has one upper and one lower ray, every maximal cone
    holds exactly one of them, and the cones through either one minus that
    ray are the equator cones.  fiber_type agrees with fiber_type_by_search,
    and the equator is the normal-form fan's equator rays with the last
    coordinate dropped, which make_fan accepts as a complete fan.
    """
    splits = find_splittings(fan)
    for split in splits:
        # Splitting keeps the ray names as tuples; each holds exactly one ray
        (up,), (down,) = split.upper_names, split.lower_names
        assert fiber_type(split) == fiber_type_by_search(split)
        axis = {up, down}
        equator = split.equator
        assert all(len(cs & axis) == 1 for cs in split.fan.cone_sets)
        facets = {ray: {cs - {ray} for cs in split.fan.cone_sets if ray in cs} for ray in axis}
        assert facets[up] == facets[down] == set(equator.cone_sets)
        assert equator.dimension == split.dimension - 1
        assert equator.rays == tuple(
            Ray(r.name, r.generator[:-1]) for r in split.fan.rays if r.name not in axis
        )
        rebuilt = make_fan(equator.dimension, equator.rays, equator.max_cones)
        assert rebuilt == equator
        assert is_complete(rebuilt)
    return len(splits)


@pytest.fixture
def solves(monkeypatch):
    """The basis cones fan._solve_presentation is called with, in call order."""
    bases = []
    real = fan_module._solve_presentation
    monkeypatch.setattr(
        fan_module, "_solve_presentation", lambda *args: bases.append(args[4]) or real(*args)
    )
    return bases


@pytest.fixture
def built_splittings(monkeypatch):
    """The splittings whose base fan is computed, in order.

    Each base fan is checked once, by deform._check_invariants, when it is
    computed.
    """
    built = []
    real = deform._check_invariants
    monkeypatch.setattr(
        deform, "_check_invariants", lambda split, fan: built.append(split) or real(split, fan)
    )
    return built


@pytest.fixture
def drawn_splittings(monkeypatch):
    """The Splitting records constructed, in order."""
    drawn = []
    real = deform.Splitting.__init__

    def init(self, *args, **kwargs):
        drawn.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(deform.Splitting, "__init__", init)
    return drawn


def find_splittings_in_one_pass(fan):
    """find_splittings as one loop over every orientation of every axis.

    The fiber-pair designations are read off the equator of a splitting
    in the support cone's frame: a projective-space equator (one ray more
    than its dimension) designates its largest-coefficient support ray,
    and any other equator each of its own ordered fibration axes.
    """
    out = []
    for collection in primitive_collections(fan):
        if len(collection) != 2:
            continue
        first, second = fan.sort_names(collection)
        for up, down in ((first, second), (second, first)):
            if not deform._is_axis(fan, up, down):
                continue
            eq_names, eq_cone_sets = deform._equator(fan, (up, down))
            relation = primitive_relation(fan, collection)
            support_names = frozenset(n for n, _ in relation.support)
            support_cone = deform._basis_cone(eq_cone_sets, None, support_names)
            equator = split_with_frame(fan, up, down, fan.sort_names(support_cone)).equator
            if len(equator.rays) == equator.dimension + 1:
                first_ray = (equator.rays[0].name, 0)
                pivot = max(relation.support,
                            key=lambda item: (item[1], -equator._order[item[0]]), default=first_ray)
                designations = [(pivot[0], None)]
            else:
                designations = [
                    (p, q) for x, y in combinations(equator.ray_names(), 2)
                    for p, q in ((x, y), (y, x)) if deform._is_axis(equator, p, q)
                ] or [(None, None)]
            for pivot, partner in designations:
                tau = deform._basis_cone(eq_cone_sets, pivot, support_names)
                if pivot is None:
                    pivot = fan.sort_names(tau)[0]
                if partner in tau:
                    continue
                basis_names = (pivot, *[n for n in fan.sort_names(tau) if n != pivot])
                split = split_with_frame(fan, up, down, basis_names, partner)
                rest = [n for n in eq_names if n not in tau and n != partner]
                assert split.rest_names == (*([partner] if partner else []), *rest)
                out.append(split)
    return tuple(out)


def prime_name_by_regex(name, taken):
    """deform._prime_name by a regular expression: the prime goes after the leading [A-Za-z]+.

    With no leading ASCII letter it goes at the end; while the name is
    taken, it moves one character right.
    """
    match = re.match(r"[A-Za-z]+", name)
    pos = match.end() if match else len(name)
    candidate = name[:pos] + "'" + name[pos:]
    while candidate in taken:
        pos += 1
        candidate = candidate[:pos] + "'" + candidate[pos:]
    return candidate


def reduce_step_by_search(spec):
    """The (b1, c1) splitting and the sheared fan of a reduction step, by the slow path.

    The bundle fan is rebuilt from its relations, and the splitting is the
    first of all its splittings with upper ray b1 and lower ray c1.
    """
    fan = fan_from_relations(spec.dimension, *bundle_presentation(spec))
    split = next(
        s for s in find_splittings_in_one_pass(fan)
        if s.upper_names == ("b1",) and s.lower_names == ("c1",)
    )
    return split, endpoint(split, 1)


def chain_by_full_descent(start, end):
    """deformation_chain by walking start's whole descent, then end's until it meets it.

    With no cap: the chain runs down start's descent to the first spec of
    end's descent on it, then back up end's.
    """
    start, end = start.sorted(), end.sorted()
    if (sum(start.twists) - sum(end.twists)) % start.dimension:
        return None
    down = [start]
    while max(down[-1].twists) >= 2:
        down.append(_renormalized(down[-1]))
    up = [end]
    while up[-1] not in down:
        up.append(_renormalized(up[-1]))
    return DeformationChain((*down[: down.index(up[-1]) + 1], *up[-2::-1]))


def nef_ample_status_by_names(fan, divisor):
    """nef_ample_status by names: per cone, the functional agreeing with the
    divisor on its rays is compared, ray name by ray name, with the divisor
    on every ray the cone does not hold."""
    saw_equality = False
    for cone, inv in zip(fan.max_cones, fan._inverses):
        names = cone.ray_names
        coeffs = [-divisor[n] for n in names]
        m = tuple(
            sum(coeffs[t] * inv[t][j] for t in range(fan.dimension))
            for j in range(fan.dimension)
        )
        for name in fan.ray_names():
            if name in names:
                continue
            slack = lattice.dot(m, fan.generator(name)) + divisor[name]
            if slack < 0:
                return NefAmpleStatus.NOT_NEF
            if slack == 0:
                saw_equality = True
    return NefAmpleStatus.NEF_NOT_AMPLE if saw_equality else NefAmpleStatus.AMPLE


def axes_by_pair_scan(fan, names, outer=()):
    """The oriented axes (up, down) among names, by _is_axis on every ordered pair.

    In the order of combinations(names, 2), each pair's two orientations in
    turn; with outer an axis of the fan, the axes of its equator.
    """
    return [
        (up, down) for x, y in combinations(names, 2)
        for up, down in ((x, y), (y, x)) if deform._is_axis(fan, up, down, outer)
    ]


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


def exec_frozen(cls):
    """fanshear._record.frozen as it was: each method compiled from generated source."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    sets = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine, theirs = ("(" + "".join(f"{o}.{n}, " for n in names) + ")" for o in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self{params}):\n{sets}{post}"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({mine})\n"
    )
    namespace = {"_setattr": object.__setattr__, "_defaults": defaults}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name == "__hash__" and cls.__dict__.get(name) is not None:
            continue  # the class's own hash
        setattr(cls, name, namespace[name])
    return cls
