"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Budgets are enforced with perf_counter around the
computational core of each criterion.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from conftest import catalog_names, fraction_solve, full_corpus

from fanshear import builtin
from fanshear.catalog import entry, names, verify_weakened
from fanshear.deform import FiberKind, endpoint, endpoint_conditions, fiber_type, find_splittings
from fanshear.divisor import (
    FanoClass,
    NefAmpleStatus,
    anticanonical,
    classify_fano,
    nef_ample_status,
)
from fanshear.fan import (
    FormalRelation,
    fan_from_relations,
    fan_isomorphism,
    is_complete,
    primitive_relations,
)
from fanshear.fileformats import parse_fan, serialize_fan
from fanshear.scroll import BundleSpec, deformation_chain, reduce_step


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} ({name}): FAIL [took {elapsed:.2f}s, budget {budget_seconds}s]")
        pytest.fail(f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    budget = f" [{elapsed:.2f}s < {budget_seconds}s]" if budget_seconds else f" [{elapsed:.2f}s]"
    print(f"ACCEPTANCE {number} ({name}): PASS{budget}")


def test_criterion_1_hirzebruch_ladder():
    with criterion(1, "Hirzebruch ladder", 1.0):
        for a in range(9):
            fan = builtin(f"hirzebruch({a})")
            for k in range(a // 2 + 1):
                split = next(
                    s for s in find_splittings(fan) if endpoint_conditions(s, k)
                )
                end = endpoint(split, k)
                target = builtin(f"hirzebruch({a - 2 * k})")
                assert fan_isomorphism(end, target) is not None, (a, k)


def test_criterion_2_weakened_threefold_end_to_end():
    with criterion(2, "weakened 3-fold end to end", 1.0):
        item = entry("X3_0")
        fan = builtin("X3_0")
        assert fan.generator("a1") == (-1, 1, 0)
        assert classify_fano(fan).status is FanoClass.WEAK_FANO_NOT_FANO
        split = next(
            s for s in find_splittings(fan) if endpoint_conditions(s, 1)
        )
        kind = fiber_type(split)
        assert kind.kind is FiberKind.BUNDLE_OVER_P1
        assert fan_isomorphism(split.equator, builtin("hirzebruch(1)")) is not None
        end = endpoint(split, 1)
        rels = {r.collection: dict(r.support) for r in primitive_relations(end)}
        assert rels == {
            ("e1", "a1"): {"e2": 1},
            ("e2", "a2"): {},
            ("b1", "c'1"): {"e2": 1},
        }
        assert classify_fano(end).status is FanoClass.FANO
        report = verify_weakened(item)
        assert report.ok


def test_criterion_3_fourfold_catalog():
    with criterion(3, "weakened 4-fold catalog", 10.0):
        for name in names():
            if not name.startswith("W4_"):
                continue
            report = verify_weakened(entry(name))
            assert report.ok, (name, [s for s in report.stages if not s.ok])


def two_branch_formula(twists):
    """Expected support of the new two-ray relation, for descending twists."""
    d = len(twists) + 1
    nonzero = sum(1 for p in twists if p > 0)
    coefficients = {}
    if nonzero < d - 1:
        head = [twists[0] - 1] + [p for p in twists[1:]]
        for i, c in enumerate(head):
            if c > 0:
                coefficients[f"e{i + 1}"] = c
        coefficients["a1"] = 1
    else:
        head = [twists[0] - 2] + [p - 1 for p in twists[1:]]
        for i, c in enumerate(head):
            if c > 0:
                coefficients[f"e{i + 1}"] = c
    return coefficients


def test_criterion_4_reduction_formula():
    with criterion(4, "k=1 reduction formula", 5.0):
        for d in (2, 3, 4):
            for twists in product(range(5), repeat=d - 1):
                if max(twists) < 2:
                    continue
                step = reduce_step(BundleSpec(twists))
                assert dict(step.relation.support) == two_branch_formula(step.spec.twists), twists
                assert (sum(step.renormalized.twists) - sum(twists)) % d == 0, twists


def chain_edge_is_reduction(a, b):
    a, b = a.sorted(), b.sorted()
    if max(a.twists) >= 2 and reduce_step(a).renormalized.sorted() == b:
        return True
    return max(b.twists) >= 2 and reduce_step(b).renormalized.sorted() == a


def test_criterion_5_deformation_chains():
    with criterion(5, "deformation chains", 10.0):
        for d in (2, 3):
            vectors = [
                tw for tw in product(range(10), repeat=d - 1) if sum(tw) <= 9
            ]
            for start in vectors:
                for end in vectors:
                    chain = deformation_chain(BundleSpec(start), BundleSpec(end))
                    congruent = (sum(start) - sum(end)) % d == 0
                    assert (chain is not None) == congruent, (start, end)
                    if chain is None:
                        continue
                    assert chain.specs[0] == BundleSpec(start).sorted()
                    assert chain.specs[-1] == BundleSpec(end).sorted()
                    for a, b in zip(chain.specs, chain.specs[1:]):
                        assert chain_edge_is_reduction(a, b), (start, end, a, b)


def fraction_cone_inverse(columns):
    dim = len(columns)
    rows = []
    for i in range(dim):
        unit = [1 if j == i else 0 for j in range(dim)]
        col = fraction_solve(columns, unit)
        assert col is not None
        rows.append(col)
    # entries of the inverse of a unimodular matrix are integers
    inverse_rows = [[int(rows[j][i]) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            assert rows[j][i] == inverse_rows[i][j]
    return inverse_rows


def montecarlo_complete(fan, directions):
    inverses = [
        fraction_cone_inverse([fan.generator(n) for n in cone.ray_names])
        for cone in fan.max_cones
    ]
    for v in directions:
        contained = False
        for inv in inverses:
            for row in inv:
                if sum(r * x for r, x in zip(row, v)) < 0:
                    break
            else:
                contained = True
                break
        if not contained:
            return False
    return True


def test_criterion_6_oracle_equivalence():
    corpus = full_corpus()
    with criterion(6, "oracle equivalence", None):
        rng = random.Random(20230814)
        disagreements = []
        for name, fan in corpus.items():
            degrees = [r.degree for r in primitive_relations(fan)]
            if all(x > 0 for x in degrees):
                by_degree = NefAmpleStatus.AMPLE
            elif all(x >= 0 for x in degrees):
                by_degree = NefAmpleStatus.NEF_NOT_AMPLE
            else:
                by_degree = NefAmpleStatus.NOT_NEF
            by_support = nef_ample_status(fan, anticanonical(fan))
            if by_degree is not by_support:
                disagreements.append(("fano", name))
            directions = []
            while len(directions) < 1000:
                v = tuple(rng.randint(-9, 9) for _ in range(fan.dimension))
                if any(v):
                    directions.append(v)
            if montecarlo_complete(fan, directions) != is_complete(fan):
                disagreements.append(("complete", name))
        assert disagreements == []


def test_criterion_7_round_trips():
    with criterion(7, "round trips", None):
        for name in catalog_names():
            fan = builtin(name)
            relations = [
                FormalRelation(r.collection, tuple((k, n) for n, k in r.support))
                for r in primitive_relations(fan)
            ]
            rebuilt = fan_from_relations(
                fan.dimension, fan.ray_names(), relations, fan.max_cones[0].ray_names
            )
            assert fan_isomorphism(rebuilt, fan) is not None, name
            assert parse_fan(serialize_fan(fan)) == fan, name


def test_acceptance_suite_passes_under_python_O():
    """The criteria above again, in a python -O child that deselects this test."""
    here = Path(__file__)
    node = f"{here.parent.name}/{here.name}::test_acceptance_suite_passes_under_python_O"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here.parent.name}/{here.name}", "--deselect", node],
        capture_output=True, text=True, env=env, cwd=here.parent.parent, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7 passed, 1 deselected" in proc.stdout
