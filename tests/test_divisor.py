import os
import subprocess
import sys

import pytest

from conftest import fraction_rank, support_functional

from fanshear import builtin
from fanshear.divisor import (
    FanoClass,
    NefAmpleStatus,
    anticanonical,
    class_group,
    classify_fano,
    irrelevant_data,
    nef_ample_status,
)
from fanshear.fan import fan_isomorphism, make_fan, primitive_relations
from fanshear.lattice import UnimodularMap, vec_add, vec_scale


def p1_fan():
    return make_fan(1, [("e1", (1,)), ("a1", (-1,))], [("e1",), ("a1",)])


def p2_fan():
    return make_fan(
        2,
        [("e1", (1, 0)), ("e2", (0, 1)), ("a1", (-1, -1))],
        [("e1", "e2"), ("e2", "a1"), ("a1", "e1")],
    )


# --- class group -------------------------------------------------------------

def test_p1_class_group():
    data = class_group(p1_fan())
    assert data.picard_rank == 1
    assert data.class_of_ray["e1"] == data.class_of_ray["a1"]
    assert data.class_of_ray["e1"] != (0,)


def test_x30_rank_matches_oracle():
    fan = builtin("X3_0")
    data = class_group(fan)
    assert data.picard_rank == 3
    rows = [list(r.generator) for r in fan.rays]
    assert fraction_rank(rows) == 3  # 6 rays minus rank 3 leaves rank 3


@pytest.mark.parametrize("a", [0, 1, 2, 3, 5])
def test_hirzebruch_class_pattern(a):
    fan = builtin(f"hirzebruch({a})")
    cls = class_group(fan).class_of_ray
    # fibers agree, and the two sections differ by a fibers
    assert cls["b1"] == cls["c1"]
    assert cls["a1"] == vec_add(cls["e1"], vec_scale(a, cls["b1"]))


def test_principal_divisors_have_class_zero(corpus):
    for fan in corpus.values():
        cls = class_group(fan).class_of_ray
        rank = class_group(fan).picard_rank
        for j in range(fan.dimension):
            total = (0,) * rank
            for ray in fan.rays:
                total = vec_add(total, vec_scale(ray.generator[j], cls[ray.name]))
            assert total == (0,) * rank


def test_relation_matrix_holds_generators_as_columns():
    fan = builtin("X3_0")
    data = class_group(fan)
    columns = list(zip(*data.relation_matrix))
    assert [tuple(c) for c in columns] == [r.generator for r in fan.rays]


# --- irrelevant data ----------------------------------------------------------

def test_p2_irrelevant_singletons():
    data = irrelevant_data(p2_fan())
    assert sorted(data.monomials) == [("a1",), ("e1",), ("e2",)]


def test_p1_irrelevant():
    data = irrelevant_data(p1_fan())
    assert sorted(data.monomials) == [("a1",), ("e1",)]


def test_hirzebruch_irrelevant_pairs():
    fan = builtin("hirzebruch(2)")
    data = irrelevant_data(fan)
    assert sorted(data.monomials) == sorted(
        [("a1", "c1"), ("e1", "c1"), ("e1", "b1"), ("a1", "b1")]
    )
    for cone, monomial in zip(fan.max_cones, data.monomials):
        assert set(monomial) == set(fan.ray_names()) - set(cone.ray_names)


# --- nef / ample -------------------------------------------------------------

def test_p2_anticanonical_ample():
    assert nef_ample_status(p2_fan(), anticanonical(p2_fan())) is NefAmpleStatus.AMPLE


def test_x30_anticanonical_nef_not_ample():
    fan = builtin("X3_0")
    assert nef_ample_status(fan, anticanonical(fan)) is NefAmpleStatus.NEF_NOT_AMPLE


def test_f3_anticanonical_not_nef():
    fan = builtin("hirzebruch(3)")
    assert nef_ample_status(fan, anticanonical(fan)) is NefAmpleStatus.NOT_NEF


def test_nef_rejects_wrong_domain():
    fan = p2_fan()
    with pytest.raises(ValueError):
        nef_ample_status(fan, {"e1": 1, "e2": 1})


# --- classification ------------------------------------------------------------

@pytest.mark.parametrize(
    "name,expected",
    [
        ("X3_0", FanoClass.WEAK_FANO_NOT_FANO),
        ("hirzebruch(1)", FanoClass.FANO),
        ("hirzebruch(2)", FanoClass.WEAK_FANO_NOT_FANO),
        ("hirzebruch(5)", FanoClass.NOT_WEAK_FANO),
        ("W4_3", FanoClass.WEAK_FANO_NOT_FANO),
    ],
)
def test_classification(name, expected):
    assert classify_fano(builtin(name)).status is expected


def test_classify_exposes_degrees():
    report = classify_fano(builtin("X3_0"))
    assert sorted(report.relation_degrees) == [0, 1, 2]


def test_nef_status_invariant_under_isomorphism():
    fan = builtin("X3_0")
    m = UnimodularMap(((1, 0, 2), (0, 1, -1), (0, 0, 1)))
    moved = make_fan(
        3,
        [(r.name, m.apply(r.generator)) for r in fan.rays],
        [c.ray_names for c in fan.max_cones],
    )
    assert fan_isomorphism(fan, moved) is not None
    divisor = {"e1": 2, "e2": 1, "a1": 0, "a2": 1, "b1": 3, "c1": 0}
    assert nef_ample_status(fan, divisor) is nef_ample_status(moved, divisor)


def test_support_functionals_agree_on_shared_facets(corpus):
    # piecewise linearity of the -K support function on nef examples
    for name in ("X3_0", "hirzebruch(2)", "W4_1"):
        fan = corpus[name]
        divisor = anticanonical(fan)
        functionals = {
            cone.ray_names: support_functional(fan, cone, divisor)
            for cone in fan.max_cones
        }
        cones = list(fan.max_cones)
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                shared = set(cones[i].ray_names) & set(cones[j].ray_names)
                if len(shared) != fan.dimension - 1:
                    continue
                for n in shared:
                    g = fan.generator(n)
                    vi = sum(functionals[cones[i].ray_names][t] * g[t] for t in range(fan.dimension))
                    vj = sum(functionals[cones[j].ray_names][t] * g[t] for t in range(fan.dimension))
                    assert vi == vj


def test_degree_and_support_criteria_agree(corpus):
    # classify_fano already asserts agreement internally; recompute both
    # sides here explicitly so a regression fails loudly in the test too.
    for fan in corpus.values():
        status = nef_ample_status(fan, anticanonical(fan))
        degrees = [r.degree for r in primitive_relations(fan)]
        if all(d > 0 for d in degrees):
            expected = NefAmpleStatus.AMPLE
        elif all(d >= 0 for d in degrees):
            expected = NefAmpleStatus.NEF_NOT_AMPLE
        else:
            expected = NefAmpleStatus.NOT_NEF
        assert status is expected


# --- internal cross-checks survive python -O ----------------------------------

FORCED_DISAGREEMENTS = {
    "classify_fano": """
import fanshear.divisor as dv
from fanshear import builtin
dv.nef_ample_status = lambda fan, divisor: dv.NefAmpleStatus.NOT_NEF
dv.classify_fano(builtin("hirzebruch(0)"))
""",
    "class_group": """
import fanshear.divisor as dv
from fanshear import builtin
fan = builtin("hirzebruch(0)")
real = dv.lattice.row_echelon
def doubled_pivot(rows):
    transform, echelon, pivots = real(rows)
    echelon[0][pivots[0]] *= 2
    return transform, echelon, pivots
dv.lattice.row_echelon = doubled_pivot
dv.class_group(fan)
""",
    "deform_normal_form": """
import fanshear.deform as dm
from fanshear import builtin
fan = builtin("X3_0")
real = dm.UnimodularMap.inverse
def sheared_inverse(m):
    return dm.lattice.shear_map((1,) * (m.dimension - 1)).compose(real(m))
dm.UnimodularMap.inverse = sheared_inverse
dm.find_splittings(fan)
""",
    "scroll_renormalize": """
import fanshear.scroll as sc
from fanshear.fan import PrimitiveRelation
def covering(fan, collection):
    return PrimitiveRelation(("b1", "c'1"), (("e1", 1), ("e2", 1), ("a1", 1)), -1)
sc.primitive_relation = covering
sc.reduce_step(sc.BundleSpec((2, 0)))
""",
    "scroll_chain": """
import fanshear.scroll as sc
sc._descend = lambda spec: [spec]
sc.deformation_chain(sc.BundleSpec((3, 0)), sc.BundleSpec((0, 0)))
""",
}


@pytest.mark.parametrize("check", sorted(FORCED_DISAGREEMENTS))
def test_internal_checks_raise_under_optimize(check):
    code = (
        "import sys\n"
        "assert False, 'asserts must be stripped'\n"
        "from fanshear.errors import FanError, InternalError\n"
        "assert not issubclass(InternalError, FanError)\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in FORCED_DISAGREEMENTS[check].strip().splitlines())
        + "except InternalError as exc:\n"
        "    print('InternalError:', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InternalError:")
