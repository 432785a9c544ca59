import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import projective_space_fan

from fanshear import builtin, cli, deform, divisor
from fanshear import fan as fan_module
from fanshear.cli import main
from fanshear.fan import fan_isomorphism
from fanshear.fileformats import parse_fan, serialize_fan


@pytest.fixture
def fan_file(tmp_path):
    def write(name, catalog_name):
        path = tmp_path / name
        path.write_text(serialize_fan(builtin(catalog_name)))
        return str(path)

    return write


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def text_keys(out):
    return {line.split(":", 1)[0] for line in out.strip().splitlines() if ":" in line}


def test_main_freezes_the_callers_objects_only_while_it_runs(fan_file, capsys, monkeypatch):
    real = cli._main
    during = []
    monkeypatch.setattr(
        cli, "_main", lambda argv: during.append(gc.get_freeze_count()) or real(argv)
    )
    path = fan_file("x.fan", "X3_0")
    assert gc.get_freeze_count() == 0
    assert run(capsys, "check", path)[0] == 0
    assert during[0] > 0 and gc.get_freeze_count() == 0
    gc.freeze()  # a caller's own freeze is kept
    try:
        assert run(capsys, "check", path)[0] == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


# --- check / relations --------------------------------------------------------

def test_check_weak_fano(fan_file, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "check", path)
    assert status == 0
    assert "smooth: true" in out
    assert "complete: true" in out
    assert "fano: WeakFanoNotFano" in out
    assert "relation: b1+c1 = 2*e1" in out


def test_check_incomplete_fan_fails(tmp_path, capsys):
    path = tmp_path / "half.fan"
    path.write_text("dim 2\nray x 1 0\nray y 0 1\ncone x y\n")
    status, out = run(capsys, "check", str(path))
    assert status == 1
    assert "complete: false" in out


def test_check_singular_cone_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.fan"
    path.write_text("dim 2\nray x 1 0\nray y 1 2\ncone x y\n")
    status, out = run(capsys, "check", str(path))
    assert status == 1
    assert "SingularCone" in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.fan"
    path.write_text("dim 2\nray x 1 oops\n")
    status, out = run(capsys, "check", str(path))
    assert status == 2
    assert "line 2" in out


def test_an_underscored_coordinate_exits_two(tmp_path, capsys):
    # int() alone reads 1_0 as 10, and the cone (a, b) is then singular
    path = tmp_path / "broken.fan"
    path.write_text("dim 2\nray a 1_0 1\nray b 0 1\ncone a b\n")
    status, out = run(capsys, "check", str(path))
    assert status == 2
    assert out == "error: line 2: expected an integer, got '1_0'\n"


def test_missing_file_exits_two(capsys):
    status, _ = run(capsys, "check", "does-not-exist.fan")
    assert status == 2


def test_directory_as_fan_file_exits_two(tmp_path, capsys):
    status, out = run(capsys, "check", str(tmp_path))
    assert status == 2
    assert out.startswith("error: ")


def test_fan_files_are_read_as_utf8_with_any_line_ending(fan_file, tmp_path, capsys):
    path = Path(fan_file("f.fan", "X3_0"))
    expected = run(capsys, "check", str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run(capsys, "check", str(path)) == (0, expected[1])
    path.write_bytes(b"dim 1\nray \xff 1\n")
    status, out = run(capsys, "check", str(path))
    assert status == 2
    assert out.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_check_of_projective_24_space_takes_one_search_step_per_ray(
    tmp_path, capsys, monkeypatch
):
    # A walk over the faces would store 25 * 2^24 of them; the transversal
    # search grows the one collection a ray at a time, plus its root.
    steps = []
    real = fan_module._extend
    monkeypatch.setattr(fan_module, "_extend", lambda *args: steps.append(1) or real(*args))
    path = tmp_path / "p24.fan"
    path.write_text(serialize_fan(projective_space_fan(24)))
    status, out = run(capsys, "check", str(path))
    assert status == 0
    assert "fano: Fano" in out and "relation_degree: 25" in out
    assert len(steps) == 26


def test_relations_lists_degrees(fan_file, capsys):
    path = fan_file("f.fan", "hirzebruch(3)")
    status, out = run(capsys, "relations", path)
    assert status == 0
    assert "relation: b1+c1 = 3*e1" in out
    assert "relation_degree: -1" in out


# --- split / deform / iso -------------------------------------------------------

def test_split_reports_labels(fan_file, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "split", path)
    assert status == 0
    assert "splittings: 4" in out
    assert "fiber: BundleOverP1" in out
    assert "fiber_pair: e1,a1" in out


def test_no_command_reads_a_divisor_result_twice(fan_file, tmp_path, capsys, monkeypatch):
    # classify_fano and class_group compute on every call, with no cache on
    # the fan: no command classifies one fan twice, and none builds a class
    # group.  The fans stay in the list, so no id is reused within a command.
    fans, groups = [], []
    real_fano, real_group = divisor.classify_fano, divisor.class_group
    monkeypatch.setattr(divisor, "classify_fano", lambda fan: fans.append(fan) or real_fano(fan))
    monkeypatch.setattr(divisor, "class_group", lambda fan: groups.append(fan) or real_group(fan))
    x30, w43 = fan_file("x.fan", "X3_0"), fan_file("w.fan", "W4_3")
    commands = [
        ["catalog", "show", "X3_0", "--out", str(tmp_path / "shown.fan")],
        ["catalog", "verify", "all"],
        ["chain", "--dim", "4", "--from", "3,2,0", "--to", "1,1,1", "--out-dir", str(tmp_path / "c")],
        ["iso", x30, x30],
        ["iso", w43, x30],
    ]
    for path in (x30, w43):
        commands += [
            ["check", path], ["relations", path], ["split", path],
            ["deform", path, "--k", "1", "--out", str(tmp_path / "end.fan")],
            ["deform", path, "--k", "0", "--splitting", "1", "--out", str(tmp_path / "end.fan")],
        ]
    classified = 0
    for argv in commands:
        fans.clear()
        run(capsys, *argv)
        assert len({id(fan) for fan in fans}) == len(fans), argv
        classified += len(fans)
    assert groups == []
    assert classified >= 20  # check, deform and verify all do classify


def test_deform_then_iso(fan_file, tmp_path, capsys):
    f3 = fan_file("F3.fan", "hirzebruch(3)")
    f1 = fan_file("F1.fan", "hirzebruch(1)")
    out_path = str(tmp_path / "out.fan")
    status, out = run(capsys, "deform", f3, "--k", "1", "--out", out_path)
    assert status == 0
    assert "conditions: satisfied" in out
    assert f"endpoint_written: {out_path}" in out
    status, out = run(capsys, "iso", out_path, f1)
    assert status == 0
    assert "isomorphic: true" in out


def test_deform_out_directory_exits_two(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "deform", path, "--k", "1", "--out", str(tmp_path))
    assert status == 2
    assert out.splitlines()[-1].startswith("error: ")


def test_deform_endpoint_relations(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    out_path = str(tmp_path / "end.fan")
    status, out = run(capsys, "deform", path, "--k", "1", "--out", out_path)
    assert status == 0
    assert "endpoint_relation: b1+c'1 = e2" in out
    assert "endpoint_fano: Fano" in out
    end = parse_fan((tmp_path / "end.fan").read_text())
    assert fan_isomorphism(end, builtin("X3_0")) is None  # genuinely deformed


def test_deform_infeasible_k(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "deform", path, "--k", "9", "--out", str(tmp_path / "o.fan"))
    assert status == 1
    assert "conditions: violated" in out
    assert "violation" in out


def test_deform_explicit_splitting_index(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(
        capsys, "deform", path, "--k", "1", "--splitting", "0",
        "--out", str(tmp_path / "o.fan"),
    )
    assert status == 0
    status, out = run(
        capsys, "deform", path, "--k", "1", "--splitting", "99",
        "--out", str(tmp_path / "o.fan"),
    )
    assert status == 2


@pytest.mark.parametrize("index", ["4", "99", "-1", "99999999999999999999999"])
def test_deform_splitting_index_out_of_range_exits_two(fan_file, tmp_path, capsys, index):
    # X3_0 has four splittings, 0 to 3
    path = fan_file("x.fan", "X3_0")
    out_path = tmp_path / "o.fan"
    status, out = run(capsys, "deform", path, "--k", "1", "--splitting", index,
                      "--out", str(out_path))
    assert status == 2
    assert out.splitlines()[-1] == f"error: no splitting with index {index}"
    assert not out_path.exists()


def test_deform_builds_splittings_only_up_to_the_one_it_deforms(
    fan_file, tmp_path, capsys, built_splittings
):
    path = fan_file("w.fan", "W4_2")
    splittings = deform.find_splittings(builtin("W4_2"))
    first = deform._first_deformable(splittings, 1)[0]
    built_splittings.clear()
    status, out = run(capsys, "deform", path, "--k", "1", "--out", str(tmp_path / "o.fan"))
    assert status == 0 and f"splitting: {first}" in out.splitlines()
    # 12 splittings; the command draws them up to the first deformable one,
    # and only that one computes its base fan, and no half-fan or equator
    assert 0 < first < len(splittings) - 1 and built_splittings == [splittings[first]]
    assert not {"upper", "lower", "equator"} & set(vars(built_splittings[0]))
    built_splittings.clear()
    status, out = run(capsys, "deform", path, "--k", "1", "--splitting", "2",
                      "--out", str(tmp_path / "o.fan"))
    assert status == 1 and built_splittings == []
    assert [line.split(":")[1] for line in out.splitlines() if line.startswith("violation")] == [
        " splitting 2"
    ]


def test_deform_lists_every_violation_when_no_splitting_is_deformable(
    fan_file, tmp_path, capsys, built_splittings
):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "deform", path, "--k", "9", "--out", str(tmp_path / "o.fan"))
    assert status == 1
    violated = {line.split(":")[1] for line in out.splitlines() if line.startswith("violation")}
    # the violations are read off the splittings: no base fan is computed
    assert violated == {f" splitting {i}" for i in range(4)} and built_splittings == []


@pytest.mark.parametrize("argv,flag,value", [
    (["deform", "x.fan", "--k", "0_1"], "--k", "'0_1'"),
    (["deform", "x.fan", "--k", "1", "--splitting", "1_0"], "--splitting", "'1_0'"),
    (["deform", "x.fan", "--k", " 1"], "--k", "' 1'"),
    (["chain", "--dim", "\uff13", "--from", "1,0", "--to", "1,0"], "--dim", "'\uff13'"),
    (["chain", "--dim", "\u0663", "--from", "1,0", "--to", "1,0"], "--dim", "'\u0663'"),
])
def test_integer_options_are_ascii_integers(capsys, argv, flag, value):
    # int() would read 1, 10, 1, 3 and 3; the plain parser gives these to argparse
    assert cli._parse_plain(argv) is None
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.endswith(f"error: argument {flag}: invalid int value: {value}")


def test_split_reports_zero_when_no_fibration(tmp_path, capsys):
    # the projective plane has no two-element primitive collection
    path = tmp_path / "p2.fan"
    path.write_text(
        "dim 2\nray e1 1 0\nray e2 0 1\nray a1 -1 -1\n"
        "cone e1 e2\ncone e2 a1\ncone a1 e1\n"
    )
    status, out = run(capsys, "split", str(path))
    assert status == 0
    assert "splittings: 0" in out


def test_deform_without_any_splitting_fails(tmp_path, capsys):
    path = tmp_path / "p2.fan"
    path.write_text(
        "dim 2\nray e1 1 0\nray e2 0 1\nray a1 -1 -1\n"
        "cone e1 e2\ncone e2 a1\ncone a1 e1\n"
    )
    status, out = run(capsys, "deform", str(path), "--k", "0", "--out", str(tmp_path / "o.fan"))
    assert status == 1
    assert "conditions: violated" in out


# dP6 x P1: the hexagon's rays h1..h6 and the poles u, v
DP6_P1 = (
    "dim 3\nray h1 1 0 0\nray h2 1 1 0\nray h3 0 1 0\nray h4 -1 0 0\n"
    "ray h5 -1 -1 0\nray h6 0 -1 0\nray u 0 0 1\nray v 0 0 -1\n"
    + "".join(f"cone h{i} h{i % 6 + 1} {pole}\n" for pole in "uv" for i in range(1, 7))
)


def test_deform_lists_the_splittings_whose_fiber_is_other(tmp_path, capsys):
    # the hexagon is neither a projective space nor a bundle over the line
    path = tmp_path / "dp6p1.fan"
    path.write_text(DP6_P1)
    status, out = run(capsys, "split", str(path))
    assert status == 0
    assert "splittings: 2" in out.splitlines()
    assert out.splitlines().count("fiber: Other") == 2
    out_path = tmp_path / "o.fan"
    status, out = run(capsys, "deform", str(path), "--k", "0", "--out", str(out_path))
    assert status == 1
    assert out.splitlines()[-3:] == [
        "conditions: violated",
        "violation: splitting 0: fiber type Other",
        "violation: splitting 1: fiber type Other",
    ]
    assert not out_path.exists()


def test_a_fan_of_dimension_one_has_no_splitting(tmp_path, capsys):
    path = tmp_path / "p1.fan"
    path.write_text("dim 1\nray a 1\nray b -1\ncone a\ncone b\n")
    status, out = run(capsys, "split", str(path))
    assert status == 0
    assert out.splitlines()[-1] == "splittings: 0"
    status, out = run(capsys, "deform", str(path), "--k", "0", "--out", str(tmp_path / "o.fan"))
    assert status == 1
    assert out.splitlines()[-1] == "conditions: violated"
    assert "violation" not in out


HALF_FAN = "dim 2\nray x 1 0\nray y 0 1\ncone x y\n"


@pytest.mark.parametrize("command", [["split"], ["deform", "--k", "1"]])
def test_incomplete_fan_precondition_exits_two(tmp_path, capsys, command):
    path = tmp_path / "half.fan"
    path.write_text(HALF_FAN)
    argv = [command[0], str(path), *command[1:]]
    if command[0] == "deform":
        argv += ["--out", str(tmp_path / "o.fan")]
    status, out = run(capsys, *argv)
    assert status == 2
    assert "error: find_splittings requires a complete fan" in out
    assert not (tmp_path / "o.fan").exists()


def test_dimension_zero_fan_exits_two(tmp_path, capsys):
    path = tmp_path / "zero.fan"
    path.write_text("dim 0\nray x\ncone x\n")
    status, out = run(capsys, "check", str(path))
    assert status == 2
    assert "error: line 1: dimension must be positive" in out


def test_negative_dimension_fan_exits_two(tmp_path, capsys):
    # "ray" has 2 + (-1) tokens, so only the dim line can reject this file
    path = tmp_path / "negative.fan"
    path.write_text("dim -1\nray\ncone x\n")
    status, out = run(capsys, "check", str(path))
    assert status == 2
    assert "error: line 1: dimension must be positive" in out


def test_negative_k_exits_two(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "deform", path, "--k", "-1", "--out", str(tmp_path / "o.fan"))
    assert status == 2
    assert "error: k must be nonnegative" in out


def test_negative_k_exits_two_on_a_fan_without_splittings(tmp_path, capsys):
    # k is checked before any splitting is drawn, so no conditions line
    path = tmp_path / "p2.fan"
    path.write_text(
        "dim 2\nray e1 1 0\nray e2 0 1\nray a1 -1 -1\n"
        "cone e1 e2\ncone e2 a1\ncone a1 e1\n"
    )
    status, out = run(capsys, "deform", str(path), "--k", "-1", "--out", str(tmp_path / "o.fan"))
    assert status == 2
    assert out.splitlines()[-1] == "error: k must be nonnegative"
    assert "conditions" not in out


def test_iso_negative(fan_file, capsys):
    f0 = fan_file("F0.fan", "hirzebruch(0)")
    f1 = fan_file("F1.fan", "hirzebruch(1)")
    status, out = run(capsys, "iso", f0, f1)
    assert status == 1
    assert "isomorphic: false" in out


# --- chain ------------------------------------------------------------------------

def test_chain_congruence_failure(capsys):
    status, out = run(capsys, "chain", "--dim", "3", "--from", "1,0", "--to", "0,0")
    assert status == 1
    assert "congruence: 1 ≠ 0 (mod 3)" in out


def test_chain_success_writes_fans(tmp_path, capsys):
    status, out = run(
        capsys, "chain", "--dim", "3", "--from", "3,0", "--to", "0,0",
        "--out-dir", str(tmp_path / "chain"),
    )
    assert status == 0
    assert "twists: 2,1" in out
    assert (tmp_path / "chain" / "V0.fan").exists()
    assert (tmp_path / "chain" / "V2.fan").exists()


def test_chain_out_dir_on_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    status, out = run(
        capsys, "chain", "--dim", "3", "--from", "2,0", "--to", "1,1",
        "--out-dir", str(taken),
    )
    assert status == 2
    assert out.splitlines()[-1].startswith("error: ")


def test_chain_bad_twists_exit_two(capsys):
    status, _ = run(capsys, "chain", "--dim", "3", "--from", "1", "--to", "0,0")
    assert status == 2


@pytest.mark.parametrize("twists", ["1_0,0", "\uff11,0", "1, 0"])
def test_chain_twists_are_ascii_integers(capsys, twists):
    status, out = run(capsys, "chain", "--dim", "3", "--from", twists, "--to", "1,0")
    assert status == 2
    assert out.startswith(f"error: bad twist vector {twists!r}: expected an integer, got ")


def test_a_closed_pipe_exits_one_without_a_traceback():
    # the reader closes its end before the command writes, so the write fails
    proc = subprocess.Popen(
        [sys.executable, "-c", "from fanshear.cli import run; run()",
         "chain", "--dim", "2", "--from", "400", "--to", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("dim", ["0", "1"])
def test_chain_below_dim_two_exits_two(capsys, dim):
    status, out = run(capsys, "chain", "--dim", dim, "--from", "1", "--to", "0")
    assert status == 2
    assert out.splitlines()[-1] == f"error: a chain needs --dim >= 2, got {dim}"


def test_split_runs_no_collection_search(tmp_path, capsys, monkeypatch):
    runs = []
    real = fan_module._minimal_transversals
    monkeypatch.setattr(
        fan_module, "_minimal_transversals", lambda fan: runs.append(fan) or real(fan)
    )
    for name in ["X3_0", "W4_1", "W4_3", "W4_9", "hirzebruch(2)"]:
        path = tmp_path / "in.fan"
        path.write_text(serialize_fan(builtin(name)))
        status, out = run(capsys, "split", str(path))
        assert status == 0 and "splitting" in out
    assert runs == []


# --- catalog ------------------------------------------------------------------------

def test_catalog_list(capsys):
    status, out = run(capsys, "catalog", "list")
    assert status == 0
    assert "name: X3_0" in out
    assert "name: W4_9" in out


def test_catalog_show_writes_fan(tmp_path, capsys):
    out_path = str(tmp_path / "w41.fan")
    status, out = run(capsys, "catalog", "show", "W4_1", "--out", out_path)
    assert status == 0
    assert "endpoint_type_label: D7" in out
    assert parse_fan((tmp_path / "w41.fan").read_text()) == builtin("W4_1")


def test_catalog_show_without_a_name_exits_two(capsys):
    status, out = run(capsys, "catalog", "show")
    assert status == 2
    assert out.splitlines()[-1] == "error: catalog show needs a name"


def test_catalog_verify_single(capsys):
    status, out = run(capsys, "catalog", "verify", "X3_0")
    assert status == 0
    assert "endpoint_relation: b1+c'1 = e2" in out
    assert "verified: true" in out


@pytest.mark.parametrize("name", ["bundle(3;1,0)", "hirzebruch(0)", "hirzebruch(5)"])
def test_catalog_verify_bundle_without_endpoint(capsys, name):
    # held to their own expected outcome: a classification and no endpoint
    status, out = run(capsys, "catalog", "verify", name)
    assert status == 0
    assert "stage_classification: pass" in out
    assert "stage_splitting" not in out and "stage_endpoint_fano" not in out
    assert "verified: true" in out


def test_catalog_verify_hirzebruch_two_runs_the_endpoint_stage(capsys):
    status, out = run(capsys, "catalog", "verify", "hirzebruch(2)")
    assert status == 0
    assert "stage_splitting: pass" in out
    assert "stage_endpoint_fano: pass (Fano)" in out
    assert "verified: true" in out


def test_catalog_verify_unknown(capsys):
    status, out = run(capsys, "catalog", "verify", "nope")
    assert status == 1
    assert "UnknownName" in out


# --- fromrel -----------------------------------------------------------------------

def test_fromrel_emits_fan_file(tmp_path, capsys):
    rel = tmp_path / "x.rel"
    rel.write_text(
        "dim 3\ngens e1 e2 a1 a2 b1 c1\n"
        "rel e1+a1 = e2\nrel e2+a2 = 0\nrel b1+c1 = 2*e1\nbasis e1 e2 b1\n"
    )
    status, out = run(capsys, "fromrel", str(rel))
    assert status == 0
    assert parse_fan(out) == builtin("X3_0")


def test_fromrel_inconsistent_exits_one(tmp_path, capsys):
    rel = tmp_path / "bad.rel"
    rel.write_text(
        "dim 2\ngens x1 x2 x3\nrel x1+x2 = 0\nrel x1+x2 = x3\nbasis x1 x3\n"
    )
    status, out = run(capsys, "fromrel", str(rel))
    assert status == 1
    assert "InconsistentRelations" in out


@pytest.mark.parametrize(
    "text,status,fragment",
    [
        # generators but no relation: nothing pins the generator outside the
        # first candidate basis (a, b)
        ("dim 2\ngens a b c\n", 1,
         "UnderdeterminedRelations: generators ['c'] are not pinned down by the relations"),
        # more dimensions than generators: no candidate cone, and no huge allocation
        ("dim 99999999999\ngens a b c\n", 1, "no candidate basis cone"),
        ("dim -1\ngens a b c\n", 2, "error: line 1: dimension must be positive"),
        ("dim 0\ngens a b\nrel a+b = 0\n", 2, "error: line 1: dimension must be positive"),
        ("dim 5\ndim 2\ngens a b c\n", 2, "error: line 2: duplicate dim line"),
        ("dim 2\ngens a b c\nrel a+b+c = 0\nbasis a a\n", 2,
         "error: basis cone repeats a generator"),
    ],
)
def test_fromrel_degenerate_presentations_exit_cleanly(tmp_path, capsys, text, status, fragment):
    rel = tmp_path / "degenerate.rel"
    rel.write_text(text)
    got, out = run(capsys, "fromrel", str(rel))
    assert got == status
    assert fragment in out


def test_fromrel_without_enough_relations_solves_one_candidate(tmp_path, capsys, solves):
    # C(20, 10) = 184,756 candidate basis cones, and no relation to pin any
    rel = tmp_path / "short.rel"
    rel.write_text("dim 10\ngens " + " ".join(f"g{i}" for i in range(20)) + "\n")
    start = time.process_time()
    status, out = run(capsys, "fromrel", str(rel))
    assert time.process_time() - start < 0.5
    assert status == 1
    assert out == (
        "error: UnderdeterminedRelations: generators "
        f"{[f'g{i}' for i in range(10, 20)]} are not pinned down by the relations\n"
    )
    assert solves == [tuple(f"g{i}" for i in range(10))]


# --- json parity --------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("check",), ("relations",), ("split",),
    ],
)
def test_json_and_text_field_sets_match(fan_file, capsys, argv):
    path = fan_file("x.fan", "X3_0")
    _, text_out = run(capsys, *argv, path)
    _, json_out = run(capsys, "--json", *argv, path)
    assert set(json.loads(json_out)) == text_keys(text_out)


def test_json_chain_parity(capsys):
    args = ("chain", "--dim", "3", "--from", "3,0", "--to", "0,0")
    _, text_out = run(capsys, *args)
    _, json_out = run(capsys, "--json", *args)
    payload = json.loads(json_out)
    assert set(payload) == text_keys(text_out)
    assert payload["twists"] == ["3,0", "2,1", "0,0"]


def test_json_verify_parity(capsys):
    _, text_out = run(capsys, "catalog", "verify", "X3_0")
    _, json_out = run(capsys, "--json", "catalog", "verify", "X3_0")
    payload = json.loads(json_out)
    assert set(payload) == text_keys(text_out)
    assert payload["verified"] is True
    assert "b1+c'1 = e2" in payload["endpoint_relation"]


# str, int, bool and None, with the characters json.dumps escapes: quotes,
# backslashes, every C0 control, DEL, a BMP and an astral character
REPORT_VALUES = st.one_of(
    st.text(st.sampled_from(['"', "\\", "/", "a", " ", "\x7f", "≠", "é", "\U0001f600",
                             *map(chr, range(0x20))])),
    st.integers(), st.integers(min_value=10**18, max_value=10**60), st.booleans(), st.none(),
    st.just([]),
)


def folded(items):
    """A report's JSON object: the value of a key given once, the list of a repeated one."""
    keys = [key for key, _ in items]
    out = {}
    for key, value in items:
        if keys.count(key) > 1:
            out.setdefault(key, []).append(value)
        else:
            out[key] = value
    return out


@given(st.lists(st.tuples(st.sampled_from(["file", "fiber", "≠ \"key\"", "\x00"]),
                          REPORT_VALUES), max_size=8))
@example([])
@example([("congruence", "1 ≠ 0 (mod 3)"), ("x", []), ("x", [])])
@example([("file", 'it\'s "q"\\\b\f\n\r\t\x00\x1f\x7f≠\U0001f600'), ("rays", 10**40)])
def test_report_json_is_json_dumps_with_indent_2(items):
    report = cli.Report()
    for key, value in items:
        report.add(key, value)
    assert report.json() == json.dumps(folded(items), indent=2)


def test_exit_codes_deterministic(fan_file, capsys):
    path = fan_file("x.fan", "X3_0")
    first = [run(capsys, "check", path)[0] for _ in range(3)]
    assert first == [0, 0, 0]


# --- mutated fan files --------------------------------------------------------

FUZZ_SEEDS = [
    serialize_fan(builtin(name))
    for name in ("hirzebruch(1)", "X3_0", "bundle(3;1,1)", "W4_5")
] + [
    "dim 2\nray x 1 0\nray y 0 1\ncone x y\n",
    "dim 2\nray x 1 0\nray y 0 1\nray z -1 0\ncone x y\ncone y z\n",
]
FUZZ_TOKENS = st.sampled_from([
    "dim", "ray", "cone", "#", "0", "1", "-1", "2", "-3", "7", "10" * 12, "x", "e1",
    "a1", "b1", "c1", "", " ", "\t", "1.5", "0x1", "+1", "-0", "1_0", "∞", "é", "\x00",
    "\\", "=",
])


@st.composite
def mutated_fan_text(draw):
    """A fan file with lines deleted, duplicated, swapped, cut or edited token by token."""
    lines = draw(st.sampled_from(FUZZ_SEEDS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "insert", "cut"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [draw(FUZZ_TOKENS)]
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens)))
            tokens[k:k + draw(st.integers(0, 1))] = [draw(FUZZ_TOKENS)]
            lines[i] = " ".join(tokens)
        elif kind == "insert":
            lines.insert(i, " ".join(draw(st.lists(FUZZ_TOKENS, max_size=5))))
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=200, deadline=2000)
@given(mutated_fan_text(), st.one_of(mutated_fan_text(), st.sampled_from(FUZZ_SEEDS)),
       st.booleans())
def test_iso_and_check_exit_cleanly_on_mutated_files(first, second, as_json):
    # every run ends in 0, 1 or 2 and prints a report, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.fan", Path(tmp) / "b.fan"]
        for path, text in zip(paths, (first, second)):
            path.write_text(text, encoding="utf-8")
        flags = ["--json"] if as_json else []
        for argv in (
            ["iso", str(paths[0]), str(paths[1])],
            ["iso", str(paths[1]), str(paths[0])],
            ["check", str(paths[0])],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main(flags + argv)
            assert status in (0, 1, 2), argv
            report = json.loads(out.getvalue()) if as_json else text_keys(out.getvalue())
            assert status != 2 or "error" in report


@settings(max_examples=150, deadline=2000)
@given(mutated_fan_text(), st.booleans())
def test_relations_and_split_exit_cleanly_on_mutated_files(text, as_json):
    # every run ends in 0, 1 or 2 and prints a report, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.fan"
        path.write_text(text, encoding="utf-8")
        for command in ("relations", "split"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main((["--json"] if as_json else []) + [command, str(path)])
            assert status in (0, 1, 2), command
            report = json.loads(out.getvalue()) if as_json else text_keys(out.getvalue())
            assert status != 2 or "error" in report


@settings(max_examples=150, deadline=2000)
@given(mutated_fan_text(), st.integers(-2, 4), st.one_of(st.none(), st.integers(-1, 4)),
       st.booleans())
def test_deform_exits_cleanly_on_mutated_files(text, k, splitting, as_json):
    # every run ends in 0, 1 or 2 and prints a report, never a traceback;
    # the endpoint is written exactly on exit 0
    with tempfile.TemporaryDirectory() as tmp:
        path, end = Path(tmp) / "a.fan", Path(tmp) / "end.fan"
        path.write_text(text, encoding="utf-8")
        argv = ["deform", str(path), "--k", str(k), "--out", str(end)]
        if splitting is not None:
            argv += ["--splitting", str(splitting)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main((["--json"] if as_json else []) + argv)
        assert status in (0, 1, 2), argv
        report = json.loads(out.getvalue()) if as_json else text_keys(out.getvalue())
        assert status != 2 or "error" in report
        assert end.exists() == (status == 0)


# --- mutated relation files ---------------------------------------------------

REL_FUZZ_SEEDS = [
    "dim 3\ngens e1 e2 a1 a2 b1 c1\n"
    "rel e1+a1 = e2\nrel e2+a2 = 0\nrel b1+c1 = 2*e1\nbasis e1 e2 b1\n",
    "dim 2\ngens e1 a1 b1 c1\nrel e1+a1 = 0\nrel b1+c1 = 3*e1\n",
    "dim 2\ngens x1 x2 x3\nrel x1+x2 = 0\nrel x1+x2 = x3\nbasis x1 x3\n",
]
REL_FUZZ_TOKENS = st.sampled_from([
    "dim", "gens", "rel", "basis", "#", "=", "+", "*", "0", "1", "-1", "2", "3", "-7",
    "10" * 12, "99999999999", "-99999999999", "e1", "e2", "a1", "b1", "c1", "x1", "x3",
    "e1+a1", "2*e1", "-1*e2", "e1+e1", "", " ", "1_0", "é", "\x00",
])


@st.composite
def mutated_relation_text(draw):
    """A relation file with lines deleted, duplicated, swapped or cut, or tokens replaced."""
    lines = draw(st.sampled_from(REL_FUZZ_SEEDS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "cut"]))
        if not lines:
            lines = [draw(REL_FUZZ_TOKENS)]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(REL_FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=2000)
@given(mutated_relation_text(), st.booleans())
def test_fromrel_exits_cleanly_on_mutated_files(text, as_json):
    # every run ends in 0, 1 or 2, never a traceback; an exit 2 names the error
    with tempfile.TemporaryDirectory() as tmp:
        rel, fan = Path(tmp) / "in.rel", Path(tmp) / "out.fan"
        rel.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            flags = ["--json"] if as_json else []
            status = main(flags + ["fromrel", str(rel), "--out", str(fan)])
        assert status in (0, 1, 2)
        report = json.loads(out.getvalue()) if as_json else text_keys(out.getvalue())
        assert status != 2 or "error" in report
        assert (status == 0) == fan.exists()


# --- argv parsing -------------------------------------------------------------

ARGV_FLAGS = ["--k", "--splitting", "--out", "--dim", "--from", "--to", "--out-dir",
              "--spl", "--o", "--out-d", "--k=1", "--", "-h", "--json", "--js"]
ARGV_VALUES = ["x.fan", "1", "0", "-1", "-0", "-1,0", "-\u0661", "\u0661", "-\u00b2", "", " 1",
               "1_0", "3,0", "list", "show", "verify", "X3_0", "-", "-x", "1\n", "-1\n"]


@st.composite
def argv_lists(draw):
    """Mostly plain argv (positionals, then flag-value pairs), often perturbed."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[command]
    values, flags = st.sampled_from(ARGV_VALUES), st.sampled_from(ARGV_FLAGS)
    argv = draw(st.sampled_from([[], ["--json"]])) + [command]
    argv += [draw(values) for _ in positionals[:draw(st.integers(0, len(positionals)))]]
    for option in draw(st.permutations(options)):
        if draw(st.booleans()):
            argv += [option[0], draw(values)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = [
            draw(st.one_of(values, flags, st.sampled_from([*cli.COMMANDS, "nope"])))
        ]
    return argv


@settings(max_examples=400, deadline=2000)
@given(argv_lists())
@example(["deform", "x.fan", "--k", "x", "--k", "1"])  # argparse rejects the first --k
@example(["deform", "x.fan", "--k", "-\u00b2"])  # a digit to str.isdigit, not to argparse's \d
def test_plain_parse_agrees_with_argparse(argv):
    # the plain parser returns argparse's namespace, or None; never a
    # namespace for argv that argparse rejects
    plain = cli._parse_plain(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = list(vars(cli.build_parser().parse_args(argv)).items())
        except SystemExit:
            expected = None
    assert plain is None or list(vars(plain).items()) == expected


@pytest.fixture
def no_parser(monkeypatch):
    def refuse():
        raise AssertionError("built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)


def test_plain_argv_never_builds_the_parser(no_parser, fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    assert run(capsys, "--json", "check", path)[0] == 0
    assert run(capsys, "--json", "iso", path, path)[0] == 0
    assert run(capsys, "--json", "catalog", "verify", "X3_0")[0] == 0
    assert run(capsys, "catalog", "verify")[0] == 0
    status, _ = run(capsys, "--json", "chain", "--dim", "3", "--from", "3,0", "--to", "0,0",
                    "--out-dir", str(tmp_path / "chain"))
    assert status == 0 and (tmp_path / "chain" / "V2.fan").exists()
    status, out = run(capsys, "deform", path, "--k", "-1", "--out", str(tmp_path / "o.fan"))
    assert status == 2 and "error: k must be nonnegative" in out


def test_abbreviated_flag_goes_through_argparse(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    out_path = str(tmp_path / "o.fan")
    assert cli._parse_plain(["deform", path, "--k", "1", "--spl", "0", "--out", out_path]) is None
    assert (run(capsys, "deform", path, "--k", "1", "--spl", "0", "--out", out_path)
            == run(capsys, "deform", path, "--k", "1", "--splitting", "0", "--out", out_path))


TOP_USAGE = (
    "usage: fanshear [-h] [--json]\n"
    "                {check,relations,split,deform,iso,chain,catalog,fromrel} ...\n"
)
DEFORM_USAGE = "usage: fanshear deform [-h] --k K [--splitting SPLITTING] [--out OUT] fanfile\n"
TOP_HELP = TOP_USAGE + """
Split smooth complete toric fans over the line, shear them, and classify Fano
behavior, in exact integer arithmetic.

positional arguments:
  {check,relations,split,deform,iso,chain,catalog,fromrel}
    check               validate a fan file and classify it
    relations           print the primitive relations
    split               list all splittings over the line
    deform              shear with parameter k and write the endpoint fan
    iso                 decide unimodular equivalence of two fan files
    chain               deformation chain between bundle twist vectors
    catalog             list, show or verify built-in fans
    fromrel             build a fan file from a relation file

options:
  -h, --help            show this help message and exit
  --json                emit a JSON report
"""


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["--help"], 0, TOP_HELP, ""),
        (["nope"], 2, "", TOP_USAGE + "fanshear: error: argument command: invalid choice: "
         "'nope' (choose from 'check', 'relations', 'split', 'deform', 'iso', 'chain', "
         "'catalog', 'fromrel')\n"),
        (["deform", "x.fan"], 2, "", DEFORM_USAGE
         + "fanshear deform: error: the following arguments are required: --k\n"),
        (["deform", "x.fan", "--k", "x"], 2, "", DEFORM_USAGE
         + "fanshear deform: error: argument --k: invalid int value: 'x'\n"),
        (["deform", "x.fan", "--spl", "0"], 2, "", DEFORM_USAGE
         + "fanshear deform: error: the following arguments are required: --k\n"),
        (["catalog", "list", "--json"], 2, "", TOP_USAGE
         + "fanshear: error: unrecognized arguments: --json\n"),
    ],
)
def test_help_and_usage_errors_come_from_argparse(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == code
    assert capsys.readouterr() == (out, err)


def test_every_exported_name_imports():
    # a fresh interpreter, so a lazily loaded package must still resolve every name
    names = (
        "CatalogEntry ExpectedOutcome builtin entry verify_weakened ConditionsReport "
        "FiberKind FiberType Splitting endpoint endpoint_conditions fiber_type "
        "find_splittings shear_lower split_with_frame star_equivalent DivisorClassData "
        "FanoClass FanoReport IrrelevantData NefAmpleStatus anticanonical class_group "
        "classify_fano irrelevant_data nef_ample_status BadFaceStructure "
        "ConditionsNotSatisfied DanglingRay DimensionMismatch FanError "
        "InconsistentRelations InternalError NoContainingCone NonPrimitiveRay "
        "NotAPrimitiveCollection ParseError PreconditionViolated ResultNotAFan "
        "ResultNotComplete ResultSingular SingularCone UnderdeterminedRelations "
        "UnknownName Cone Fan FormalRelation PrimitiveRelation Ray fan_from_relations "
        "fan_isomorphism is_complete make_fan primitive_collections primitive_relation "
        "primitive_relations format_relation parse_fan parse_relation_presentation "
        "serialize_fan UnimodularMap extends_to_basis is_primitive shear_map BundleSpec "
        "DeformationChain ReduceStep bundle_fan deformation_chain reduce_step __version__"
    ).split()
    code = f"from fanshear import {', '.join(names)}; print(__version__)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.1.0\n"


# The child writes a repr, not JSON, and takes its commands as argv, one per
# argument with its tokens joined by \x1f, so that it imports no json itself.
FOOTPRINT = """
import builtins, io, sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "json")
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
generated = []
def watch(real):
    def watched(source, *args, **kwargs):
        if isinstance(source, str):  # source text, not a module's code or file bytes
            generated.append((real.__name__, source[:60]))
        return real(source, *args, **kwargs)
    return watched
real_exec, real_compile = builtins.exec, builtins.compile
builtins.exec, builtins.compile = watch(real_exec), watch(real_compile)
from fanshear import cli
builtins.exec, builtins.compile = real_exec, real_compile
seen = {"import": loaded(), "generated": generated}
for command in sys.argv[2:]:
    label, *argv = command.split("\x1f")
    sys.stdout = io.StringIO()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    sys.stdout = sys.__stdout__
    seen[label] = [status, "argparse" in sys.modules, "json" in sys.modules]
print(repr(seen))
"""


def test_import_and_plain_commands_load_neither_dataclasses_nor_argparse(fan_file, tmp_path):
    # python -S, so that the site module's own imports cannot mask the
    # package's; importing fanshear.cli hands exec and compile no source text
    commands = [
        ("check", ["--json", "check", fan_file("x.fan", "X3_0")]),
        ("chain", ["--json", "chain", "--dim", "4", "--from", "2,1,0", "--to", "1,1,1",
                   "--out-dir", str(tmp_path / "chain")]),
        ("verify", ["--json", "catalog", "verify", "W4_5"]),
        ("help", ["--help"]),
    ]
    done = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, str(Path(cli.__file__).parents[1]),
         *("\x1f".join([label, *argv]) for label, argv in commands)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == {
        "import": [],
        "generated": [],
        "check": [0, False, False],
        "chain": [0, False, False],
        "verify": [0, False, False],
        "help": [0, True, False],
    }
