import json

import pytest

from fanshear import builtin
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


def test_missing_file_exits_two(capsys):
    status, _ = run(capsys, "check", "does-not-exist.fan")
    assert status == 2


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
    assert "error: dimension must be positive" in out


def test_negative_k_exits_two(fan_file, tmp_path, capsys):
    path = fan_file("x.fan", "X3_0")
    status, out = run(capsys, "deform", path, "--k", "-1", "--out", str(tmp_path / "o.fan"))
    assert status == 2
    assert "error: k must be nonnegative" in out


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


def test_chain_bad_twists_exit_two(capsys):
    status, _ = run(capsys, "chain", "--dim", "3", "--from", "1", "--to", "0,0")
    assert status == 2


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


def test_exit_codes_deterministic(fan_file, capsys):
    path = fan_file("x.fan", "X3_0")
    first = [run(capsys, "check", path)[0] for _ in range(3)]
    assert first == [0, 0, 0]
