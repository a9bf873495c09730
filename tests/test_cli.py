import copy
import io
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from helpers import abelian_spec, preset_file_text, rotated_null_plane_specs
from qtwist import SpecFileError, parse_spec_file, preset, render_spec_file
from qtwist.cli import main
from qtwist.model import PRESET_NAMES
from qtwist.specfile import (
    parse_spec_text,
    spec_to_document,
    write_spec_file,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_roundtrip_all_presets():
    for name in PRESET_NAMES + ("shift-ring(5)",):
        spec = preset(name)
        assert parse_spec_text(render_spec_file(spec)) == spec


def test_shipped_preset_files_match_compiled():
    for name in PRESET_NAMES:
        assert parse_spec_text(preset_file_text(name)) == preset(name)


def test_rotated_spec_data_file_matches_generator():
    """The dense-table spec that the full verification script runs."""
    path = Path(__file__).parent / "data" / "rotated-null-plane.json"
    assert parse_spec_file(path) == next(rotated_null_plane_specs(order=3))


def test_rational_strings_parse_exactly():
    doc = spec_to_document(preset("jordanian-borel"))
    doc["B"][0][0][0] = "1/3"
    spec = parse_spec_text(json.dumps(doc))
    assert spec.B[0][0][0] == Q(1, 3)
    doc["B"][0][0][0] = 7
    assert parse_spec_text(json.dumps(doc)).B[0][0][0] == 7


def test_floats_rejected_never_rounded():
    doc = spec_to_document(preset("jordanian-borel"))
    text = json.dumps(doc).replace('"2"', "2.0", 1)
    with pytest.raises(SpecFileError):
        parse_spec_text(text)


def _corruptions(rng, doc):
    """Structured corruption generator: yields (description, corrupted doc or text)."""
    fields = ["name", "m", "n", "B", "r", "order"]
    while True:
        kind = rng.randrange(8)
        bad = copy.deepcopy(doc)
        if kind == 0:
            f = rng.choice(fields)
            del bad[f]
            yield f"missing {f}", bad
        elif kind == 1:
            bad["B"][0].pop()
            yield "B row dropped", bad
        elif kind == 2:
            bad["r"][0].append("1")
            yield "r row extended", bad
        elif kind == 3:
            bad["B"][0][0][0] = rng.choice(["1/0", "x", "1.5", "--2", "2/", ""])
            yield "malformed rational", bad
        elif kind == 4:
            bad["m"] = rng.choice([0, -1, "3", None])
            yield "bad dimension", bad
        elif kind == 5:
            bad["xi"] = ["1"] * (bad["n"] + 1)
            yield "xi wrong length", bad
        elif kind == 6:
            bad["order"] = rng.choice([-1, "4", 2.5])
            yield "bad order", bad
        else:
            bad["h_names"] = ["A"] * bad["m"]
            bad["x_names"] = ["A"] * bad["n"]
            yield "duplicate names", bad


def test_fifty_structured_corruptions_rejected():
    rng = random.Random(97)
    doc = spec_to_document(preset("poincare-null-plane"))
    gen = _corruptions(rng, doc)
    for _ in range(50):
        what, bad = next(gen)
        text = bad if isinstance(bad, str) else json.dumps(bad)
        with pytest.raises(SpecFileError) as err:
            parse_spec_text(text)
        assert str(err.value), what


def test_parse_error_diagnostics_name_field():
    doc = spec_to_document(preset("jordanian-borel"))
    doc["B"][0][0][0] = "oops"
    with pytest.raises(SpecFileError) as err:
        parse_spec_text(json.dumps(doc))
    assert "B[0][0][0]" in str(err.value)


def test_invalid_json_reports_line():
    with pytest.raises(SpecFileError) as err:
        parse_spec_text("{\n  broken\n}")
    assert "line" in str(err.value)


def test_cmd_validate_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    write_spec_file(preset("poincare-null-plane"), good)
    code, out = run_cli("validate", str(good))
    assert code == 0 and "overall: PASS" in out

    trivial = tmp_path / "abelian.json"
    write_spec_file(abelian_spec(), trivial)
    assert run_cli("validate", str(trivial))[0] == 0

    bad = tmp_path / "bad.json"
    doc = spec_to_document(abelian_spec())
    doc["B"][0][1][0] = "1"
    doc["B"][1][0][1] = "1"  # two beta matrices that cannot commute
    bad.write_text(json.dumps(doc))
    code, out = run_cli("validate", str(bad))
    assert code == 1 and "FAIL jacobi" in out and "beta" in out

    code, _ = run_cli("validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_cmd_check_exit_codes(tmp_path):
    code, out = run_cli(
        "check", "--preset", "jordanian-borel", "--suite", "twist", "--order", "3"
    )
    assert code == 0 and "overall: PASS" in out

    code, out = run_cli("check", "--preset", "poincare-null-plane", "--order", "0")
    assert code == 0

    bad = tmp_path / "mutated.json"
    doc = spec_to_document(preset("jordanian-borel"))
    doc["B"][0][0][0] = "3"  # still valid: rescaled member of the same family
    doc["r"][0][0] = "0"  # now r is singular: must be rejected as a failure
    bad.write_text(json.dumps(doc))
    code, out = run_cli("check", str(bad))
    assert code == 1 and "invertible-r" in out

    with pytest.raises(SystemExit) as err:
        run_cli("check", "--preset", "jordanian-borel", "--suite", "nope")
    assert err.value.code == 2

    with pytest.raises(SystemExit) as err:
        run_cli("check", "--preset", "unknown-preset")
    assert err.value.code == 2


@pytest.mark.parametrize("jobs", ("0", "-3", "2"))
def test_cmd_check_has_no_jobs_option(jobs, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("check", "--preset", "jordanian-borel", "--suite", "twist", "--jobs", jobs)
    assert err.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", (("check", "--suite", "twist"), ("expand", "--expr", "phi")))
def test_a_spec_file_and_a_preset_together_are_refused(command, capsys):
    path = str(Path(__file__).parent / "data" / "rotated-null-plane.json")
    with pytest.raises(SystemExit) as err:
        run_cli(command[0], path, "--preset", "jordanian-borel", *command[1:])
    assert err.value.code == 2
    assert f"not both: {path} and --preset jordanian-borel" in capsys.readouterr().err


def test_cmd_check_machine_reports_are_stable(jordanian3):
    args = (
        "check",
        "--preset",
        "jordanian-borel",
        "--suite",
        "classical",
        "--order",
        "3",
        "--format",
        "machine",
    )
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert all(c["elapsed_ms"] == 0 for c in doc["checks"])


def test_cmd_expand_phi_order_zero():
    code, out = run_cli(
        "expand", "--preset", "poincare-null-plane", "--expr", "phi", "--order", "0"
    )
    assert code == 0
    assert "1 ⊗ 1" in out


def test_cmd_expand_k_shows_closed_form_truncation():
    code, out = run_cli(
        "expand", "--preset", "poincare-null-plane", "--expr", "K", "--order", "2"
    )
    assert code == 0
    # K3 = (1 - e^{-2 H3})/2 = h H3 - h^2 H3^2 + ...
    assert "K3 =" in out and "h * H3" in out and "-1 * h^2 * H3^2" in out


def test_cmd_expand_rmat_first_order():
    code, out = run_cli(
        "expand", "--preset", "jordanian-borel", "--expr", "rmat", "--order", "1"
    )
    assert code == 0
    assert "h * X ⊗ H" in out and "-1 * h * H ⊗ X" in out


def test_cmd_expand_coproduct_of_generator():
    code, out = run_cli(
        "expand",
        "--preset",
        "poincare-null-plane",
        "--expr",
        "coproduct:H1",
        "--order",
        "1",
    )
    assert code == 0
    assert "H1 ⊗ 1" in out and "1 ⊗ H1" in out


def test_cmd_expand_validates_spec(tmp_path):
    path = tmp_path / "skewed.json"
    doc = spec_to_document(preset("poincare-null-plane"))
    doc["r"][0][1] = "1"  # still invertible, but no longer consistent
    path.write_text(json.dumps(doc))
    code, checked = run_cli("check", str(path))
    assert code == 1
    code, out = run_cli("expand", str(path), "--expr", "phi")
    assert code == 1 and out == checked
    for name in ("consistency", "alpha-commute", "alpha-symmetry", "cybe"):
        assert f"FAIL {name}" in out
    assert "phi =" not in out


def test_cmd_expand_unknown_expr_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("expand", "--preset", "jordanian-borel", "--expr", "zeta")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("expand", "--preset", "jordanian-borel", "--expr", "coproduct:Q9")
    assert err.value.code == 2


def test_expand_machine_format_sorted():
    code, out = run_cli(
        "expand",
        "--preset",
        "jordanian-borel",
        "--expr",
        "phi",
        "--order",
        "2",
        "--format",
        "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["expr"] == "phi"
    terms = doc["elements"]["phi"]
    assert [t["power"] for t in terms] == [0, 1, 2]
    assert terms[2]["coeff"] == "1/2"


def test_spec_file_checked_against_file_route(tmp_path):
    path = tmp_path / "jordanian.json"
    write_spec_file(preset("jordanian-borel").with_order(3), path)
    code, out = run_cli("check", str(path), "--suite", "twist")
    assert code == 0 and "overall: PASS" in out
