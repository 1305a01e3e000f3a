"""The command-line surface: output shapes, schemas, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.resources import files

import jsonschema
import pytest
from referencing import Registry, Resource

from stepquiver import add_elements, make_interval, parse_fn_expr, poset_element, step_literal
from stepquiver.cli import main

from conftest import CORPUS_DIR, EXPECTED_GLDIM, REPO_ROOT, corpus_names

SCHEMAS = {
    res.name: json.loads(res.read_text())
    for res in (files("stepquiver") / "schemas").iterdir()
}


def schema_check(name: str, payload) -> None:
    registry = Registry().with_resources(
        (n, Resource.from_contents(s)) for n, s in SCHEMAS.items()
    )
    validator = jsonschema.Draft202012Validator(SCHEMAS[name], registry=registry)
    validator.validate(payload)


def qv(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.qv")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv, "--json")
    assert rc == 0, f"{argv}: rc={rc}, stderr={err!r}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_text_summary(capsys):
    rc, out, err = run_cli(capsys, "validate", qv("a3_full"))
    assert rc == 0 and err == ""
    assert out == "a3_full: gentle presentation (3 vertices, 2 arrows, 1 relations)\n"


@pytest.mark.parametrize("name", sorted(EXPECTED_GLDIM))
def test_validate_json_matches_schema(capsys, name):
    payload = run_json(capsys, "validate", qv(name))
    schema_check("validate.json", payload)
    assert payload["ok"] is True and payload["violations"] == []


def test_validate_reports_violations_with_exit_code_one(capsys, tmp_path):
    bad = tmp_path / "fan.qv"
    bad.write_text(
        "quiver fan {\n  vertices: 1 2\n"
        "  arrows: x: 1 -> 2, y: 1 -> 2, z: 1 -> 2\n}\n"
    )
    rc, out, err = run_cli(capsys, "validate", str(bad))
    assert rc == 1
    assert "not gentle" in out and "[paper] condition 1" in out

    rc, out, err = run_cli(capsys, "validate", str(bad), "--json")
    assert rc == 1
    payload = json.loads(out)
    schema_check("validate.json", payload)
    assert payload["ok"] is False and payload["violations"]


def test_validate_rejects_infinite_dimensional_with_message(capsys):
    rc, out, err = run_cli(capsys, "validate", qv("cycle3_free"))
    assert rc == 1 and "infinite-dimensional" in err


def test_missing_file_is_a_domain_error(capsys):
    rc, out, err = run_cli(capsys, "validate", "no_such_file.qv")
    assert rc == 1 and "error:" in err


# ---------------------------------------------------------------------------
# threads / koszul / gldim
# ---------------------------------------------------------------------------

def test_threads_json_matches_schema(capsys):
    payload = run_json(capsys, "threads", qv("a3_full"))
    schema_check("threads.json", payload)
    assert payload["forbidden"] == [{"arrows": ["a", "b"], "kind": "forbidden",
                                     "length": 2}]
    assert [t["arrows"] for t in payload["permitted"]] == [["a"], ["b"]]


def test_threads_kind_filter(capsys):
    payload = run_json(capsys, "threads", qv("a3_full"), "--kind", "forbidden")
    assert set(payload) == {"forbidden"}
    rc, out, _ = run_cli(capsys, "threads", qv("branch_relation"))
    assert rc == 0
    assert "forbidden (2):" in out and "  a*b\n" in out


def test_koszul_emits_a_parseable_dual_document(capsys):
    rc, out, err = run_cli(capsys, "koszul", qv("a3_full"))
    assert rc == 0
    from stepquiver import parse_quiver_dsl
    doc = parse_quiver_dsl(out)
    assert doc.name == "a3_full_dual"
    assert {(a.name, a.source, a.target) for a in doc.arrows} == \
        {("a", "2", "1"), ("b", "3", "2")}
    assert doc.relations == ()

    payload = run_json(capsys, "koszul", qv("a3_full"))
    schema_check("quiver.json", payload)
    assert payload["name"] == "a3_full_dual"


def test_gldim_text_reports_all_three_routes(capsys):
    rc, out, err = run_cli(capsys, "gldim", qv("a3_full"))
    assert rc == 0
    assert out == "gl.dim = 2 (threads=2, integral=2, stieltjes=2)\n"


def test_gldim_on_a_1500_arrow_full_chain(capsys, tmp_path):
    n = 1500
    path = tmp_path / "a1501_full.qv"
    path.write_text(
        f"quiver a{n + 1}_full {{\n"
        f"  vertices: {' '.join(str(i) for i in range(1, n + 2))}\n"
        f"  arrows: {', '.join(f'a{i}: {i} -> {i + 1}' for i in range(1, n + 1))}\n"
        f"  relations: {', '.join(f'a{i}*a{i + 1}' for i in range(1, n))}\n"
        "}\n")
    rc, out, err = run_cli(capsys, "gldim", str(path))
    assert rc == 0, err
    assert out == f"gl.dim = {n} (threads={n}, integral={n}, stieltjes={n})\n"


def test_stieltjes_log_power_off_the_positive_axis_is_a_typed_error(capsys):
    rc, out, err = run_cli(capsys, "stieltjes", "--fn", "t", "--domain", "0", "1",
                           "--log-power", "4")
    assert rc == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("fn", ["2*indicator(0,0.5)", "t"])
def test_stieltjes_rejects_a_negative_tolerance_for_every_integrand(capsys, fn):
    rc, out, err = run_cli(capsys, "stieltjes", "--fn", fn, "--domain", "0", "1",
                           "--tol", "-1")
    assert (rc, out) == (1, "")
    assert err == "error: tolerance must be a positive real, got -1.0\n"


def test_gldim_json_matches_schema(capsys):
    payload = run_json(capsys, "gldim", qv("square_half"))
    schema_check("gldim.json", payload)
    assert payload["gldim"] == 2
    assert set(payload["method_values"]) == {"threads", "integral", "stieltjes"}

    one = run_json(capsys, "gldim", qv("a4_free"), "--method", "stieltjes")
    schema_check("gldim.json", one)
    assert one == {"gldim": 1, "method_values": {"stieltjes": 1}}


def test_gldim_refuses_infinite_global_dimension(capsys):
    rc, out, err = run_cli(capsys, "gldim", qv("loop_square"))
    assert rc == 1 and "cycle" in err


# ---------------------------------------------------------------------------
# integrate / stieltjes / elemfn / iposet-add
# ---------------------------------------------------------------------------

def test_integrate_step_literals_are_exact(capsys):
    payload = run_json(capsys, "integrate", "--fn", "2*indicator(0,1)",
                       "--domain", "0", "2")
    schema_check("enclosure.json", payload)
    assert payload["lower"] == payload["upper"] == 2.0
    assert payload["converged"] is True


@pytest.mark.parametrize("fn, hi, line", [
    ("indicator(0,1)+indicator(0.5,2)", "2",
     "enclosure = [2.5, 2.5]  width = 0.0  converged = true\n"),
    ("indicator(0,0.5)-indicator(0.25,1)", "1",
     "enclosure = [-0.25, -0.25]  width = 0.0  converged = true\n"),
], ids=["sum", "difference"])
def test_integrate_sums_overlapping_indicator_terms(capsys, fn, hi, line):
    assert run_cli(capsys, "integrate", "--fn", fn, "--domain", "0", hi) == (0, line, "")


def test_integrate_smooth_integrand_encloses_truth(capsys):
    payload = run_json(capsys, "integrate", "--fn", "t^2",
                       "--domain", "0", "1", "--tol", "1e-6")
    schema_check("enclosure.json", payload)
    assert payload["lower"] <= 1.0 / 3.0 <= payload["upper"]
    assert payload["width"] <= 1e-6 * (1 + 1e-9) and payload["converged"]


def test_integrate_improper_endpoint_needs_truncate(capsys):
    rc, out, err = run_cli(capsys, "integrate", "--fn", "1/t",
                           "--domain", "0", "1")
    assert rc == 1 and "--truncate" in err
    payload = run_json(capsys, "integrate", "--fn", "1/t",
                       "--domain", "0", "1", "--truncate")
    # ∫_{1e-8}^1 dt/t = ln(1e8)
    assert payload["lower"] <= 18.420680743952367 <= payload["upper"]


def test_stieltjes_identity_on_log_power(capsys):
    payload = run_json(capsys, "stieltjes", "--fn", "t", "--domain", "1", "2",
                       "--log-power", "3")
    schema_check("value.json", payload)
    assert payload["measure"] == "3.0*ln(t)"
    assert abs(payload["value"] - 3.0) <= 1e-9


def test_stieltjes_defaults_to_the_identity_measure(capsys):
    payload = run_json(capsys, "stieltjes", "--fn", "indicator(1,1.5)",
                       "--domain", "1", "2")
    schema_check("value.json", payload)
    assert payload["measure"] == "t"
    assert abs(payload["value"] - 0.5) <= 1e-9


def test_elemfn_quarter_period_constant(capsys):
    payload = run_json(capsys, "elemfn", "--name", "K", "--tol", "1e-3")
    schema_check("enclosure.json", payload)
    assert payload["width"] <= 2e-3
    assert payload["lower"] <= 1.5707963 <= payload["upper"]
    assert payload["name"] == "K" and "at" not in payload


def test_elemfn_pointwise_function(capsys):
    payload = run_json(capsys, "elemfn", "--name", "ln", "--at", "2",
                       "--tol", "1e-9")
    schema_check("enclosure.json", payload)
    assert payload["at"] == 2.0
    assert payload["lower"] <= 0.6931471805599453 <= payload["upper"]
    assert payload["width"] <= 1e-9 * (1 + 1e-9)


def test_elemfn_requires_a_point_for_functions(capsys):
    rc, out, err = run_cli(capsys, "elemfn", "--name", "sin")
    assert rc == 1 and "requires --at" in err


def test_elemfn_rejects_a_negative_tolerance(capsys):
    rc, out, err = run_cli(capsys, "elemfn", "--name", "asin", "--at", "0.5", "--tol", "-1")
    assert rc == 1 and out == ""
    assert err == "error: tolerance must be a positive real, got -1.0\n"


def test_iposet_add_agrees_with_the_library(capsys):
    payload = run_json(capsys, "iposet-add", "--fn", "indicator(0,4)",
                       "--first", "0", "2", "--second", "1", "3")
    schema_check("sigma_pair.json", payload)
    step = step_literal(parse_fn_expr("indicator(0,4)"))
    expected = add_elements(poset_element(step, make_interval(0.0, 2.0)),
                            poset_element(step, make_interval(1.0, 3.0)))
    assert payload["value"] == expected.value
    assert payload["set"] == expected.to_json()["set"]
    assert payload["case"] == "OverlapLeft"


def test_iposet_add_requires_step_literals(capsys):
    rc, out, err = run_cli(capsys, "iposet-add", "--fn", "t",
                           "--first", "0", "1", "--second", "0", "1")
    assert rc == 1 and "step-function literal" in err


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------

def test_usage_errors_exit_with_code_two(capsys):
    for argv in (["frobnicate"], ["integrate"], [], ["gldim"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_repeated_invocations_are_byte_identical(capsys):
    commands = [
        ("gldim", qv("a5_full"), "--json"),
        ("threads", qv("square_half")),
        ("integrate", "--fn", "sqrt(t)", "--domain", "0", "1", "--json"),
        ("elemfn", "--name", "asin", "--at", "0.5", "--json"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, f"nondeterministic output for {argv}"


def test_console_script_is_installed(tmp_path):
    # Runs the declared [project.scripts] entry point the way an installer's
    # launcher would, against this checkout's src, so no prior install is
    # needed and no stepquiver from another checkout is picked up.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["stepquiver"].split(":")
    launcher = tmp_path / "stepquiver"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        ["stepquiver", "gldim", qv("a3_full")],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gl.dim = 2 (threads=2, integral=2, stieltjes=2)\n"
