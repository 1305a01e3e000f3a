"""The command-line surface: output shapes, schemas, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
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


def test_a_directory_is_a_domain_error(capsys):
    rc, out, err = run_cli(capsys, "validate", str(CORPUS_DIR))
    assert (rc, out) == (1, "") and err.startswith("error:") and "directory" in err


def test_a_file_that_is_not_utf8_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "latin1.qv"
    path.write_bytes("quiver x { vertices: \xe9 }\n".encode("latin-1"))
    rc, out, err = run_cli(capsys, "validate", str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 21)\n"


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


@pytest.mark.parametrize("cmd", ["threads", "koszul", "gldim"])
def test_quiver_subcommands_refuse_a_non_gentle_file_alike(capsys, tmp_path, cmd):
    bad = tmp_path / "fan.qv"
    bad.write_text("quiver fan {\n  vertices: 1 2\n"
                   "  arrows: x: 1 -> 2, y: 1 -> 2, z: 1 -> 2\n}\n")
    rc, out, err = run_cli(capsys, cmd, str(bad))
    assert (rc, out) == (1, "")
    assert err == (f"error: {bad}: not a gentle presentation "
                   "(2 violation(s); run `validate` for details)\n")


def test_gldim_text_reports_all_three_routes(capsys):
    rc, out, err = run_cli(capsys, "gldim", qv("a3_full"))
    assert rc == 0
    assert out == "gl.dim = 2 (threads=2, integral=2, stieltjes=2)\n"


def test_gldim_text_prints_the_routes_without_the_json_report(capsys, monkeypatch):
    from stepquiver import quiver

    def refuse(p):
        raise AssertionError("text-mode gldim built the JSON report")

    # the handler imports gldim_report from stepquiver.quiver when it runs
    report = quiver.gldim_report
    monkeypatch.setattr(quiver, "gldim_report", refuse)
    for name, d in sorted(EXPECTED_GLDIM.items()):
        rc, out, err = run_cli(capsys, "gldim", qv(name))
        assert (rc, err) == (0, ""), name
        assert out == f"gl.dim = {d} (threads={d}, integral={d}, stieltjes={d})\n", name
    # the routes are still checked against each other, with the same message
    monkeypatch.setattr(quiver, "_gldim_integral", lambda forb, lk: -1)
    err = ("error: global-dimension routes disagree: "
           "{'threads': 2, 'integral': -1, 'stieltjes': 2}\n")
    assert run_cli(capsys, "gldim", qv("a3_full")) == (1, "", err)
    monkeypatch.setattr(quiver, "gldim_report", report)
    assert run_cli(capsys, "gldim", qv("a3_full"), "--json") == (1, "", err)


def test_quiver_output_is_written_from_the_integer_form(capsys, monkeypatch):
    from stepquiver import quiver, qv as qv_module

    parsed = []
    parse, doc_post_init = qv_module.parse_quiver_dsl, qv_module.QuiverDoc.__post_init__

    def parse_and_arm(text):
        parsed.append(parse(text))
        return parsed[-1]

    def first_doc_only(doc):
        assert not parsed, "a CLI path built a QuiverDoc after the parse"
        doc_post_init(doc)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"a CLI path {what}")
        return call

    # the handlers import these from their modules when they run
    monkeypatch.setattr(qv_module, "parse_quiver_dsl", parse_and_arm)
    monkeypatch.setattr(qv_module.QuiverDoc, "__post_init__", first_doc_only)
    monkeypatch.setattr(quiver.Thread, "__post_init__", refuse("built a Thread"))
    monkeypatch.setattr(quiver, "koszul_dual", refuse("called koszul_dual"))
    for name in corpus_names():
        for command, *flags in (["threads"], ["threads", "--json"], ["threads", "--kind", "permitted"],
                                ["koszul"], ["koszul", "--json"], ["gldim", "--json"]):
            parsed.clear()
            rc, out, err = run_cli(capsys, command, qv(name), *flags)
            assert len(parsed) == 1 and (rc, bool(out), bool(err)) in ((0, True, False),
                                                                       (1, False, True)), name


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


def test_integrate_rejects_a_number_literal_that_overflows(capsys):
    rc, out, err = run_cli(capsys, "integrate", "--fn", "1e400*t", "--domain", "1", "2")
    assert (rc, out) == (1, "")
    assert err == ("error: syntax error at line 1, column 1: "
                   "expected a finite number, found '1e400'\n")


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


def test_elemfn_refuses_a_point_for_the_constant(capsys):
    rc, out, err = run_cli(capsys, "elemfn", "--name", "K", "--at", "1")
    assert rc == 1 and out == ""
    assert err == "error: elemfn --name K takes no --at\n"


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


def test_iposet_add_moves_the_literal_onto_the_given_ambient(capsys):
    fn = "2*indicator(1,2) - indicator(1.5,3)"
    rc, out, err = run_cli(capsys, "iposet-add", "--fn", fn, "--first", "0", "2",
                           "--second", "1", "4", "--ambient", "0", "5")
    assert (rc, out, err) == (0, "case = OverlapLeft\nvalue = 2.0\nset = [0.0, 4.0]\n", "")
    rc, out, err = run_cli(capsys, "iposet-add", "--fn", fn, "--first", "1", "2",
                           "--second", "1", "2.5", "--ambient", "1", "2.5")
    assert (rc, out) == (1, "")
    assert err == "error: piece [[2.0, 3.0]] escapes ambient [[1.0, 2.5]]\n"


def test_iposet_add_requires_step_literals(capsys):
    rc, out, err = run_cli(capsys, "iposet-add", "--fn", "t",
                           "--first", "0", "1", "--second", "0", "1")
    assert rc == 1 and "step-function literal" in err


_INDICATOR_SUM = " + ".join(f"indicator({i / 16},{i / 16 + 1})" for i in range(1200))
_NESTED = "(" * 10 ** 4 + "t" + ")" * 10 ** 4
_TOO_DEEP = "error: syntax error at line 1, column 101: expected at most 100 nested parentheses, found '('\n"


@pytest.mark.parametrize("argv, out, err", [
    (("integrate", "--fn", _INDICATOR_SUM, "--domain", "0", "76"),
     "enclosure = [1200.0, 1200.0]  width = 0.0  converged = true\n", ""),
    (("stieltjes", "--fn", _INDICATOR_SUM, "--domain", "0", "76"), "value = 1200.0\n", ""),
    (("iposet-add", "--fn", _INDICATOR_SUM, "--first", "0", "2", "--second", "1", "3"),
     "case = OverlapLeft\nvalue = 56.5\nset = [0.0, 3.0]\n", ""),
    (("integrate", "--fn", _NESTED, "--domain", "1", "2"), "", _TOO_DEEP),
    (("stieltjes", "--fn", _NESTED, "--domain", "1", "2"), "", _TOO_DEEP),
    (("iposet-add", "--fn", _NESTED, "--first", "0", "2", "--second", "1", "3"), "", _TOO_DEEP),
], ids=[f"{cmd}-{fn}" for fn in ("indicators", "nested") for cmd in ("integrate", "stieltjes", "iposet")])
def test_deep_expressions_give_a_result_or_one_error_line(argv, out, err):
    # a fresh process, so no test harness frames sit under the parser
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "stepquiver.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1 if err else 0, out, err)


def test_integrate_rejects_an_exponent_that_overflows(capsys):
    # it used to be reported as a non-finite integrand at the lower endpoint
    rc, out, err = run_cli(capsys, "integrate", "--fn", "t^" + "9" * 400, "--domain", "1", "2")
    assert (rc, out) == (1, "")
    assert err == f"error: syntax error at line 1, column 3: expected a finite exponent, found '{'9' * 400}'\n"


_TOL_ERROR = "error: tolerance must be a positive real, got {}\n"


@pytest.mark.parametrize("argv, exponent, plain, err", [
    (("integrate", "--fn", "t", "--domain", "{}", "1"), "-1e-3", "-0.001", ""),
    (("integrate", "--fn", "t", "--domain", "0", "1", "--tol", "{}"), "-1e-6", "-0.000001",
     _TOL_ERROR.format("-1e-06")),
    (("stieltjes", "--fn", "t", "--domain", "{}", "1"), "-2e0", "-2", ""),
    (("stieltjes", "--fn", "t", "--domain", "1", "2", "--log-power", "{}"), "-4E0", "-4.0",
     "error: -4.0*ln(t) decreases near x = 1 on [1.0, 2.0]\n"),
    (("stieltjes", "--fn", "t", "--domain", "0", "1", "--tol", "{}"), "-1e-9", "-.000000001",
     _TOL_ERROR.format("-1e-09")),
    (("elemfn", "--name", "asin", "--at", "{}"), "-1e-05", "-0.00001", ""),
    (("elemfn", "--name", "asin", "--at", "0.5", "--tol", "{}"), "-1e-6", "-0.000001",
     _TOL_ERROR.format("-1e-06")),
    (("iposet-add", "--fn", "indicator(-2,4)", "--first", "{}", "2", "--second", "1", "3"),
     "-1e0", "-1", ""),
    (("iposet-add", "--fn", "indicator(-2,4)", "--first", "0", "2", "--second", "{}", "3"),
     "-1.5e+0", "-1.5", ""),
    (("iposet-add", "--fn", "indicator(0,4)", "--first", "0", "2", "--second", "1", "3",
      "--ambient", "{}", "5"), "-1e0", "-1", ""),
], ids=["integrate-domain", "integrate-tol", "stieltjes-domain", "stieltjes-log-power",
        "stieltjes-tol", "elemfn-at", "elemfn-tol", "iposet-first", "iposet-second",
        "iposet-ambient"])
def test_a_negative_value_with_an_exponent_is_read_as_a_number(capsys, argv, exponent,
                                                                plain, err):
    # a value such as "-1e-05" is a number, not an option flag
    got = run_cli(capsys, *(exponent if a == "{}" else a for a in argv))
    assert got == run_cli(capsys, *(plain if a == "{}" else a for a in argv))
    assert got[0] == (1 if err else 0) and got[2] == err


_FINITE_ERROR = "error: expected a finite real, got {}\n"


@pytest.mark.parametrize("argv, err", [
    (("integrate", "--fn", "t", "--domain", "-inf", "1"), _FINITE_ERROR.format("-inf")),
    (("elemfn", "--name", "exp", "--at", "-Infinity"),
     "error: exp argument -inf out of supported range\n"),
    (("integrate", "--fn", "t", "--domain", "0", "1", "--tol", "-NaN"), _TOL_ERROR.format("nan")),
    (("stieltjes", "--fn", "t", "--domain", "1", "2", "--log-power", "-INF"),
     "error: -inf*ln(t) is non-finite on [1.0, 2.0]\n"),
    (("iposet-add", "--fn", "indicator(0,4)", "--first", "-infinity", "2", "--second", "1", "3"),
     _FINITE_ERROR.format("-inf")),
    (("iposet-add", "--fn", "indicator(0,4)", "--first", "0", "2", "--second", "-nan", "3"),
     _FINITE_ERROR.format("nan")),
    (("iposet-add", "--fn", "indicator(0,4)", "--first", "0", "2", "--second", "1", "3",
      "--ambient", "-iNf", "5"), _FINITE_ERROR.format("-inf")),
], ids=["domain", "at", "tol", "log-power", "first", "second", "ambient"])
def test_a_negative_non_finite_word_is_read_as_a_number(capsys, argv, err):
    # "-inf", "-infinity" and "-nan", in any case, are values, not option flags
    assert run_cli(capsys, *argv) == (1, "", err)


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

def test_a_step_integral_beyond_binary64_is_a_typed_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy RuntimeWarning either
        rc, out, err = run_cli(capsys, "integrate", "--fn", "1e300*indicator(0,1e10)",
                               "--domain", "0", "1e10")
    assert (rc, out) == (1, "") and "overflows binary64" in err



# Runs the CLI module as ``python -m stepquiver.cli`` does (or only imports
# the package when given no arguments) and reports which of numpy and the
# quiver modules were loaded.
_COLD_START = """
import runpy, sys
try:
    if len(sys.argv) > 1:
        runpy.run_module("stepquiver.cli", run_name="__main__", alter_sys=True)
    else:
        import stepquiver
finally:
    watched = ("numpy", "stepquiver.quiver", "stepquiver.qv")
    sys.stderr.write(f"loaded: {[m for m in watched if m in sys.modules]}\\n")
"""


def cold_start_loads(capsys, argv) -> bytes:
    """The ``loaded: [...]`` line of one fresh interpreter running ``argv``,
    after checking its exit code and stdout against an in-process run."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                          capture_output=True, timeout=60, env=env)
    if argv:
        rc, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (rc, out.encode()), argv
    return proc.stderr.rpartition(b"loaded: ")[2]


def test_quiver_subcommands_start_without_numpy(capsys):
    runs = [()] + [(cmd, qv("a4_full"), *json_flag)
                   for cmd in ("validate", "threads", "koszul", "gldim")
                   for json_flag in ((), ("--json",))]
    runs += [("gldim", qv("a4_full"), "--method", m)
             for m in ("threads", "integral", "stieltjes", "all")]
    for argv in runs:
        assert b"numpy" not in cold_start_loads(capsys, argv), argv


def test_numeric_subcommands_start_without_the_quiver_modules(capsys):
    runs = [("integrate", "--fn", "t^2", "--domain", "0", "1"),
            ("stieltjes", "--fn", "t", "--domain", "1", "2", "--log-power", "3"),
            ("elemfn", "--name", "asin", "--at", "0.5"),
            ("iposet-add", "--fn", "indicator(0,4)", "--first", "0", "2", "--second", "1", "3")]
    for argv in runs:
        assert cold_start_loads(capsys, argv) == b"['numpy']\n", argv


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
