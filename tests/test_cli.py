"""Expression grammar, report shapes, exit codes, and config precedence."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from eprod import cli, eproduct, hermite, operators, quadrature, special
from eprod.cli import (
    CONFIG_ENV,
    ExprError,
    canonical_text,
    main,
    operator_text,
    parse_distribution,
    parse_operator,
)
from eprod.exact import ExactTerm
from eprod.precision import working

# -- grammar ------------------------------------------------------------------

ROUND_TRIPS = [
    ("delta", "delta"),
    ("delta^(2)", "delta^(2)"),
    ("x", "x"),
    ("x^3", "x^3"),
    ("x^(4)", "x^4"),
    ("phi(2)", "phi(2)"),
    ("psi(0)", "psi(0)"),
    ("exp(1)", "exp(1)"),
    ("exp(-1/2)", "exp(-1/2)"),
    ("exp(2.5)", "exp(5/2)"),
    ("cos(1)", "cos(1)"),
    ("sin(3/2)", "sin(3/2)"),
    ("2*x", "2*x"),
    ("-x", "-x"),
    ("3/4*delta", "3/4*delta"),
    ("2i*delta", "2i*delta"),
    ("(1+2i)*x", "(1+2i)*x"),
    ("i*phi(1)", "i*phi(1)"),
    ("x + delta", "x + delta"),
    ("2*x - 3*delta^(1)", "2*x - 3*delta^(1)"),
    ("1", "x^0"),
    ("5/2", "5/2*x^0"),
    ("exp(1) + i*cos(2)", "exp(1) + i*cos(2)"),
]


@pytest.mark.parametrize("text,canonical", ROUND_TRIPS)
def test_distribution_round_trip(text, canonical):
    assert canonical_text(parse_distribution(text)) == canonical
    # canonical printing is a parse fixpoint
    assert canonical_text(parse_distribution(canonical)) == canonical


BAD_INPUTS = [
    ("delta^2", 6),
    ("x^", 2),
    ("phi(1.5)", 4),
    ("foo", 0),
    ("exp()", 4),
    ("2**x", 2),
    ("delta^(-1)", 7),
    ("phi(-2)", 4),
    ("", 0),
]


@pytest.mark.parametrize("text,position", BAD_INPUTS)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ExprError) as info:
        parse_distribution(text)
    assert info.value.position == position


OPERATOR_TRIPS = ["c", "cdag", "x", "D", "c cdag", "2*x D", "c + cdag", "1",
                  "-D", "(1+i)*c"]


@pytest.mark.parametrize("text", OPERATOR_TRIPS)
def test_operator_round_trip(text):
    canonical = operator_text(parse_operator(text))
    assert operator_text(parse_operator(canonical)) == canonical


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["delta", "x", "exp", "cos", "sin", "phi", "psi"]),
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=-4, max_value=4).filter(bool),
)
def test_atoms_round_trip_under_scalars(head, idx, scalar):
    if head in ("delta",):
        atom = "delta" if idx == 0 else f"delta^({idx})"
    elif head == "x":
        atom = "x" if idx == 1 else f"x^{idx}"
    elif head in ("phi", "psi"):
        atom = f"{head}({idx})"
    else:
        atom = f"{head}({scalar})"
    text = f"{scalar}*{atom}"
    canonical = canonical_text(parse_distribution(text))
    assert canonical_text(parse_distribution(canonical)) == canonical


# -- command runner -----------------------------------------------------------


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_json_report(capsys):
    rc, out, err = run_cli(
        capsys, ["compute", "exp(1)", "delta", "--digits", "40", "--format", "json"]
    )
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["status"] == "AbelSummable"
    assert rep["inputs"] == {"left": "exp(1)", "right": "delta"}
    assert abs(float(rep["value"]["re"]) - 1) < 1e-20
    assert float(rep["value"]["im"]) == 0
    assert rep["config"]["digits"] == 40
    assert rep["diagnostics"]["message"].startswith("Abel levels")


def test_compute_is_deterministic(capsys):
    argv = ["compute", "cos(1)", "delta", "--digits", "35", "--format", "json"]
    reports = []
    for _ in range(2):
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        rep = json.loads(out)
        rep.pop("wall_time_ms")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_compute_inconclusive_exits_three(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["compute", "delta", "delta", "--terms", "50", "--abel-levels", "6",
         "--format", "json"],
    )
    assert rc == 3
    rep = json.loads(out)
    assert rep["status"] == "Inconclusive"
    assert rep["value"] is None


def test_compute_parse_error_exits_one(capsys):
    rc, out, err = run_cli(capsys, ["compute", "delta^2", "delta"])
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["position"] == 6


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "delta"])  # missing second operand
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys,
        ["compute", "x", "delta", "--format", "json", "--out", str(target)],
    )
    assert rc == 0
    assert target.read_text() == out
    assert json.loads(out)["status"] == "ZeroByParity"


# -- coeffs ----------------------------------------------------------------------


def test_coeffs_csv(capsys):
    rc, out, _ = run_cli(
        capsys, ["coeffs", "delta", "--n-max", "4", "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im"
    assert len(lines) == 6
    first = float(lines[1].split(",")[1])
    assert abs(first - 0.7511255444649425) < 1e-12  # pi^(-1/4)
    assert float(lines[2].split(",")[1]) == 0  # odd index


# -- reproduce -------------------------------------------------------------------


def test_reproduce_wave_pairings(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce", "ex2", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["all_pass"] is True
    assert len(rep["rows"]) == 2


def test_reproduce_divergence_table(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce", "ex3", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["all_pass"] is True
    assert len(rep["rows"]) == 7


def test_reproduce_adjoint_text(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce", "adjoint", "--format", "text"])
    assert rc == 0
    rows = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(rows) == 9
    assert all(l.startswith("PASS") for l in rows)


# -- sweep -----------------------------------------------------------------------


def test_sweep_biorthonormal_corner(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["sweep", "phi", "psi", "--n-range", "0:1", "--m-range", "0:1",
         "--tol", "1e-13", "--digits", "50", "--format", "json"],
    )
    assert rc == 0
    rep = json.loads(out)
    cells = {(c["n"], c["m"]): c for c in rep["rows"]}
    assert len(cells) == 4
    for (n, m), cell in cells.items():
        got = float(cell["value"]["re"])
        assert abs(got - (1 if n == m else 0)) < 1e-12


def test_sweep_cap_rejected(capsys):
    rc, out, err = run_cli(
        capsys,
        ["sweep", "phi", "psi", "--n-range", "0:20", "--m-range", "0:20"],
    )
    assert rc == 1
    assert "cap" in json.loads(err)["error"]


# -- adjoint ----------------------------------------------------------------------


def test_adjoint_command(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["adjoint", "c", "delta", "exp(1)", "--digits", "40", "--format", "json"],
    )
    assert rc == 0
    rep = json.loads(out)
    assert float(rep["difference"]) < 1e-20
    assert rep["left_status"] in ("AbelSummable", "Convergent",
                                  "AbsolutelyConvergent")
    assert rep["left_value"] == rep["right_value"] or (
        abs(float(rep["left_value"]["re"]) - float(rep["right_value"]["re"]))
        < 1e-20
    )


def test_adjoint_rejects_words_over_the_cap(capsys):
    rc, _, err = run_cli(capsys, ["adjoint", " ".join(["x"] * 33), "delta", "exp(1)"])
    assert rc == 1
    assert "cap of 32" in json.loads(err)["error"]


def test_adjoint_divergent_sides_exit_three(capsys):
    rc, out, err = run_cli(capsys, ["adjoint", "1", "delta", "delta"])
    assert rc == 3
    assert "classified" in json.loads(err)["error"]


# -- internal faults ----------------------------------------------------------------


def run_fault(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 4 and out == ""
    return json.loads(err)


def test_cross_check_fault_exits_four(capsys, monkeypatch):
    # a closed form that disagrees with the terms it stands for
    monkeypatch.setattr(
        eproduct, "kernel_eval", lambda bf, bg, dps: lambda r: mpc(999)
    )
    payload = run_fault(capsys, ["compute", "exp(1)", "delta"])
    assert payload["fault"] == "RuntimeError"
    assert "disagrees with direct summation" in payload["error"]


def test_probe_guard_fault_exits_four(capsys, monkeypatch):
    # a word branch list that no longer matches the letters' definition
    real = operators.word_branches

    def skewed(terms, branches, dps):
        (coeff, s, x0, j), *rest = real(terms, branches, dps)
        with working(dps):
            return [(coeff * (1 + mpf("1e-20")), s, x0, j), *rest]

    monkeypatch.setattr(operators, "word_branches", skewed)
    payload = run_fault(
        capsys, ["adjoint", "c x", "delta^(1)", "exp(1/2)", "--digits", "60"]
    )
    assert payload["fault"] == "RuntimeError"
    assert "disagrees with apply_operator" in payload["error"]


def test_moment_route_mismatch_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(special, "_moment_recurrence", lambda k, p: ExactTerm.zero())
    monkeypatch.setattr(
        cli, "coeff", lambda d, n, dps: special.moment_integral.__wrapped__(2, 2)
    )
    payload = run_fault(capsys, ["coeffs", "x^2", "--n-max", "2"])
    assert payload["fault"] == "MomentRouteMismatch"


def test_stalled_quadrature_rule_exits_four(capsys, monkeypatch):
    # Newton refinement from NaN seeds never converges
    monkeypatch.setattr(quadrature, "_float_seeds", lambda n: [float("nan")] * ((n + 1) // 2))
    monkeypatch.setattr(
        cli, "coeff", lambda d, n, dps: quadrature.gauss_hermite_rule.__wrapped__(2, 30)
    )
    payload = run_fault(capsys, ["coeffs", "x", "--n-max", "2"])
    assert payload["fault"] == "RuntimeError"
    assert "stalled" in payload["error"]


def test_singular_kernel_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "coeff", lambda d, n, dps: hermite.eigenfunction_kernel(1, 0, 0, 0, 0, 30)
    )
    payload = run_fault(capsys, ["coeffs", "x", "--n-max", "2"])
    assert payload["fault"] == "SingularKernelError"


class _ClosedPipe:
    """Standard output whose reader has gone away, failing on write or on flush."""

    def __init__(self, on_write):
        self.on_write = on_write

    def write(self, text):
        if self.on_write:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on_write", [True, False])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, on_write):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(on_write))
    rc = main(["coeffs", "x", "--n-max", "2", "--format", "json"])
    assert rc == cli.EXIT_BROKEN_PIPE != 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_nothing_for_the_exit_flush():
    # no reader at all: the write fails at once, and the interpreter's own
    # flush at exit must not report the pipe a second time
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from eprod.cli import main; sys.exit(main(sys.argv[1:]))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, "coeffs", "x", "--n-max", "2", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == b""


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eprod", "compute", "exp(1)", "delta"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"AbelSummable" in proc.stdout


# -- configuration file ------------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"digits": 30, "max_terms": 500}))
    rc, out, _ = run_cli(
        capsys,
        ["compute", "exp(1)", "delta", "--config", str(cfg), "--format", "json"],
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["config"]["digits"] == 30
    assert rep["config"]["max_terms"] == 500

    rc, out, _ = run_cli(
        capsys,
        ["compute", "exp(1)", "delta", "--config", str(cfg), "--digits", "32",
         "--format", "json"],
    )
    assert json.loads(out)["config"]["digits"] == 32


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"digits": 31}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    rc, out, _ = run_cli(
        capsys, ["compute", "cos(1)", "delta", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(out)["config"]["digits"] == 31


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc, out, err = run_cli(
        capsys, ["compute", "x", "delta", "--config", str(cfg)]
    )
    assert rc == 1
    assert "bogus" in json.loads(err)["error"]


def test_digits_floor_enforced(capsys):
    rc, out, err = run_cli(
        capsys, ["compute", "x", "delta", "--digits", "10"]
    )
    assert rc == 1
    assert "precision" in json.loads(err)["error"]


# -- input caps ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["compute", "x", "delta", "--digits", "1001"], "cap of 1000"),
        (["coeffs", "x", "--n-max", "10001"], "cap of 10000"),
        (["compute", "delta^(65)", "exp(1)"], "cap of 64"),
        (["compute", "x^65", "delta"], "cap of 64"),
        (["compute", "phi(65)", "psi(0)"], "cap of 64"),
        (["compute", "phi(0)", "psi(65)"], "cap of 64"),
        (["sweep", "phi", "psi", "--n-range", "65:66", "--m-range", "0:0"], "cap of 64"),
    ],
)
def test_input_caps_reject(capsys, argv, cap):
    # only the rejection path: nothing of the capped size is computed
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and out == ""
    assert cap in json.loads(err)["error"]


# -- remaining exit codes ------------------------------------------------------------


def test_failing_reproduce_row_exits_two(capsys, monkeypatch):
    rows = list(cli._TABLES["ex2"])
    rows[0] = rows[0]._replace(want=2)  # <cos, delta> is 1, not 2
    monkeypatch.setitem(cli._TABLES, "ex2", rows)
    rc, out, _ = run_cli(capsys, ["reproduce", "ex2", "--format", "json"])
    assert rc == 2
    rep = json.loads(out)
    assert rep["all_pass"] is False
    assert [r["pass"] for r in rep["rows"]] == [False, True]


def test_missing_config_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    rc, out, err = run_cli(capsys, ["compute", "x", "delta", "--config", str(missing)])
    assert rc == 1 and out == ""
    assert "cannot read config file" in json.loads(err)["error"]


def test_out_into_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "absent" / "report.json"
    rc, _, err = run_cli(capsys, ["compute", "x", "delta", "--out", str(target)])
    assert rc == 1
    assert "No such file or directory" in json.loads(err)["error"]
    assert not target.exists()
