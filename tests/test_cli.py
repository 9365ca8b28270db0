import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpmg.newton as newton_mod
from gpmg.assembly import prolongation_matrix
from gpmg.cli import CSV_HEADER, main, run
from gpmg.config import load_config, parse_config_text
from gpmg.errors import ConfigurationError, UsageError
from gpmg.mesh import build_hierarchy
from gpmg.newton import (
    MixingParams,
    build_contexts,
    multigrid_mixing,
    multigrid_newton,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gpmg" / "configs"

LIN_1D = """
problem.dim = 1
problem.potential = 0
problem.zeta = 0.0
discretization.degree = 2
discretization.n0 = 4
discretization.levels = 4
reference_lambda = 9.869604401089358
"""

GPE_1D = """
problem.dim = 1
problem.potential = x1^2
problem.zeta = 10.0
discretization.degree = 2
discretization.n0 = 8
discretization.levels = 3
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- config parsing ----

def test_bundled_example_configs_load():
    cfg1 = load_config(CONFIG_DIR / "example1.cfg")
    assert cfg1.dim == 3 and cfg1.zeta == 1.0 and cfg1.degree == 2
    assert cfg1.reference_lambda == pytest.approx(34.819449)
    cfg2 = load_config(CONFIG_DIR / "example2.cfg")
    assert cfg2.zeta == 100.0 and cfg2.mixing.enabled
    assert cfg2.mixing.theta_init == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text(LIN_1D + "\nmystery.key = 1\n")


def test_missing_potential_named():
    with pytest.raises(ConfigurationError, match="problem.potential"):
        parse_config_text("problem.dim = 1\nproblem.zeta = 1\n")


def test_negative_zeta_rejected():
    with pytest.raises(ConfigurationError, match="zeta"):
        parse_config_text(
            "problem.dim = 1\nproblem.potential = 0\nproblem.zeta = -1\n"
        )


def test_bad_values_rejected():
    base = "problem.dim = 1\nproblem.potential = 0\nproblem.zeta = 0\n"
    for extra in (
        "discretization.degree = 3\n",
        "solver.method = qr\n",
        "mixing.theta_init = 1.5\n",
        "coarse.alpha = 0\n",
        "problem.dim = 1\n",  # duplicate
        "discretization.levels = junk\n",
    ):
        with pytest.raises(ConfigurationError):
            parse_config_text(base + extra)


def test_malformed_potential_fails_at_load():
    with pytest.raises(ConfigurationError):
        parse_config_text(
            "problem.dim = 1\nproblem.potential = x2 + 1\nproblem.zeta = 0\n"
        )


def test_box_parsing():
    cfg = parse_config_text(
        "problem.dim = 2\nproblem.potential = 0\nproblem.zeta = 0\n"
        "problem.box = -1,1\n"
    )
    assert cfg.domain.lower == (-1.0, -1.0)
    assert cfg.domain.upper == (1.0, 1.0)
    cfg = parse_config_text(
        "problem.dim = 2\nproblem.potential = 0\nproblem.zeta = 0\n"
        "problem.box = 0,1; -2,2\n"
    )
    assert cfg.domain.lower == (0.0, -2.0)


# ---- solve ----

def test_solve_linear_case(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config",
                           write(tmp_path, LIN_1D))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    final = lines[-1].split(",")
    assert abs(float(final[2]) - np.pi**2) < 1e-4
    assert final[3] != ""  # err_lambda populated (reference configured)
    assert final[4] == ""  # err_h1 absent, empty not zero


def test_solve_no_reference_leaves_err_empty(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config",
                           write(tmp_path, GPE_1D))
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[3] == ""


def test_levels_override(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config",
                           write(tmp_path, LIN_1D), "--levels", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_mixing_flag_populates_theta(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config",
                           write(tmp_path, GPE_1D), "--mixing")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][6] == ""  # coarse level has no theta
    assert all(r[6] != "" for r in rows[1:])
    resis = [float(r[5]) for r in rows]
    assert all(resis[i + 1] <= resis[i] for i in range(len(resis) - 1))


def test_solve_deterministic_except_time(tmp_path, capsys):
    path = write(tmp_path, GPE_1D)
    _, out1, _ = run_cli(capsys, "solve", "--config", path)
    _, out2, _ = run_cli(capsys, "solve", "--config", path)

    def strip_time(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    assert strip_time(out1) == strip_time(out2)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "solve", "--config",
                           write(tmp_path, LIN_1D), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == CSV_HEADER


def test_renormalize_flag(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "solve", "--config",
                         write(tmp_path, GPE_1D), "--renormalize")
    assert code == 0


# ---- study ----

def test_study_slopes_linear_p1(tmp_path, capsys):
    cfg = LIN_1D.replace("discretization.degree = 2",
                         "discretization.degree = 1")
    cfg = cfg.replace("discretization.n0 = 4", "discretization.n0 = 8")
    code, out, _ = run_cli(capsys, "study", "--config", write(tmp_path, cfg))
    assert code == 0
    slopes = dict(
        re.match(r"# (slope_\w+),(\S+)", line).groups()
        for line in out.strip().splitlines() if line.startswith("#")
    )
    assert abs(float(slopes["slope_err_lambda"]) - 2.0) <= 0.2
    assert abs(float(slopes["slope_err_h1"]) - 1.0) <= 0.2


def test_study_p2_h1_slope(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "study", "--config",
                           write(tmp_path, GPE_1D))
    assert code == 0
    slopes = dict(
        re.match(r"# (slope_\w+),(\S+)", line).groups()
        for line in out.strip().splitlines() if line.startswith("#")
    )
    assert abs(float(slopes["slope_err_h1"]) - 2.0) <= 0.3
    rows = [line for line in out.strip().splitlines()
            if line and not line.startswith("#")]
    for line in rows[1:]:
        parts = line.split(",")
        assert parts[3] != "" and parts[4] != ""  # both error columns


def study_oracle(cfg, renormalize):
    """(err_lambda, err_h1) per level from one driver run per depth."""
    hier = build_hierarchy(cfg.domain, (cfg.n0,) * cfg.dim, cfg.levels + 1)
    ctxs = build_contexts(hier, cfg.degree, cfg.nonlinearity,
                          potential=cfg.potential)

    def run(contexts):
        if cfg.mixing.enabled:
            params = MixingParams(cfg.mixing.theta_init, cfg.mixing.theta_min)
            return multigrid_mixing(contexts, params=params,
                                    scf_cfg=cfg.coarse, solver_cfg=cfg.solver,
                                    renormalize=renormalize)[0]
        return multigrid_newton(contexts, scf_cfg=cfg.coarse,
                                solver_cfg=cfg.solver,
                                renormalize=renormalize)[0]

    x_ref = run(ctxs)
    ref_ops = ctxs[-1]
    ref_lam = (cfg.reference_lambda if cfg.reference_lambda is not None
               else x_ref.lam)
    errors = []
    for depth in range(1, cfg.levels + 1):
        x = run(ctxs[:depth])
        v = x.u
        for idx in range(depth - 1, len(ctxs) - 1):
            v = prolongation_matrix(ctxs[idx].space, ctxs[idx + 1].space) @ v
        sign = 1.0 if float(v @ (ref_ops.mass @ x_ref.u)) >= 0 else -1.0
        errors.append((abs(x.lam - ref_lam),
                       ref_ops.h1_norm(sign * v - x_ref.u)))
    return errors


@pytest.mark.parametrize("flags", [[], ["--mixing"], ["--renormalize"]])
def test_study_errors_match_per_depth_runs(tmp_path, capsys, flags):
    path = write(tmp_path, GPE_1D)
    code, out, _ = run_cli(capsys, "study", "--config", path, *flags)
    assert code == 0
    cfg = load_config(path)
    cfg.mixing.enabled = "--mixing" in flags
    want = study_oracle(cfg, renormalize="--renormalize" in flags)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]
            if not line.startswith("#")]
    assert [(r[3], r[4]) for r in rows] == [
        (f"{e_lam:.6e}", f"{e_h1:.6e}") for e_lam, e_h1 in want
    ]


@pytest.mark.parametrize("command", ["study", "bench"])
def test_study_and_bench_run_the_driver_once(tmp_path, capsys, monkeypatch,
                                             command):
    calls = []
    run_driver = newton_mod._run_driver

    def counted(*args, **kwargs):
        calls.append(1)
        return run_driver(*args, **kwargs)

    monkeypatch.setattr(newton_mod, "_run_driver", counted)
    code, _, _ = run_cli(capsys, command, "--config", write(tmp_path, GPE_1D))
    assert code == 0
    assert len(calls) == 1


# ---- bench ----

def test_bench_emits_timing_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--config",
                           write(tmp_path, GPE_1D), "--direct")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,n_dofs,mg_time_ms,direct_time_ms"
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[2]) > 0
        assert parts[3] == "-" or float(parts[3]) > 0


def test_bench_time_is_cumulative(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--config",
                           write(tmp_path, LIN_1D))
    assert code == 0
    times = [float(line.split(",")[2])
             for line in out.strip().splitlines()[1:]]
    assert len(times) == 4
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_bench_direct_cap_marks_dash(tmp_path, capsys):
    cfg = GPE_1D + "coarse.dof_cap = 20\n"
    code, out, _ = run_cli(capsys, "bench", "--config",
                           write(tmp_path, cfg), "--direct")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split(",")[3] == "-"


# ---- exit codes ----

def test_exit_code_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--config",
                           str(tmp_path / "missing.cfg"))
    assert code == 2 and "error" in err


def test_exit_code_nonconvergence(tmp_path, capsys):
    cfg = GPE_1D + "coarse.max_outer = 1\ncoarse.tol = 1e-14\n"
    code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, cfg))
    assert code == 3 and "error" in err


def test_exit_code_resource_cap(tmp_path, capsys):
    cfg = GPE_1D + "coarse.dof_cap = 5\n"
    code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, cfg))
    assert code == 4 and "error" in err


def _one_line_exit(tmp_path, capsys, cfg, *flags):
    """Exit code and stderr of the `gpmg` script on a config that fails."""
    code = run(["solve", "--config", write(tmp_path, cfg), *flags])
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("value", ["2", "nan", "0"])
def test_theta_min_outside_range_is_config_error(tmp_path, capsys, value):
    cfg = GPE_1D + f"mixing.theta_min = {value}\n"
    code, err = _one_line_exit(tmp_path, capsys, cfg, "--mixing")
    assert code == 2 and "mixing.theta_min" in err


def test_mixing_params_reject_theta_min_outside_range():
    for theta_min in (0.0, 0.75, float("nan")):
        with pytest.raises(UsageError, match="theta_min"):
            MixingParams(theta_init=0.5, theta_min=theta_min)


def test_zero_scf_iterations_is_config_error(tmp_path, capsys):
    code, err = _one_line_exit(tmp_path, capsys,
                               GPE_1D + "coarse.max_outer = 0\n")
    assert code == 2 and "max_outer" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, value):
    cfg = GPE_1D.replace("problem.zeta = 10.0", f"problem.zeta = {value}")
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 2 and "problem.zeta" in err and "finite" in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys):
    # finite but so large that f(u^2) overflows inside the linear algebra
    cfg = GPE_1D.replace("problem.zeta = 10.0", "problem.zeta = 1e308")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an overflow warning would print
        code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 5 and err.startswith("internal error: ")
    assert caught == []


@pytest.mark.parametrize("potential, reason", [
    ("(" * 5000 + "x1" + ")" * 5000, "nested deeper"),
    ("sqrt(x1)", "unknown identifier"),
], ids=["deep", "sqrt"])
def test_deeply_nested_potential_is_config_error(tmp_path, capsys, potential,
                                                 reason):
    cfg = GPE_1D.replace("problem.potential = x1^2",
                         f"problem.potential = {potential}")
    code, out, err = run_cli(capsys, "solve", "--config", write(tmp_path, cfg))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert reason in err and "Traceback" not in err
    assert "problem.potential" in err


def test_overflowing_potential_is_config_error(tmp_path, capsys):
    cfg = GPE_1D.replace("problem.potential = x1^2",
                         "problem.potential = exp(1000*x1)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning escapes
        code, _, err = run_cli(capsys, "solve", "--config",
                               write(tmp_path, cfg))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "problem.potential" in err
