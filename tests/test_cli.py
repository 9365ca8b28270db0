import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import gpmg.assembly as assembly_mod
import gpmg.eigsolve as eigsolve_mod
import gpmg.newton as newton_mod
from gpmg.assembly import prolongation_matrix
from gpmg.cli import CSV_HEADER, main, run
from gpmg.config import _SCHEMA, RunConfig, load_config, parse_config_text
from gpmg.eigsolve import ScfConfig
from gpmg.errors import ConfigurationError, SolverError, StagnationError
from gpmg.linsolve import SolverConfig
from gpmg.mesh import build_hierarchy
from gpmg.newton import (
    MixingParams,
    build_contexts,
    multigrid_mixing,
    multigrid_newton,
)
from gpmg.state import IterateX

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
    assert cfg2.zeta == 100.0 and cfg2.mixing_enabled
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
        "solver.rel_tol = 1.5\n",
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


def test_defaults_come_from_the_dataclasses():
    cfg = parse_config_text(
        "problem.dim = 1\nproblem.potential = 0\nproblem.zeta = 0\n")
    assert cfg == RunConfig(dim=1, potential_source="0", zeta=0.0)
    assert cfg.solver == SolverConfig()
    assert cfg.coarse == ScfConfig()
    assert cfg.mixing == MixingParams()
    assert not cfg.mixing_enabled and cfg.reference_lambda is None


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


@pytest.mark.parametrize("n0", ["0", "-1", "1"])
def test_coarsest_mesh_without_interior_dof_is_config_error(tmp_path, capsys,
                                                            n0):
    # a 1-cell P1 coarsest mesh has no interior dof for the coarse solve's
    # eigenpair (it exited 5, an IndexError); the same mesh in P2 has one
    cfg = GPE_1D.replace("discretization.degree = 2",
                         "discretization.degree = 1")
    cfg = cfg.replace("discretization.n0 = 8", f"discretization.n0 = {n0}")
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 2 and "discretization.n0" in err
    p2 = GPE_1D.replace("discretization.n0 = 8", "discretization.n0 = 1")
    code, out, _ = run_cli(capsys, "solve", "--config", write(tmp_path, p2))
    assert code == 0 and len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_levels_override_is_checked_as_the_config_key(tmp_path, capsys,
                                                     levels):
    code, err = _one_line_exit(tmp_path, capsys, LIN_1D, "--levels", levels)
    assert code == 2 and "discretization.levels must be positive" in err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--direct"), ("study", "--direct"), ("bench", "--renormalize"),
])
def test_flags_are_registered_only_where_they_act(tmp_path, capsys, command,
                                                  flag):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", write(tmp_path, LIN_1D), flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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
        if cfg.mixing_enabled:
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
        ix = ref_ops.space.interior_dofs
        inner = float(v[ix] @ (ref_ops.mass @ x_ref.u[ix]))
        sign = 1.0 if inner >= 0 else -1.0
        errors.append((abs(x.lam - ref_lam),
                       ref_ops.h1_norm(sign * v - x_ref.u)))
    return errors


@pytest.mark.parametrize("flags", [[], ["--mixing"], ["--renormalize"]])
def test_study_errors_match_per_depth_runs(tmp_path, capsys, flags):
    path = write(tmp_path, GPE_1D)
    code, out, _ = run_cli(capsys, "study", "--config", path, *flags)
    assert code == 0
    cfg = load_config(path)
    cfg.mixing_enabled = "--mixing" in flags
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
        with pytest.raises(ConfigurationError, match="mixing.theta_min"):
            MixingParams(theta_init=0.5, theta_min=theta_min)


def test_zero_scf_iterations_is_config_error(tmp_path, capsys):
    code, err = _one_line_exit(tmp_path, capsys,
                               GPE_1D + "coarse.max_outer = 0\n")
    assert code == 2 and "max_outer" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_iter_below_one_is_config_error(tmp_path, capsys, value):
    # not an indefinite-linearization failure (exit 3) at the first mg_cg
    # solve: the count is rejected at load
    cfg = ("problem.dim = 2\nproblem.potential = x1^2\nproblem.zeta = 1.0\n"
           "discretization.n0 = 8\ndiscretization.levels = 4\n"
           f"solver.max_iter = {value}\n")
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 2 and "solver.max_iter" in err
    with pytest.raises(ConfigurationError, match="max_iter"):
        SolverConfig(max_iter=int(value))


def test_readme_key_table_lists_the_schema_keys():
    # one row per config key, in the table under "Configuration files"
    readme = (CONFIG_DIR.parents[2] / "README.md").read_text()
    table = readme.split("| Key | Default | Meaning |", 1)[1]
    table = table.split("\n\n", 1)[0]
    keys = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert sorted(keys) == sorted(_SCHEMA)


@pytest.mark.parametrize("key", ["discretization.n0", "problem.zeta",
                                 "mixing.enabled"])
def test_config_errors_quote_the_value_as_written(key):
    with pytest.raises(ConfigurationError,
                       match=rf"^{re.escape(key)}: expected .*, got 'abc'$"):
        parse_config_text(f"{key} = abc\n")


@pytest.mark.parametrize("cap,code,named", [
    ("5", 4, "the coarse space's 17 dofs exceed coarse.dof_cap = 5"),
    ("0", 2, "coarse.dof_cap must be at least 1"),
    ("-1", 2, "coarse.dof_cap must be at least 1"),
], ids=["5", "0", "-1"])
def test_coarse_dof_cap_errors_name_the_key(tmp_path, capsys, cap, code,
                                            named):
    cfg = GPE_1D + f"coarse.dof_cap = {cap}\n"
    assert _one_line_exit(tmp_path, capsys, cfg) == (code, f"error: {named}\n")


def test_arpack_failure_is_solver_failure(tmp_path, capsys, monkeypatch):
    # with the dense limit at 0, ARPACK computes the coarse eigenpair
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(eigsolve_mod, "DENSE_EIG_LIMIT", 0)
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    code, err = _one_line_exit(tmp_path, capsys, GPE_1D)
    assert code == 3 and "ARPACK" in err
    assert err.startswith("error: level 1: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, value):
    cfg = GPE_1D.replace("problem.zeta = 10.0", f"problem.zeta = {value}")
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 2 and "problem.zeta" in err and "finite" in err


def test_potential_non_finite_past_the_first_block_is_config_error(
        tmp_path, capsys, monkeypatch):
    # nan only at x1 > 0.75: the coarse mesh's last two of 8 cells, which
    # are outside its first block of 4
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", 4)
    cfg = GPE_1D.replace("problem.potential = x1^2",
                         "problem.potential = (0.75 - x1)^0.5")
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 2
    assert "problem.potential evaluates to inf or nan" in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                               monkeypatch):
    # an exception that is not a GpmgError, raised deep inside the solve
    def broken_eigensolver(kfull, m):
        raise np.linalg.LinAlgError("eigh failed to converge")

    monkeypatch.setattr(eigsolve_mod, "smallest_eigpair", broken_eigensolver)
    code, err = _one_line_exit(tmp_path, capsys, GPE_1D)
    assert code == 5
    assert err.startswith("internal error: LinAlgError: eigh failed")


def test_huge_zeta_is_nonconvergence(tmp_path, capsys):
    # finite but so large that resi overflows halfway up the zeta ladder
    # (over 300 rungs, each converged to round-off in a step or two)
    cfg = GPE_1D.replace("problem.zeta = 10.0", "problem.zeta = 1e308")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an overflow warning would print
        code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 3 and "rung" in err and "overflowed" in err
    assert caught == []


def test_zeta_ladder_outlasting_the_step_budget_is_nonconvergence(tmp_path,
                                                                 capsys):
    # 101 rungs, each at least one step: the budget is summed over rungs
    cfg = GPE_1D.replace("problem.zeta = 10.0", "problem.zeta = 1e100")
    code, err = _one_line_exit(tmp_path, capsys,
                               cfg + "coarse.max_outer = 50\n")
    assert code == 3 and "rung" in err and "50 steps" in err


def test_coarse_solve_stops_at_resi_roundoff(tmp_path, capsys, monkeypatch):
    # example 2's coarse mesh at zeta = 1e6 (lambda ~ 2e6): resi bottoms out
    # at round-off, ~1.1e-10 > coarse.tol = 1e-10, so only a stopping bound
    # that grows with |lambda| lets the solve finish
    cfg = (CONFIG_DIR / "example2.cfg").read_text()
    cfg = cfg.replace("problem.zeta = 100.0", "problem.zeta = 1e6").replace(
        "discretization.levels = 3", "discretization.levels = 1")
    states = []
    scf_solve = eigsolve_mod.scf_solve

    def recording_scf_solve(ops, cfg=None):
        states.append((ops, scf_solve(ops, cfg)))
        return states[-1][1]

    monkeypatch.setattr(eigsolve_mod, "scf_solve", recording_scf_solve)
    code, out, err = run_cli(capsys, "solve", "--config", write(tmp_path, cfg))
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 2
    (ops, x), = states
    assert x.lam > 1e6
    assert x.u[ops.space.interior_dofs].min() > 0.0


def test_sign_changing_coarse_state_is_nonconvergence(tmp_path, capsys,
                                                      monkeypatch):
    # started from the first excited linear state, Newton converges to a
    # sign-changing solution, which the ground-state guard rejects
    def second_eigpair(kfull, m):
        w, v = sla.eigh(kfull.toarray(), m.toarray(), subset_by_index=[1, 1])
        return float(w[0]), v[:, 0]

    monkeypatch.setattr(eigsolve_mod, "smallest_eigpair", second_eigpair)
    code, err = _one_line_exit(tmp_path, capsys, GPE_1D)
    assert code == 3 and "sign-changing" in err
    assert err.startswith("error: level 1: ")


def _csv_lambdas(tmp_path, capsys, cfg):
    """Every level's lambda of a `gpmg solve` run that must exit 0."""
    code = run(["solve", "--config", write(tmp_path, cfg)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return [float(row.split(",")[2]) for row in out.strip().splitlines()[1:]]


@pytest.mark.parametrize("potential,zeta,n0,levels", [
    ("x1^2 + 2*x2^2", 0.0, 16, 5),
    ("x1^2 + 2*x2^2 - 30", 0.0, 8, 4),
], ids=["linear", "negative_potential"])
def test_linked_mg_cg_levels_match_the_direct_solve(tmp_path, capsys,
                                                    monkeypatch, potential,
                                                    zeta, n0, levels):
    # 2D P1 at zeta = 0: every level above the coarsest solves by
    # projected mg_cg, though lambda0 = lambda_H lies above the level's
    # ground state and K is indefinite, and every level's lambda matches,
    # to 1e-8, a run whose driver starts no Newton V-cycle and so solves
    # every step directly. With V = x1^2 + 2 x2^2 - 30 the eigenvalue is
    # negative, and so is A + V M: the V-cycle's G is SPD only through the
    # shift s = -min V
    cfg = (f"problem.dim = 2\nproblem.potential = {potential}\n"
           f"problem.zeta = {zeta}\ndiscretization.degree = 1\n"
           f"discretization.n0 = {n0}\ndiscretization.levels = {levels}\n")
    linked = []
    solve = newton_mod.solve_bordered

    def recording(system, cfg, vcycle=None):
        linked.append(vcycle is not None)
        return solve(system, cfg, vcycle=vcycle)

    monkeypatch.setattr(newton_mod, "solve_bordered", recording)
    mg_cg = _csv_lambdas(tmp_path, capsys, cfg)
    assert linked[-(levels - 1):] == [True] * (levels - 1)
    assert linked.count(True) == levels - 1
    linked.clear()
    monkeypatch.setattr(newton_mod, "_build_vcycle", lambda *args: None)
    direct = _csv_lambdas(tmp_path, capsys, cfg)
    assert linked and not any(linked)
    assert len(mg_cg) == levels
    assert mg_cg == pytest.approx(direct, rel=1e-8, abs=0.0)
    assert (mg_cg[-1] < 0.0) == potential.endswith("- 30")


def test_linear_solver_failure_names_the_level(tmp_path, capsys):
    # one PCG iteration cannot reach the tolerance of level 2's projected
    # mg_cg step (3.9e-3, from its resi; PCG stops at 1/100 of that)
    cfg = P1_2D + "solver.max_iter = 1\n"
    code, err = _one_line_exit(tmp_path, capsys, cfg)
    assert code == 3 and "failed to converge in 1 iterations" in err
    assert err.startswith("error: level 2: ")


def example2_at_zeta_1000():
    """example2.cfg (n0 = 2, 3 levels, mixing) at zeta = 1e3 from theta = 1:
    level 2's step (343 interior dofs) starts from the prolongated level-1
    ground state, where its Newton matrix is not coercive on the tangent
    space, so projected PCG meets negative curvature."""
    text = (CONFIG_DIR / "example2.cfg").read_text()
    text = text.replace("problem.zeta = 100.0", "problem.zeta = 1000")
    return text.replace("mixing.theta_init = 0.5", "mixing.theta_init = 1.0")


def _record_starts(monkeypatch):
    """A list that fills with the lambda0 of every Newton system built."""
    starts = []
    assemble = newton_mod.assemble_newton_system

    def recording(ctx, x0):
        starts.append(x0.lam)
        return assemble(ctx, x0)

    monkeypatch.setattr(newton_mod, "assemble_newton_system", recording)
    return starts


def test_negative_curvature_names_the_level_lambda0_zeta_and_iteration(
        tmp_path, capsys, monkeypatch):
    starts = _record_starts(monkeypatch)
    code, err = _one_line_exit(tmp_path, capsys, example2_at_zeta_1000())
    assert code == 3
    match = re.fullmatch(
        r"error: level 2: negative curvature p'Kp = -\S+ at PCG iteration "
        r"(\d+): the operator is not positive definite on the tangent "
        r"space; Newton matrix at lambda0 = (\S+), zeta = 1000", err.strip())
    assert match is not None, err
    assert int(match.group(1)) >= 1
    assert float(match.group(2)) == pytest.approx(starts[-1], rel=1e-6)


def with_negated_g_diagonal(monkeypatch):
    """Hand every linked step's Newton V-cycle its G (SPD by
    construction) with the diagonal negated, so that the smoother set-up
    rejects its top level."""
    build = newton_mod._build_vcycle

    def negated(ctx, u0, coarser=None, g=None):
        if g is not None:
            g = g.copy()
            g.setdiag(-g.diagonal())
        return build(ctx, u0, coarser, g)

    monkeypatch.setattr(newton_mod, "_build_vcycle", negated)


def test_nonpositive_vcycle_diagonal_names_both_levels(tmp_path, capsys,
                                                      monkeypatch):
    with_negated_g_diagonal(monkeypatch)
    code, err = _one_line_exit(tmp_path, capsys,
                               (CONFIG_DIR / "example2.cfg").read_text())
    assert code == 3
    assert err.startswith("error: level 2: V-cycle level 2 (1 is the "
                          "coarsest), 343 interior dofs: ")
    assert "nonpositive diagonal entry" in err


def test_vcycle_coercivity_error_names_lambda0_and_zeta(tmp_path, capsys,
                                                       monkeypatch):
    # the one stderr line also names the linearization point lambda0 of
    # the Newton matrix whose V-cycle failed, and zeta
    with_negated_g_diagonal(monkeypatch)
    starts = _record_starts(monkeypatch)
    code, err = _one_line_exit(tmp_path, capsys,
                               (CONFIG_DIR / "example2.cfg").read_text())
    assert code == 3
    assert err.startswith("error: level 2: V-cycle level 2 (1 is the "
                          "coarsest), 343 interior dofs: ")
    match = re.search(r"; Newton matrix at lambda0 = (\S+), zeta = 100$",
                      err.strip())
    assert match is not None
    assert float(match.group(1)) == pytest.approx(starts[-1], rel=1e-6)


@pytest.mark.parametrize("flags", [[], ["--mixing"]], ids=["newton", "mixing"])
def test_level_step_that_raises_resi_is_stagnation(tmp_path, capsys,
                                                   monkeypatch, flags):
    # level 2's Newton step reflected through its start points uphill in
    # resi: plain Newton rejects the full step, the mixing search every
    # theta down to theta_min, and either ends the run naming the level
    newton_step = newton_mod.newton_step

    def reflected(ctx, x0, cfg=None, coarser=None):
        x1, vcycle = newton_step(ctx, x0, cfg, coarser)
        if ctx.coarser is None or ctx.coarser.coarser is not None:
            return x1, vcycle
        return IterateX(lam=2.0 * x0.lam - x1.lam,
                        u=2.0 * x0.u - x1.u), vcycle

    compared = []
    mixing_iteration = newton_mod.mixing_iteration

    def recording(*args, **kwargs):
        try:
            return mixing_iteration(*args, **kwargs)
        except StagnationError as err:
            compared.append((err.resi_old, err.resi_new))
            raise

    monkeypatch.setattr(newton_mod, "newton_step", reflected)
    monkeypatch.setattr(newton_mod, "mixing_iteration", recording)
    code, err = _one_line_exit(tmp_path, capsys, GPE_1D, *flags)
    (resi_old, resi_new), = compared
    assert code == 3 and resi_new > resi_old
    assert err.startswith("error: level 2: ")
    assert f"{resi_old:.6e}" in err and f"{resi_new:.6e}" in err
    assert ("rerun with the mixing driver (--mixing)" in err) == (not flags)


REMOVED_KEYS = [("coarse.alpha", "0.5"), ("coarse.inner", "auto"),
                ("solver.pre_smooth", "2"), ("solver.post_smooth", "2"),
                ("solver.method", "auto")]


@pytest.mark.parametrize("key,value", REMOVED_KEYS,
                         ids=[key for key, _ in REMOVED_KEYS])
def test_removed_keys_are_unknown(tmp_path, capsys, key, value):
    # the damped fixed-point coarse solve is gone; both V-cycles smooth
    # with linsolve.CHEBYSHEV_DEGREE before and after coarse correction;
    # a Newton step solves by mg_cg exactly when given a coarser V-cycle
    code, err = _one_line_exit(tmp_path, capsys,
                               GPE_1D + f"{key} = {value}\n")
    assert code == 2 and f"unknown key {key!r}" in err


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


P1_2D = """
problem.dim = 2
problem.potential = x1^2
problem.zeta = 1.0
discretization.degree = 1
discretization.n0 = 4
discretization.levels = 2
"""


@pytest.mark.parametrize("key,value,code,named", [
    ("problem.zeta", "1e108", 3,
     "level 2: matrix entry 5.327e+106 is past the float32 range"),
    ("problem.box", "1.0,1e100", 2,
     "problem.box and problem.potential: the assembled operators overflow"),
], ids=["zeta", "box"])
def test_float_overflow_is_named(tmp_path, capsys, key, value, code, named):
    # level 2's Newton matrix has entries past the float32 V-cycle's range,
    # which is no loss of curvature; x1^2 times the cell volumes of a
    # 1 x 1e100 box
    # overflows the potential mass, which the coarse eigensolver would
    # reject as an internal error (exit 5)
    cfg = (P1_2D.replace("problem.zeta = 1.0\n", "") + f"{key} = {value}\n"
           + ("" if key == "problem.zeta" else "problem.zeta = 1.0\n"))
    got, err = _one_line_exit(tmp_path, capsys, cfg)
    assert got == code and named in err and "curvature" not in err


# 2D P1 from n0 = 16 over 5 levels: 65,025 finest interior dofs, at least
# newton.OVERLAP_MIN_DOFS, so rows 1-3 take their traced resi on the
# driver's worker thread
P1_2D_OVERLAP = P1_2D.replace("n0 = 4", "n0 = 16").replace("levels = 2",
                                                          "levels = 5")


@pytest.mark.parametrize("step_fails", [False, True],
                         ids=["resi", "resi-then-step"])
def test_worker_failure_names_the_lowest_failing_level(tmp_path, capsys,
                                                       monkeypatch,
                                                       step_fails):
    # row 1's traced resi fails on the worker thread; with step_fails it
    # waits until level 3's step has failed on the driver thread. Either
    # way level 1's error is reported, as a serial run reports it, and the
    # worker thread is gone when the run returns
    traced_resi, mixing = newton_mod._traced_resi, newton_mod.mixing_iteration
    step_failed, workers = threading.Event(), []

    def failing_resi(contexts, x, level_idx, resi_own=None):
        if level_idx == 0:
            workers.append(threading.get_ident())
            if step_fails:
                assert step_failed.wait(timeout=60)
            raise SolverError("traced resi failed")
        return traced_resi(contexts, x, level_idx, resi_own)

    def failing_step(ctx, x0, *args):
        if step_fails and ctx.space.n_dofs == 65**2:
            step_failed.set()
            raise SolverError("step failed")
        return mixing(ctx, x0, *args)

    monkeypatch.setattr(newton_mod, "_traced_resi", failing_resi)
    monkeypatch.setattr(newton_mod, "mixing_iteration", failing_step)
    threads = threading.active_count()
    code, err = _one_line_exit(tmp_path, capsys, P1_2D_OVERLAP)
    assert code == 3 and err.startswith("error: level 1: traced resi failed")
    assert workers and workers[0] != threading.get_ident()
    assert step_failed.is_set() == step_fails
    assert threading.active_count() == threads


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
