"""Command-line drivers: solve, study, bench.

CSV rows use the fixed header
``level,n_dofs,lambda,err_lambda,err_h1,resi,theta,time_ms`` with absent
values left empty. `study` appends fitted convergence slopes as `#`
comment lines; `bench` uses its own timing header.

Exit codes: 0 ok, 2 configuration error, 3 solver non-convergence,
4 resource cap exceeded, 5 internal error (an unexpected exception).
"""

import argparse
import math
import sys
import time

import numpy as np

from .config import load_config
from .eigsolve import scf_solve
from .errors import (
    ConfigurationError,
    GpmgError,
    ResourceLimitError,
    UsageError,
)
from .mesh import build_hierarchy
from .newton import (
    _finalize,
    _prolong_to_finest,
    build_contexts,
    multigrid_mixing,
    multigrid_newton,
)

__all__ = ["main", "run", "cmd_solve", "cmd_study", "cmd_bench"]

CSV_HEADER = "level,n_dofs,lambda,err_lambda,err_h1,resi,theta,time_ms"


def _fmt(value, spec="{:.12g}"):
    if value is None:
        return ""
    return spec.format(value)


def _report_rows(trace):
    lines = [CSV_HEADER]
    for row in trace:
        lines.append(",".join([
            str(row.level),
            str(row.n_dofs),
            _fmt(row.lam, "{:.12e}"),
            _fmt(row.err_lambda, "{:.6e}"),
            _fmt(row.err_h1, "{:.6e}"),
            _fmt(row.resi, "{:.6e}"),
            _fmt(row.theta),
            _fmt(row.wall_time_ms, "{:.3f}"),
        ]))
    return lines


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(cfg, levels=None):
    hier = build_hierarchy(cfg.domain, (cfg.n0,) * cfg.dim, levels or cfg.levels)
    return build_contexts(hier, cfg.degree, cfg.nonlinearity,
                          potential=cfg.potential)


def _run(cfg, contexts, renormalize=False):
    if cfg.mixing_enabled:
        return multigrid_mixing(contexts, params=cfg.mixing,
                                scf_cfg=cfg.coarse, solver_cfg=cfg.solver,
                                renormalize=renormalize,
                                reference_lambda=cfg.reference_lambda)
    return multigrid_newton(contexts, scf_cfg=cfg.coarse,
                            solver_cfg=cfg.solver, renormalize=renormalize,
                            reference_lambda=cfg.reference_lambda)


def cmd_solve(cfg, out_path=None, renormalize=False):
    contexts = _build(cfg)
    _, trace = _run(cfg, contexts, renormalize=renormalize)
    _emit(_report_rows(trace), out_path)
    return 0


def cmd_study(cfg, out_path=None, renormalize=False):
    """Per-level errors against a reference, plus fitted convergence orders.

    One run one level deeper than configured: its final iterate is the
    eigenfunction reference, and its rows hold every level's iterate. The
    eigenvalue reference is cfg.reference_lambda when configured, the
    extra level's value otherwise.
    """
    contexts = _build(cfg, levels=cfg.levels + 1)
    x_ref, trace = _run(cfg, contexts, renormalize=renormalize)
    ref_ops = contexts[-1]
    ref_lam = (cfg.reference_lambda if cfg.reference_lambda is not None
               else x_ref.lam)

    ix = ref_ops.space.interior_dofs
    m_ref = ref_ops.mass @ x_ref.u[ix]

    rows = trace[:cfg.levels]
    for idx, row in enumerate(rows):
        x_k = _finalize(contexts[idx], row.x) if renormalize else row.x
        v = _prolong_to_finest(contexts, x_k.u, idx)
        sign = 1.0 if float(v[ix] @ m_ref) >= 0 else -1.0
        row.err_h1 = ref_ops.h1_norm(sign * v - x_ref.u)
        row.err_lambda = abs(x_k.lam - ref_lam)
    lines = _report_rows(rows)

    hs = [ctx.space.mesh.h for ctx in contexts[:cfg.levels]]
    for name in ("err_lambda", "err_h1"):
        pts = [(math.log(h), math.log(getattr(row, name)))
               for h, row in zip(hs, rows) if getattr(row, name) > 0]
        if len(pts) >= 2:
            slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
            lines.append(f"# slope_{name},{slope:.4f}")
    _emit(lines, out_path)
    return 0


BENCH_HEADER = "level,n_dofs,mg_time_ms,direct_time_ms"


def cmd_bench(cfg, out_path=None, direct=False):
    """Cumulative multigrid step time per level, from one driver run (the
    finest-space resi diagnostic excluded); optionally a from-scratch
    nonlinear solve on each level for comparison (capped rows marked '-')."""
    contexts = _build(cfg)
    _, trace = _run(cfg, contexts)
    lines = [BENCH_HEADER]
    mg_ms = 0.0
    for ctx, row in zip(contexts, trace):
        mg_ms += row.step_ms
        direct_cell = ""
        if direct:
            try:
                t0 = time.perf_counter()
                scf_solve(ctx, cfg.coarse)
                direct_cell = f"{(time.perf_counter() - t0) * 1e3:.3f}"
            except ResourceLimitError:
                direct_cell = "-"
        lines.append(",".join([
            str(row.level),
            str(row.n_dofs),
            f"{mg_ms:.3f}",
            direct_cell,
        ]))
    _emit(lines, out_path)
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="gpmg",
        description="Multigrid Newton solver for Gross-Pitaevskii-type "
                    "eigenvalue problems.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "study", "bench"):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        s.add_argument("--mixing", action="store_true",
                       help="use the adaptively damped (mixing) driver; "
                            "a config with mixing.enabled = true uses it "
                            "without this flag, which cannot switch it off")
        s.add_argument("--direct", action="store_true",
                       help="bench only: also time a from-scratch solve "
                            "on every level")
        s.add_argument("--renormalize", action="store_true",
                       help="L2-normalize the final iterate and recompute "
                            "lambda from the Rayleigh identity")
        s.add_argument("--levels", type=int, default=None,
                       help="override discretization.levels")
        s.add_argument("--out", default=None, help="write CSV here "
                       "instead of stdout")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.levels is not None:
            if args.levels < 1:
                raise ConfigurationError("--levels must be positive")
            cfg.levels = args.levels
        if args.mixing:
            cfg.mixing_enabled = True
        if args.command == "solve":
            return cmd_solve(cfg, out_path=args.out,
                             renormalize=args.renormalize)
        if args.command == "study":
            return cmd_study(cfg, out_path=args.out,
                             renormalize=args.renormalize)
        return cmd_bench(cfg, out_path=args.out, direct=args.direct)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ConfigurationError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GpmgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def run(argv=None):
    """The `gpmg` script: main, with any exception that is not a GpmgError
    reported on one stderr line as exit 5. main itself lets such an
    exception reach an in-process caller."""
    try:
        # a non-finite intermediate ends in an error; numpy's warnings
        # about it would only add stderr lines
        with np.errstate(all="ignore"):
            return main(argv)
    except Exception as err:
        message = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {message}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(run())
