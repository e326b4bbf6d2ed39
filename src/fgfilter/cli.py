"""Command-line entry points.

Three subcommands:

    fgfilter simulate --model noise_magnitude --steps 1000 --seed 0
        Run the tracking experiment; writes report_<model>_<order>.csv
        per requested order plus summary.csv.

    fgfilter density --model noise_magnitude --y-range=-20,20
        Tabulate the exact joint density on a grid alongside the GF and
        FGF conditional-mean curves; writes density_<model>.csv.

    fgfilter kl --model heaviside --orders 1,2,3
        Score feature orders by the grid KL objective; writes
        kl_<model>.csv.

Exit codes: 0 on success, 1 on usage or configuration errors (a config
key the subcommand does not read is one), 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from ._linalg import NumericsError
from .config import (
    _get,
    _model_kwargs,
    engine_from_config,
    load_config,
    model_from_config,
    parse_bool,
    parse_orders,
)
from .experiments import (
    EXPERIMENTS,
    run_experiment_batch,
    write_report_csv,
    write_summary_csv,
)
from .filters import _evaluate_feature, fgf_solve, make_affine_feature, make_monomial_feature
from .gridoracle import (
    Grid1D,
    _state_grid,
    default_grids,
    grid_joint_moments,
    joint_density_grid,
    kl_conditional,
)

__all__ = ["cli_main", "main"]

# The flags a config key can also set: dest -> (key, parser, default). A
# flag on the command line wins over its key; a default of None leaves
# the value to the subcommand.
_SETTINGS = {
    "model": ("model.name", str, None),
    "seed": ("run.seed", int, 0),
    "out": ("run.out", Path, Path(".")),
    "steps": ("run.steps", int, 1000),
    "seeds": ("run.seeds", int, 1),
    "orders": ("run.orders", parse_orders, None),
    "order": ("feature.order", int, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgfilter",
        description="Gaussian and feature-Gaussian filtering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", choices=tuple(EXPERIMENTS), help="built-in model name")
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--out", help="output directory (created at the first write)")

    p_sim = sub.add_parser("simulate", help="run the tracking experiment")
    common(p_sim)
    p_sim.add_argument("--steps", type=int, help="trajectory length")
    p_sim.add_argument("--orders", help="comma-separated feature orders, e.g. 1,2")
    p_sim.add_argument("--seeds", type=int, help="number of consecutive seeds")

    p_den = sub.add_parser("density", help="tabulate the exact joint density")
    common(p_den)
    p_den.add_argument("--order", type=int, help="feature order for the FGF curve")
    p_den.add_argument("--grid-n", type=int, default=201, help="cells per axis")
    p_den.add_argument("--span", type=float, default=6.0, help="grid half-width in stds")
    p_den.add_argument("--x-range", help="explicit x grid as lo,hi")
    p_den.add_argument("--y-range", help="explicit y grid as lo,hi")

    p_kl = sub.add_parser("kl", help="score feature orders by grid KL")
    common(p_kl)
    p_kl.add_argument("--orders", help="comma-separated feature orders")
    p_kl.add_argument("--grid-n", type=int, default=2001, help="cells per axis")
    p_kl.add_argument("--span", type=float, default=6.0, help="grid half-width in stds")

    return parser


def _parse_range(raw: str, label: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"{label} must be 'lo,hi', got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as err:
        raise ValueError(f"{label} must be numeric 'lo,hi', got {raw!r}") from err
    return lo, hi


def _resolve(args):
    # The config, model and prior of a run. A subcommand reads the keys of
    # its own flags and every model.* key, and simulate also the engine.*
    # keys and feature.standardize; any other key that is set exits 1
    # rather than being silently ignored. Each flag left unset is then
    # filled from its key, else from its default.
    cfg = load_config(args.config) if args.config else {}
    flags = [dest for dest in _SETTINGS if dest in vars(args)]
    reads = {_SETTINGS[dest][0] for dest in flags}
    if args.command == "simulate":
        reads |= {key for key in cfg if key.startswith("engine.")} | {"feature.standardize"}
    for key in cfg:
        if key not in reads and not key.startswith("model."):
            raise ValueError(
                f"config key {key!r} does not apply to subcommand {args.command!r}"
            )
    for dest in flags:
        key, parse, default = _SETTINGS[dest]
        value = getattr(args, dest)
        setattr(args, dest, _get(cfg, key, parse, default) if value is None else parse(value))
    return (cfg, *model_from_config(cfg, args.model))


def _cmd_simulate(args) -> int:
    cfg, model, _ = _resolve(args)
    orders = (EXPERIMENTS[model.name].order,) if args.orders is None else args.orders
    # Options left unset keep the experiment's defaults.
    options = _model_kwargs(cfg, model.name)
    if "feature.standardize" in cfg:
        options["standardize"] = _get(cfg, "feature.standardize", parse_bool, None)
    reports = run_experiment_batch(
        model.name,
        n_seeds=args.seeds,
        base_seed=args.seed,
        steps=args.steps,
        engine=engine_from_config(cfg),
        orders=orders,
        **options,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    for order in orders:
        path = args.out / f"report_{model.name}_{order}.csv"
        write_report_csv(reports, order, path)
        print(f"wrote {path}")
    summary_path = args.out / "summary.csv"
    write_summary_csv(reports, summary_path)
    print(f"wrote {summary_path}")
    for order in orders:
        gf = [r.rmse[1] for r in reports]
        fgf = [r.rmse[order] for r in reports]
        wins = sum(1 for g, f in zip(gf, fgf) if f < g)
        print(
            f"order {order}: mean rmse_gf={sum(gf) / len(gf):.4f} "
            f"rmse_fgf={sum(fgf) / len(fgf):.4f} "
            f"(fgf better in {wins}/{len(reports)} seeds)"
        )
    return 0


def _grids_for(args, model, prior):
    x_range = getattr(args, "x_range", None)
    y_range = getattr(args, "y_range", None)
    if y_range:
        # The Monte Carlo draws of default_grids size only the y grid.
        y_grid = Grid1D(*_parse_range(y_range, "--y-range"), args.grid_n)
        x_grid = None if x_range else _state_grid(prior, args.grid_n, args.span)
    else:
        x_grid, y_grid = default_grids(
            model, prior, n=args.grid_n, span=args.span, seed=args.seed
        )
    if x_range:
        x_grid = Grid1D(*_parse_range(x_range, "--x-range"), args.grid_n)
    return x_grid, y_grid


def _cmd_density(args) -> int:
    _, model, prior = _resolve(args)
    order = EXPERIMENTS[model.name].order if args.order is None else args.order
    # Built before the grid work, so a bad order fails at once.
    feature = make_monomial_feature(model.meas_dim, order)
    x_grid, y_grid = _grids_for(args, model, prior)
    joint = joint_density_grid(model, prior, x_grid, y_grid)
    affine = make_affine_feature(model.meas_dim)
    params_gf = fgf_solve(grid_joint_moments(joint, affine))
    params_fgf = fgf_solve(grid_joint_moments(joint, feature))
    ys = y_grid.values[:, None]
    gf_means = _evaluate_feature(affine, ys) @ params_gf.gamma[0]
    fgf_means = _evaluate_feature(feature, ys) @ params_fgf.gamma[0]
    path = args.out / f"density_{model.name}.csv"
    args.out.mkdir(parents=True, exist_ok=True)
    _write_density_csv(path, joint, gf_means, fgf_means)
    print(f"wrote {path}")
    print(
        f"posterior stds: gf={float(params_gf.sigma[0, 0]) ** 0.5:.6f} "
        f"fgf(order {order})={float(params_fgf.sigma[0, 0]) ** 0.5:.6f}"
    )
    return 0


def _write_density_csv(path, joint, gf_means, fgf_means) -> None:
    """One row per cell, y-major: y, x, p, q_gf, q_fgf.

    The bytes are those of ``csv.writer`` with ``lineterminator="\\n"``:
    the repr of a float holds no delimiter, quote or newline, so no
    field is ever quoted and the rows can be joined directly.
    """
    x_cells = [repr(x) + "," for x in joint.x_grid.values.tolist()]
    columns = zip(
        joint.y_grid.values.tolist(),
        gf_means.tolist(),
        fgf_means.tolist(),
        joint.mass.T.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,x,p,q_gf,q_fgf\n")
        for y, gf, fgf, column in columns:
            head = f"{y!r},"
            tail = f",{gf!r},{fgf!r}\n"
            rows = [head + x + repr(p) + tail for x, p in zip(x_cells, column)]
            fh.write("".join(rows))


def _cmd_kl(args) -> int:
    _, model, prior = _resolve(args)
    orders = (1, 2, 3) if args.orders is None else args.orders
    x_grid, y_grid = _grids_for(args, model, prior)
    joint = joint_density_grid(model, prior, x_grid, y_grid)
    rows = []
    for order in orders:
        feature = make_monomial_feature(model.meas_dim, order)
        params = fgf_solve(grid_joint_moments(joint, feature))
        value = kl_conditional(joint, params, feature)
        rows.append((order, value))
        print(f"order {order}: kl={value:.6f}")
    path = args.out / f"kl_{model.name}.csv"
    args.out.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "order", "kl"])
        for order, value in rows:
            writer.writerow([model.name, order, repr(value)])
    print(f"wrote {path}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "density":
            return _cmd_density(args)
        return _cmd_kl(args)
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
