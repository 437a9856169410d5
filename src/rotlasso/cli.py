"""Command-line interface: design generation, certificates, sparsification,
the constrained Lasso solver, and the experiment harness."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certificates import (
    ConeSpec,
    lambda_min_restricted,
    partial_rotation_failure_rate,
    re_constant,
    rip_constant,
    rno_constant,
)
from .core import (
    DesignMatrix,
    SeedSpec,
    SparseVector,
    SupportSet,
    normalize_columns,
    read_design,
    read_support,
    seeded_stream,
    sparse_vector_from_json_dict,
    sparse_vector_to_json_dict,
    write_design,
)
from .designs import (
    ROTATIONS,
    BlockSpec,
    correlated_block_design,
    counterexample_design,
    partially_rotate,
    rank_one_design,
    rotated_adversary_design,
    semirandom_gaussian_design,
)
from .harness import (
    DEFAULT_CONFIGS,
    EXPERIMENT_NAMES,
    ExperimentSpec,
    emit_results,
    hard_experiments_pass,
    run_experiment,
)
from .lasso import (
    RegressionInstance,
    lasso_constrained,
    parameter_errors,
    prediction_error,
    synth_response,
)
from .sparsify import maurey_sparsify

def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed_spec(value: int) -> SeedSpec:
    return SeedSpec(int(value))


def _load_json_arg(value: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        text = Path(value).read_text()
    return json.loads(text)


def _exp_config(value: str) -> dict:
    """An experiment config (inline JSON or a file): a list of grid points, an
    integer trial count, and optionally an integer master seed."""
    try:
        config = _load_json_arg(value)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read config: {exc}") from None
    if not isinstance(config, dict):
        raise argparse.ArgumentTypeError("config must be a JSON object")
    missing = [key for key in ("grid", "trials") if key not in config]
    if missing:
        raise argparse.ArgumentTypeError(f"config lacks {' and '.join(map(repr, missing))}")
    unknown = sorted(set(config) - {"grid", "trials", "master_seed"})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"config has unknown key(s) {unknown}; allowed: 'grid', 'trials', 'master_seed'")
    if not (isinstance(config["grid"], list) and all(isinstance(g, dict) for g in config["grid"])):
        raise argparse.ArgumentTypeError("config 'grid' must be a list of JSON objects")
    for key in ("trials", "master_seed"):
        if key in config and type(config[key]) is not int:
            raise argparse.ArgumentTypeError(
                f"config {key!r} must be an integer, got {config[key]!r}")
    return config


def _load_support(value: str, dim: int) -> SupportSet:
    data = _load_json_arg(value)
    if isinstance(data, list):
        return SupportSet(dim, tuple(int(i) for i in data))
    return SupportSet(int(data.get("dim", dim)), tuple(int(i) for i in data["indices"]))


def _load_beta(value: str, dim: int) -> SparseVector:
    data = _load_json_arg(value)
    if isinstance(data, list):
        return SparseVector.from_dense(np.asarray(data, dtype=float), dim)
    return sparse_vector_from_json_dict(data)


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _gaussian_base(n, d, seed):
    rng = seeded_stream(seed)
    return normalize_columns(DesignMatrix(rng.standard_normal((n, d))))


def _cmd_gen(args) -> int:
    seed = _seed_spec(args.seed)
    kind = ROTATIONS[args.rotation]()
    n, d, k = args.n, args.d, args.k
    S = SupportSet(d, tuple(range(k))) if k else SupportSet(d)
    if args.base:
        base, _ = read_design(args.base)
    else:
        base = None
    if args.kind == "counterexample":
        X, S = counterexample_design(n, d, k, seed)
    elif args.kind == "partial-rot":
        X = base if base is not None else _gaussian_base(n, d, seed.substream(0))
        X = partially_rotate(X, S, kind, seed.substream(1))
    elif args.kind == "semirandom":
        if base is None:
            base = rank_one_design(n, d, seed.substream(0))
        X = semirandom_gaussian_design(base, S, seed.substream(1))
    elif args.kind == "adversary":
        X0 = base if base is not None else _gaussian_base(n, d, seed.substream(0))
        d_prime = args.d_prime if args.d_prime is not None else d
        A = X0.entries[:, :d_prime]
        X = rotated_adversary_design(X0, A, kind, seed.substream(1))
        S = SupportSet(X.n_cols, tuple(range(d)))
    else:  # correlated
        X = correlated_block_design(n, d, S, BlockSpec.split(S, args.groups, args.rho), seed)
    paths = write_design(X, args.out, seed=seed, support=S if S.size else None)
    _write_json({"written": paths, "n": X.n_rows, "d": X.n_cols}, None)
    return 0


def _cmd_cert(args) -> int:
    X, _ = read_design(args.matrix)
    seed = _seed_spec(args.seed)
    method = {"multistart": "multistart", "oracle": "grid_oracle"}[args.method]
    if args.what in ("re", "re-prime"):
        S = _load_support(args.support, X.n_cols)
        mode = "gamma" if args.what == "re" else "gamma_prime"
        cert = re_constant(X, ConeSpec(S, args.cone_slack), S, mode=mode,
                           method=method, seed=seed)
        payload = cert.to_json_dict()
    elif args.what == "lambda-min":
        S = _load_support(args.support, X.n_cols)
        payload = lambda_min_restricted(X, S).to_json_dict()
    elif args.what == "rno":
        S = _load_support(args.support, X.n_cols)
        cert = rno_constant(X, S, args.s, cap=args.cap,
                            sample_pairs=args.sample_pairs, seed=seed)
        payload = cert.to_json_dict()
    elif args.what == "rip":
        # the isometry definition carries no 1/n factor, so rescale to unit columns
        Xu = DesignMatrix(X.entries / math.sqrt(X.n_rows))
        cert = rip_constant(Xu, args.s, cap=args.cap,
                            sample_supports=args.sample_pairs, seed=seed)
        payload = cert.to_json_dict()
        payload["rescaled_by"] = f"1/sqrt({X.n_rows})"
    else:  # rot-check
        S = _load_support(args.support, X.n_cols)
        kind = ROTATIONS[args.rotation]()

        def regen(sd):
            return partially_rotate(X, S, kind, sd)

        count = partial_rotation_failure_rate(
            regen, S, np.ones(S.size), np.ones(X.n_cols - S.size),
            args.epsilon, args.trials, seed)
        payload = {"kind": "rot_check", "epsilon": args.epsilon, "trials": args.trials,
                   "exceedances": count, "rate": count / args.trials}
    _write_json(payload, args.out)
    return 0


def _cmd_sparsify(args) -> int:
    X, _ = read_design(args.matrix)
    beta = _load_beta(args.beta, X.n_cols)
    res = maurey_sparsify(X, beta, args.s, _seed_spec(args.seed))
    _write_json({
        "beta_prime": sparse_vector_to_json_dict(res.beta_prime),
        "error": res.error,
        "bound": res.bound,
        "attempts": res.attempts,
    }, args.out)
    return 0


def _cmd_lasso(args) -> int:
    X, _ = read_design(args.matrix)
    seed = _seed_spec(args.seed)
    beta_true = _load_beta(args.beta, X.n_cols) if args.beta else None
    if args.y == "synthesize":
        if beta_true is None:
            raise SystemExit("--y synthesize requires --beta")
        inst = synth_response(X, beta_true, args.sigma, seed)
        radius = args.radius if args.radius is not None else beta_true.norm_l1()
    else:
        y = np.loadtxt(args.y, delimiter=",").ravel()
        inst = RegressionInstance(X=X, y=y, beta_true=beta_true, sigma=args.sigma)
        if args.radius is None:
            raise SystemExit("--radius is required for real responses")
        radius = args.radius
    sol = lasso_constrained(inst, radius)
    payload = {
        "beta_hat": [float(v) for v in sol.beta_hat],
        "objective": sol.objective,
        "radius": radius,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "fixed_point_residual": sol.fixed_point_residual,
    }
    if beta_true is not None:
        payload["prediction_error"] = prediction_error(X, sol.beta_hat, beta_true)
        l1, l2 = parameter_errors(sol.beta_hat, beta_true, beta_true.support())
        payload["parameter_errors"] = {"l1": l1, "l2_restricted": l2}
    _write_json(payload, args.out)
    return 0


def _exp_specs(args) -> list[ExperimentSpec]:
    """The experiments ``exp`` runs; a bad config raises ValueError or TypeError."""
    names = list(EXPERIMENT_NAMES) if args.name == "all" else [args.name]
    specs = []
    for name in names:
        cfg = args.config if args.config is not None else DEFAULT_CONFIGS[name]
        specs.append(ExperimentSpec(
            name=name,
            grid=tuple(cfg["grid"]),
            trials=int(cfg["trials"]),
            master_seed=args.seed if args.seed is not None
            else int(cfg.get("master_seed", 20250811)),
            out_dir=args.out_dir,
        ))
    return specs


def _cmd_exp(args) -> int:
    ok = True
    for spec in args.specs:
        rows = run_experiment(spec, workers=args.workers)
        paths = emit_results(spec, rows, args.out_dir)
        passed = hard_experiments_pass(spec, rows)
        ok = ok and passed
        decided = [r.passed for r in rows if r.passed is not None]
        rate = (sum(decided) / len(decided)) if decided else float("nan")
        print(f"{spec.name}: {len(rows)} rows, pass rate {rate:.3f}, wrote {paths['csv']}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotlasso",
        description="Designs, certificates, sparsification, Lasso, and experiments "
                    "for semirandom sparse regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a design (CSV + JSON sidecar + support)")
    g.add_argument("--kind", required=True,
                   choices=["partial-rot", "semirandom", "adversary",
                            "counterexample", "correlated"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, default=0, help="support size (first k columns)")
    g.add_argument("--rotation", choices=list(ROTATIONS), default="haar")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--base", help="optional existing design to start from")
    g.add_argument("--d-prime", type=int, default=None, help="adversary column count")
    g.add_argument("--rho", type=float, default=0.0, help="correlated-group perturbation")
    g.add_argument("--groups", type=int, default=1, help="number of correlated groups")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("cert", help="compute a certificate for a stored design")
    c.add_argument("--what", required=True,
                   choices=["re", "re-prime", "rno", "rip", "lambda-min", "rot-check"])
    c.add_argument("--matrix", required=True, help="design path (CSV+JSON pair)")
    c.add_argument("--support", help="support set as JSON (inline or file)")
    c.add_argument("--s", type=_positive_int, default=1, help="sparsity level for rno/rip")
    c.add_argument("--method", choices=["multistart", "oracle"], default="multistart")
    c.add_argument("--cap", type=_positive_int, default=1_000_000, help="enumeration cap")
    c.add_argument("--sample-pairs", type=_positive_int, default=None,
                   help="sampled lower bound when enumeration exceeds the cap")
    c.add_argument("--cone-slack", type=float, default=1.0, help="cone parameter L")
    c.add_argument("--rotation", choices=list(ROTATIONS), default="haar")
    c.add_argument("--epsilon", type=float, default=0.5, help="rot-check threshold")
    c.add_argument("--trials", type=_positive_int, default=1000, help="rot-check trials")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="output JSON path (stdout if omitted)")
    c.set_defaults(func=_cmd_cert)

    s = sub.add_parser("sparsify", help="Maurey-sample a sparse surrogate")
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--matrix", required=True)
    s.add_argument("--beta", required=True, help="vector as JSON (inline or file)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="output JSON path (stdout if omitted)")
    s.set_defaults(func=_cmd_sparsify)

    l = sub.add_parser("lasso", help="solve the l1-constrained least squares problem")
    l.add_argument("--matrix", required=True)
    l.add_argument("--y", required=True, help="response CSV path, or 'synthesize'")
    l.add_argument("--radius", type=float, default=None)
    l.add_argument("--sigma", type=float, default=0.0)
    l.add_argument("--beta", help="true coefficients as JSON (for synthesis/metrics)")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--out", help="output JSON path (stdout if omitted)")
    l.set_defaults(func=_cmd_lasso)

    e = sub.add_parser("exp", help="run a named experiment (or 'all')")
    e.add_argument("name", choices=list(EXPERIMENT_NAMES) + ["all"])
    e.add_argument("--config", type=_exp_config,
                   help="experiment config JSON (inline or file) with 'grid' and 'trials'; "
                        "one experiment only")
    e.add_argument("--out-dir", default="results")
    e.add_argument("--workers", type=_positive_int, default=1)
    e.add_argument("--seed", type=int, default=None, help="master seed override")
    e.set_defaults(func=_cmd_exp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "exp":
        if args.name == "all" and args.config is not None:
            parser.error("--config applies to one experiment, not to 'all'")
        try:
            args.specs = _exp_specs(args)
        except (TypeError, ValueError) as exc:
            parser.error(f"bad experiment config: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
