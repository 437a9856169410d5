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
    correlated_block_design,
    counterexample_design,
    partially_rotate,
    rank_one_design,
    rotated_adversary_design,
    semirandom_gaussian_design,
)
from .harness import (
    EXPERIMENTS,
    default_spec,
    emit_results,
    hard_experiments_pass,
    run_experiments,
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


def _nonnegative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
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
    """An experiment config (inline JSON or a file): a list of grid points, a
    trial count, and optionally a master seed; the experiment checks the values."""
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


# the gen flags that some kind never reads, with their defaults, and the
# ones that each kind reads
_GEN_OPTIONAL = {"k": 0, "rotation": "haar", "base": None, "d_prime": None, "rho": 0.0,
                 "groups": 1}
_GEN_READS = {
    "partial-rot": {"k", "rotation", "base"},
    "semirandom": {"k", "base"},
    "adversary": {"rotation", "base", "d_prime"},
    "counterexample": {"k"},
    "correlated": {"k", "rho", "groups"},
}


def _check_gen_counts(parser, args) -> None:
    """Reject gen flags that the chosen kind never reads, counts that exceed
    the columns they index, and values that the kind cannot build a design
    from."""
    for dest, default in _GEN_OPTIONAL.items():
        value = getattr(args, dest)
        if dest not in _GEN_READS[args.kind] and value != default:
            parser.error(f"argument --{dest.replace('_', '-')}: not read by --kind {args.kind}, "
                         f"got {value!r}")
    if args.k > args.d:
        parser.error(f"argument --k: must be at most --d = {args.d}, got {args.k}")
    if args.d_prime is not None and args.d_prime > args.d:
        parser.error(f"argument --d-prime: must be at most --d = {args.d}, got {args.d_prime}")
    if args.kind in ("correlated", "counterexample") and args.k < 1:
        parser.error(f"argument --k: must be at least 1 for --kind {args.kind}, got {args.k}")
    if args.kind == "correlated":
        if args.groups > args.d - args.k:
            parser.error(f"argument --groups: must be at most --d - --k = {args.d - args.k}, "
                         f"got {args.groups}")
        if not (math.isfinite(args.rho) and args.rho >= 0.0):
            parser.error(f"argument --rho: must be a finite number at least 0, got {args.rho}")
    if args.kind == "counterexample":
        for flag, value in (("--n", args.n), ("--d", args.d)):
            if value < args.k + 2:
                parser.error(f"argument {flag}: must be at least --k + 2 = {args.k + 2}, "
                             f"got {value}")


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
        X = correlated_block_design(n, d, S, args.groups, args.rho, seed)
    paths = write_design(X, args.out, seed=seed, support=S if S.size else None)
    _write_json({"written": paths, "n": X.n_rows, "d": X.n_cols}, None)
    return 0


def _cert_inputs(parser, args):
    """The design and support of ``cert``; flags that its certificate cannot
    run with are usage errors, raised before any output is written."""
    def reject(flag, problem):
        parser.error(f"argument {flag}: {problem}")

    if args.what in ("re", "re-prime") and not args.cone_slack >= 1.0:
        reject("--cone-slack", f"must be at least 1, got {args.cone_slack}")
    if args.method == "oracle" and args.what != "re":
        reject("--method", f"oracle applies to --what re only, not {args.what}")
    if args.what == "rot-check" and not args.epsilon >= 0.0:
        reject("--epsilon", f"must be a number at least 0, got {args.epsilon}")
    X, _ = read_design(args.matrix)
    if args.what == "rip":
        if args.s > X.n_cols:
            reject("--s", f"must be at most d = {X.n_cols}, got {args.s}")
        return X, None
    if args.support is None:
        reject("--support", f"required for --what {args.what}")
    try:
        S = _load_support(args.support, X.n_cols)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        reject("--support", f"cannot read a support of the {X.n_cols} columns: {exc}")
    if S.dim != X.n_cols or S.size == 0:
        reject("--support", f"must be a non-empty subset of the {X.n_cols} columns")
    if args.method == "oracle" and S.size > 3:
        reject("--method", f"oracle supports at most 3 support columns, got {S.size}")
    if args.what == "rno" and args.s > min(S.size, X.n_cols - S.size):
        reject("--s", f"must be at most min(|S|, d - |S|) = {min(S.size, X.n_cols - S.size)}, "
                      f"got {args.s}")
    return X, S


def _cmd_cert(args) -> int:
    X, S = args.X, args.S
    seed = _seed_spec(args.seed)
    method = {"multistart": "multistart", "oracle": "grid_oracle"}[args.method]
    if args.what in ("re", "re-prime"):
        mode = "gamma" if args.what == "re" else "gamma_prime"
        cert = re_constant(X, ConeSpec(S, args.cone_slack), S, mode=mode,
                           method=method, seed=seed)
        payload = cert.to_json_dict()
    elif args.what == "lambda-min":
        payload = lambda_min_restricted(X, S).to_json_dict()
    elif args.what == "rno":
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
        count = partial_rotation_failure_rate(X, S, ROTATIONS[args.rotation](), args.epsilon,
                                              args.trials, seed)
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


def _check_lasso_flags(parser, args) -> None:
    """Reject lasso flags that its response path cannot use, and a NaN or
    negative noise level or radius."""
    for flag, value in (("--sigma", args.sigma), ("--radius", args.radius)):
        if value is not None and not value >= 0.0:
            parser.error(f"argument {flag}: must be a number at least 0, got {value}")
    if args.y == "synthesize":
        if args.beta is None:
            parser.error("argument --beta: required for --y synthesize")
    else:
        if args.radius is None:
            parser.error("argument --radius: required for a response file")
        if args.sigma != 0.0:
            parser.error("argument --sigma: applies to --y synthesize only")


def _cmd_lasso(args) -> int:
    X, _ = read_design(args.matrix)
    seed = _seed_spec(args.seed)
    beta_true = _load_beta(args.beta, X.n_cols) if args.beta else None
    if args.y == "synthesize":
        inst = synth_response(X, beta_true, args.sigma, seed)
        radius = args.radius if args.radius is not None else beta_true.norm_l1()
    else:
        y = np.loadtxt(args.y, delimiter=",").ravel()
        inst = RegressionInstance(X=X, y=y)
        radius = args.radius
    sol = lasso_constrained(inst, radius)
    payload = {
        "beta_hat": [float(v) for v in sol.beta_hat],
        "objective": sol.objective,
        "radius": radius,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "fixed_point_residual": sol.fixed_point_residual,
        "duality_gap": sol.duality_gap,
        "stop": sol.stop,
    }
    if beta_true is not None:
        payload["prediction_error"] = prediction_error(X, sol.beta_hat, beta_true)
        l1, l2 = parameter_errors(sol.beta_hat, beta_true, beta_true.support())
        payload["parameter_errors"] = {"l1": l1, "l2_restricted": l2}
    _write_json(payload, args.out)
    return 0


def _cmd_exp(args) -> int:
    ok = True
    for spec, rows in run_experiments(args.specs, args.workers):
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
    g.add_argument("--n", type=_positive_int, required=True)
    g.add_argument("--d", type=_positive_int, required=True)
    g.add_argument("--k", type=_nonnegative_int, default=_GEN_OPTIONAL["k"],
                   help="support size (first k columns)")
    g.add_argument("--rotation", choices=list(ROTATIONS), default=_GEN_OPTIONAL["rotation"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--base", default=_GEN_OPTIONAL["base"],
                   help="optional existing design to start from")
    g.add_argument("--d-prime", type=_positive_int, default=_GEN_OPTIONAL["d_prime"],
                   help="adversary column count, at most d")
    g.add_argument("--rho", type=float, default=_GEN_OPTIONAL["rho"],
                   help="correlated-group perturbation")
    g.add_argument("--groups", type=_positive_int, default=_GEN_OPTIONAL["groups"],
                   help="number of correlated groups, at most d - k")
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
    s.add_argument("--s", type=_positive_int, required=True)
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
    e.add_argument("name", choices=list(EXPERIMENTS) + ["all"])
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
    if args.command == "gen":
        _check_gen_counts(parser, args)
    if args.command == "lasso":
        _check_lasso_flags(parser, args)
    if args.command == "cert":
        args.X, args.S = _cert_inputs(parser, args)
    if args.command == "exp":
        if args.name == "all" and args.config is not None:
            parser.error("--config applies to one experiment, not to 'all'")
        names = list(EXPERIMENTS) if args.name == "all" else [args.name]
        try:
            args.specs = [default_spec(name, args.config, args.seed, args.out_dir)
                          for name in names]
        except ValueError as exc:
            parser.error(f"bad experiment config: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
