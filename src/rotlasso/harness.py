"""Seeded experiment harness with deterministic tabular outputs.

Each experiment composes the generators, certificates, sparsifier, and solver
into per-trial measurements.  Trials are pure functions of
(spec, grid point, trial index), drawing randomness from substreams keyed by
those coordinates, so results are independent of worker count and re-runs are
bit-identical.  Wall-clock timings go to a separate sidecar file and never
into the CSV or summary, which must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    ConeSpec,
    max_rno_over_disjoint_pairs,
    partial_rotation_failure_rate,
    re_constant,
    re_objective_value,
    rip_constant,
    rip_to_rno_bound,
    rno_constant,
    rno_to_re_lower_bound,
)
from .core import (
    DesignMatrix,
    SeedSpec,
    SparseVector,
    SupportSet,
    normalize_columns,
    restrict_columns,
    seeded_stream,
    stream_id_for_label,
)
from .designs import (
    ROTATIONS,
    BlockSpec,
    correlated_block_design,
    counterexample_design,
    partially_rotate,
    rank_one_design,
    semirandom_gaussian_design,
)
from .lasso import lasso_constrained, prediction_error, synth_response
from .sparsify import maurey_sparsify

EXPERIMENT_NAMES = (
    "thm-main", "lasso-rate", "rno-whp", "rip-rno",
    "counterexample", "sparsify-bound", "rot-check",
)

# experiments whose rows are deterministic theorem checks: every row must pass
HARD_EXPERIMENTS = frozenset({"rip-rno", "sparsify-bound", "counterexample"})

# how each per-row pass flag is decided; echoed into the summary so a reader
# can recompute every flag from the row's own columns
PASS_RULES = {
    "thm-main": "ratio >= 0.9 * 0.99 (theorem target with 1% solver slack); "
                "the suite-level 48-of-50 threshold is a pragmatic choice for "
                "a with-high-probability statement with unspecified constants",
    "lasso-rate": "pred_error <= 30 * theory_bound; acceptance judges medians per grid point",
    "rno-whp": "rno_eps <= 2 * epsilon (desk-scale target in the epsilon column)",
    "rip-rno": "rno_eps_max <= rno_bound + 1e-9 (deterministic implication, zero tolerance)",
    "counterexample": "|gamma_prime_xs - 1| <= 1e-6 and gamma_prime_x <= witness_ratio + 1e-6",
    "sparsify-bound": "error <= bound (the sampler retries until the bound holds)",
    "rot-check": "exceedances == 0 when epsilon >= 1, else exceedances <= max_exceed",
}

# per-experiment grid-coordinate and measurement columns; the serialized order
# is params, trial, metrics, pass.  Append-only: new columns go at the end of
# their section and never reorder existing ones.
PARAM_COLS = {
    "thm-main": ("n", "d", "k", "rho", "design"),
    "lasso-rate": ("n", "d", "k", "sigma"),
    "rno-whp": ("n", "d", "k", "s", "rotation", "base", "epsilon"),
    "rip-rno": ("n", "d", "s"),
    "counterexample": ("n", "d", "k"),
    "sparsify-bound": ("n", "d", "s"),
    "rot-check": ("n", "d", "k", "rotation", "epsilon", "max_exceed"),
}
METRIC_COLS = {
    "thm-main": ("gamma_xs", "gamma_x", "ratio"),
    "lasso-rate": ("gamma_hat", "theory_bound", "pred_error", "pred_error_gauss"),
    "rno-whp": ("rno_eps", "gamma_xs", "gamma_x", "ratio", "c_min",
                "holds_c2", "holds_c4", "holds_c8"),
    "rip-rno": ("rip_delta", "rno_bound", "rno_eps_max"),
    "counterexample": ("gamma_prime_xs", "witness_ratio", "gamma_prime_x", "gamma_x"),
    "sparsify-bound": ("l1_beta", "bound", "error", "attempts"),
    "rot-check": ("mc_trials", "exceedances", "rate"),
}
# grid keys a trial reads besides its parameter columns
GRID_KNOBS = {
    "thm-main": ("rho", "groups", "design"),
    "lasso-rate": ("rho", "groups", "design"),
    "rno-whp": ("rho", "groups", "design"),
    "rot-check": ("mc_trials",),
}
# grid keys a trial cannot run without
REQUIRED_KEYS = {
    "thm-main": ("n", "d", "k"),
    "lasso-rate": ("n", "d", "k"),
    "rno-whp": ("n", "d", "k", "s"),
    "rip-rno": ("n", "d", "s"),
    "counterexample": ("n", "d", "k"),
    "sparsify-bound": ("n", "d", "s"),
    "rot-check": ("n", "d", "k", "epsilon"),
}

# the values a string knob accepts; rno-whp also accepts rotation "none"
KNOB_VALUES = {
    "design": ("correlated", "semirandom"),
    "base": ("correlated", "cross-dup"),
    "rotation": tuple(ROTATIONS),
}


def columns_for(name: str) -> tuple[str, ...]:
    return ("grid_index",) + PARAM_COLS[name] + ("trial",) + METRIC_COLS[name] + ("pass",)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment, its parameter grid, trial count, and master seed."""

    name: str
    grid: tuple[dict, ...]
    trials: int
    master_seed: int
    out_dir: str | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}; choose from {EXPERIMENT_NAMES}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "grid", tuple(dict(g) for g in self.grid))
        if not self.grid:
            raise ValueError("grid must contain at least one point")
        allowed = sorted(set(PARAM_COLS[self.name]) | set(GRID_KNOBS.get(self.name, ())))
        for g in self.grid:
            unknown = sorted(set(g) - set(allowed))
            if unknown:
                raise ValueError(f"unknown grid key(s) {unknown} for {self.name}; "
                                 f"allowed keys: {allowed}")
            missing = [key for key in REQUIRED_KEYS[self.name] if key not in g]
            if missing:
                raise ValueError(f"grid point {g} lacks required key(s) {missing}")
            n, d, k = g["n"], g["d"], g.get("k", 1)
            if min(n, d, k) < 1 or k > d:
                raise ValueError(f"inconsistent grid point {g}")
            if not g.get("sigma", 0.0) >= 0:
                raise ValueError("sigma must be non-negative, not NaN")
            for key, values in KNOB_VALUES.items():
                if key == "rotation" and self.name == "rno-whp":
                    values += ("none",)
                if key in g and g[key] not in values:
                    raise ValueError(f"{key} must be one of {list(values)} in grid point {g}")
            # the ranges BlockSpec.split, rno_constant, the counterexample
            # design and the RIP/RNO enumeration accept
            if ("groups" in GRID_KNOBS.get(self.name, ())
                    and not 1 <= g.get("groups", 1) <= d - k):
                raise ValueError(f"groups must lie in [1, d - k] in grid point {g}")
            if self.name == "rno-whp" and not 1 <= g["s"] <= min(k, d - k):
                raise ValueError(f"s must lie in [1, min(k, d - k)] in grid point {g}")
            if self.name == "rip-rno" and not 1 <= g["s"] <= d // 2:
                raise ValueError(f"s must lie in [1, d / 2] in grid point {g}")
            if self.name == "counterexample" and min(n, d) < k + 2:
                raise ValueError(f"n and d must be at least k + 2 in grid point {g}")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "grid": list(self.grid), "trials": self.trials,
                "master_seed": self.master_seed, "out_dir": self.out_dir}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(name=d["name"], grid=tuple(d["grid"]), trials=int(d["trials"]),
                   master_seed=int(d["master_seed"]), out_dir=d.get("out_dir"))


@dataclass
class ExperimentRow:
    grid_index: int
    trial: int
    values: dict
    passed: bool | None
    wall_time: float = 0.0


def _trial_seed(spec: ExperimentSpec, gi: int, trial: int) -> SeedSpec:
    root = SeedSpec(spec.master_seed, stream_id_for_label(f"rotlasso.exp.{spec.name}"))
    return root.substream(gi, trial)


def _adversarial_design(n, d, S, g, seed):
    """Model-style design: planted Gaussian support, correlated off-support block."""
    blocks = BlockSpec.split(S, int(g.get("groups", 1)), float(g.get("rho", 0.0)))
    if g.get("design", "correlated") == "semirandom":
        base = rank_one_design(n, d, seed.substream(7))
        return semirandom_gaussian_design(base, S, seed.substream(8))
    return correlated_block_design(n, d, S, blocks, seed)


def _trial_thm_main(spec, gi, trial):
    g = spec.grid[gi]
    n, d, k = g["n"], g["d"], g["k"]
    seed = _trial_seed(spec, gi, trial)
    S = SupportSet(d, tuple(range(k)))
    X = _adversarial_design(n, d, S, g, seed.substream(0))
    cert_x = re_constant(X, ConeSpec(S), S, mode="gamma", seed=seed.substream(1))
    XS = restrict_columns(X, S)
    Sf = SupportSet(k, tuple(range(k)))
    cert_xs = re_constant(XS, ConeSpec(Sf), Sf, mode="gamma", seed=seed.substream(2))
    ratio = cert_x.value / cert_xs.value
    if cert_x.solver_report.converged and cert_xs.solver_report.converged:
        passed = ratio >= 0.9 * 0.99
    else:
        passed = None
    return {"n": n, "d": d, "k": k, "rho": float(g.get("rho", 0.0)),
            "design": g.get("design", "correlated"),
            "gamma_xs": cert_xs.value, "gamma_x": cert_x.value, "ratio": ratio}, passed


def _trial_lasso_rate(spec, gi, trial):
    g = spec.grid[gi]
    n, d, k, sigma = g["n"], g["d"], g["k"], float(g.get("sigma", 1.0))
    seed = _trial_seed(spec, gi, trial)
    S = SupportSet(d, tuple(range(k)))
    X = _adversarial_design(n, d, S, g, seed.substream(0))
    rng = seeded_stream(seed.substream(1))
    signs = 2.0 * rng.integers(0, 2, size=k) - 1.0
    beta = SparseVector(d, tuple((i, float(signs[i])) for i in range(k)))
    radius = beta.norm_l1()
    noise_seed = seed.substream(2)
    inst = synth_response(X, beta, sigma, noise_seed)
    sol = lasso_constrained(inst, radius)
    pe = prediction_error(X, sol.beta_hat, beta)
    XS = restrict_columns(X, S)
    Sf = SupportSet(k, tuple(range(k)))
    gamma_hat = re_constant(XS, ConeSpec(Sf), Sf, mode="gamma", seed=seed.substream(3)).value
    bound = sigma**2 * k * math.log(d) / (gamma_hat * n)
    # paired baseline: same secret and the same noise stream, fully Gaussian design
    Xg = semirandom_gaussian_design(X, SupportSet(d, tuple(range(d))), seed.substream(4))
    inst_g = synth_response(Xg, beta, sigma, noise_seed)
    sol_g = lasso_constrained(inst_g, radius)
    pe_g = prediction_error(Xg, sol_g.beta_hat, beta)
    passed = (pe <= 30.0 * bound) if (sol.converged and sol_g.converged) else None
    return {"n": n, "d": d, "k": k, "sigma": sigma, "gamma_hat": gamma_hat,
            "theory_bound": bound, "pred_error": pe, "pred_error_gauss": pe_g}, passed


def _trial_rno_whp(spec, gi, trial):
    g = spec.grid[gi]
    n, d, k, s = g["n"], g["d"], g["k"], g["s"]
    rotation = g.get("rotation", "haar")
    base_kind = g.get("base", "correlated")
    eps_target = float(g.get("epsilon", 0.25))
    seed = _trial_seed(spec, gi, trial)
    S = SupportSet(d, tuple(range(k)))
    if base_kind == "cross-dup":
        rng = seeded_stream(seed.substream(0))
        E = rng.standard_normal((n, d))
        E[:, k] = E[:, 0]
        X = normalize_columns(DesignMatrix(E))
    else:
        X = _adversarial_design(n, d, S, g, seed.substream(0))
    if rotation != "none":
        X = partially_rotate(X, S, ROTATIONS[rotation](), seed.substream(1))
    eps = rno_constant(X, S, s).value
    cert_x = re_constant(X, ConeSpec(S), S, mode="gamma", seed=seed.substream(2))
    XS = restrict_columns(X, S)
    Sf = SupportSet(k, tuple(range(k)))
    cert_xs = re_constant(XS, ConeSpec(Sf), Sf, mode="gamma", seed=seed.substream(3))
    ratio = cert_x.value / cert_xs.value
    # smallest constant C for which the orthogonality-to-eigenvalue bound
    # explains the measured ratio (the bound's closed-form inverse in C),
    # plus pass flags from the bound itself at the reported C values
    c_min = (1.0 - eps - ratio) * math.sqrt(cert_xs.value * s / k)
    holds = {f"holds_c{c}":
             cert_x.value >= rno_to_re_lower_bound(eps, s, k, cert_xs.value, C=c)
             for c in (2, 4, 8)}
    passed = eps <= 2.0 * eps_target
    return {"n": n, "d": d, "k": k, "s": s, "rotation": rotation, "base": base_kind,
            "epsilon": eps_target, "rno_eps": eps, "gamma_xs": cert_xs.value,
            "gamma_x": cert_x.value, "ratio": ratio, "c_min": c_min, **holds}, passed


def _trial_rip_rno(spec, gi, trial):
    g = spec.grid[gi]
    n, d, s = g["n"], g["d"], g["s"]
    seed = _trial_seed(spec, gi, trial)
    rng = seeded_stream(seed.substream(0))
    X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
    Xu = DesignMatrix(X.entries / math.sqrt(n))
    delta = rip_constant(Xu, 2 * s).value
    bound = rip_to_rno_bound(delta) if delta < 1.0 else math.inf
    eps_max, _, _ = max_rno_over_disjoint_pairs(X, s)
    passed = eps_max <= bound + 1e-9
    return {"n": n, "d": d, "s": s, "rip_delta": delta, "rno_bound": bound,
            "rno_eps_max": eps_max}, passed


def counterexample_witness(d: int, k: int) -> SparseVector:
    """The cancellation witness: ones on the support, +-k/2 on the duplicated pair."""
    terms = [(i, 1.0) for i in range(k)] + [(k, k / 2.0), (k + 1, -k / 2.0)]
    return SparseVector(d, tuple(terms))


def _trial_counterexample(spec, gi, trial):
    g = spec.grid[gi]
    n, d, k = g["n"], g["d"], g["k"]
    seed = _trial_seed(spec, gi, trial)
    X, S = counterexample_design(n, d, k, seed.substream(0))
    XS = restrict_columns(X, S)
    Sf = SupportSet(k, tuple(range(k)))
    gp_xs = re_constant(XS, ConeSpec(Sf), Sf, mode="gamma_prime", seed=seed.substream(1))
    witness_ratio = re_objective_value(X, counterexample_witness(d, k), S, "gamma_prime")
    gp_x = re_constant(X, ConeSpec(S), S, mode="gamma_prime", seed=seed.substream(2))
    g_x = re_constant(X, ConeSpec(S), S, mode="gamma", seed=seed.substream(3))
    passed = abs(gp_xs.value - 1.0) <= 1e-6 and gp_x.value <= witness_ratio + 1e-6
    return {"n": n, "d": d, "k": k, "gamma_prime_xs": gp_xs.value,
            "witness_ratio": witness_ratio, "gamma_prime_x": gp_x.value,
            "gamma_x": g_x.value}, passed


def _trial_sparsify_bound(spec, gi, trial):
    g = spec.grid[gi]
    n, d, s = g["n"], g["d"], g["s"]
    seed = _trial_seed(spec, gi, trial)
    rng = seeded_stream(seed.substream(0))
    X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
    beta = rng.standard_normal(d)
    res = maurey_sparsify(X, beta, s, seed.substream(1))
    return {"n": n, "d": d, "s": s, "l1_beta": float(np.abs(beta).sum()),
            "bound": res.bound, "error": res.error,
            "attempts": res.attempts}, res.error <= res.bound


def _trial_rot_check(spec, gi, trial):
    g = spec.grid[gi]
    n, d, k = g["n"], g["d"], g["k"]
    rotation = g.get("rotation", "haar")
    epsilon = float(g["epsilon"])
    max_exceed = g.get("max_exceed")
    mc_trials = int(g.get("mc_trials", spec.trials))
    seed = _trial_seed(spec, gi, trial)
    rng = seeded_stream(seed.substream(0))
    X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
    S = SupportSet(d, tuple(range(k)))
    kind = ROTATIONS[rotation]()

    def regen(sd):
        return partially_rotate(X, S, kind, sd)

    exceed = partial_rotation_failure_rate(regen, S, np.ones(k), np.ones(d - k),
                                           epsilon, mc_trials, seed.substream(1))
    if epsilon >= 1.0:
        passed = exceed == 0
    elif max_exceed is not None:
        passed = exceed <= int(max_exceed)
    else:
        passed = None
    return {"n": n, "d": d, "k": k, "rotation": rotation, "epsilon": epsilon,
            "max_exceed": max_exceed, "mc_trials": mc_trials,
            "exceedances": exceed, "rate": exceed / mc_trials}, passed


_TRIAL_FUNCS = {
    "thm-main": _trial_thm_main,
    "lasso-rate": _trial_lasso_rate,
    "rno-whp": _trial_rno_whp,
    "rip-rno": _trial_rip_rno,
    "counterexample": _trial_counterexample,
    "sparsify-bound": _trial_sparsify_bound,
    "rot-check": _trial_rot_check,
}


def _tasks(spec: ExperimentSpec):
    # rot-check aggregates its Monte Carlo trials inside one row per grid point
    per_point = 1 if spec.name == "rot-check" else spec.trials
    return [(spec, gi, t) for gi in range(len(spec.grid)) for t in range(per_point)]


def _run_task(args):
    spec, gi, trial = args
    t0 = time.perf_counter()
    values, passed = _TRIAL_FUNCS[spec.name](spec, gi, trial)
    values["trial"] = trial
    return ExperimentRow(gi, trial, values, passed,
                         wall_time=time.perf_counter() - t0)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of ``workers`` processes that each start with one BLAS thread,
    unless the caller set a thread count.

    BLAS reads its thread count once, when numpy loads it, and a forked
    worker inherits the parent's loaded BLAS with all its threads.  So the
    workers are spawned, from an environment with the unset counts at 1, and
    the parent's environment is as it was once the pool has shut down.  A
    script that runs experiments with several workers therefore needs the
    ``if __name__ == "__main__":`` guard that spawned processes require.
    The pool modules are imported here, so that a serial run never loads them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    unset = [v for v in _BLAS_THREAD_VARS if v not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for v in unset:
            os.environ.pop(v, None)


def run_experiments(specs, workers: int = 1):
    """Yield ``(spec, rows)`` for each spec in turn, rows in task order.

    With ``workers`` > 1 the tasks of every spec share one pool of spawned
    processes with one BLAS thread each (``_worker_pool``)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    with _worker_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        for spec in specs:
            yield spec, list(run(_run_task, _tasks(spec)))


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[ExperimentRow]:
    """Run one experiment's (grid point, trial) tasks; see ``run_experiments``."""
    [(_, rows)] = run_experiments([spec], workers)
    return rows


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@functools.cache
def version_string() -> str:
    """The package version with the source tree's ``git describe``, read once
    per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent, check=True,
        )
        return f"rotlasso-{__version__}+g{out.stdout.strip()}"
    except Exception:
        return f"rotlasso-{__version__}"


def emit_results(spec: ExperimentSpec, rows: list[ExperimentRow], out_dir) -> dict:
    """Write ``<name>.csv``, ``<name>.summary.json``, and a timing sidecar.

    The CSV and summary are pure functions of (spec, measured values); the
    timing sidecar holds the wall-clock numbers and is the only output allowed
    to differ between re-runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cols = columns_for(spec.name)
    csv_path = out / f"{spec.name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            record = {**r.values, "grid_index": r.grid_index, "pass": r.passed}
            writer.writerow([_format_cell(record.get(c)) for c in cols])

    grid_points = []
    for gi, g in enumerate(spec.grid):
        sub = [r for r in rows if r.grid_index == gi]
        medians = {}
        for c in METRIC_COLS[spec.name]:
            vals = [float(r.values[c]) for r in sub
                    if isinstance(r.values.get(c), (int, float, np.integer, np.floating))
                    and math.isfinite(float(r.values[c]))]
            medians[c] = float(np.median(vals)) if vals else None
        decided = [r.passed for r in sub if r.passed is not None]
        grid_points.append({
            "params": dict(g),
            "rows": len(sub),
            "indeterminate": sum(1 for r in sub if r.passed is None),
            "pass_rate": (sum(decided) / len(decided)) if decided else None,
            "medians": medians,
        })
    decided = [r.passed for r in rows if r.passed is not None]
    summary = {
        "experiment": spec.name,
        "version": version_string(),
        "master_seed": spec.master_seed,
        "spec": spec.to_json_dict(),
        "pass_rule": PASS_RULES[spec.name],
        "grid_points": grid_points,
        "hard": spec.name in HARD_EXPERIMENTS,
        "all_rows_pass": bool(decided) and all(decided) and not any(
            r.passed is None for r in rows),
    }
    summary_path = out / f"{spec.name}.summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    timing_path = out / f"{spec.name}.timing.json"
    with open(timing_path, "w") as fh:
        json.dump({"rows": len(rows),
                   "total_seconds": sum(r.wall_time for r in rows)}, fh, indent=2)
        fh.write("\n")
    return {"csv": str(csv_path), "summary": str(summary_path), "timing": str(timing_path)}


def hard_experiments_pass(spec: ExperimentSpec, rows: list[ExperimentRow]) -> bool:
    """Exit-code contract: hard-inequality experiments require every row to pass."""
    if spec.name not in HARD_EXPERIMENTS:
        return True
    return all(r.passed is True for r in rows)


DEFAULT_CONFIGS = {
    "thm-main": {"grid": [{"n": 200, "d": 64, "k": 3}], "trials": 50},
    "lasso-rate": {"grid": [{"n": n, "d": 128, "k": k, "sigma": 1.0, "groups": 32}
                            for k in (2, 4, 8) for n in (100, 200, 400)], "trials": 20},
    "rno-whp": {"grid": [{"n": 200, "d": 20, "k": 5, "s": 2,
                          "rotation": "haar", "epsilon": 0.25}], "trials": 100},
    "rip-rno": {"grid": [{"n": 60, "d": 12, "s": 2}], "trials": 100},
    "counterexample": {"grid": [{"k": 4, "n": 100, "d": 12},
                                {"k": 10, "n": 100, "d": 18},
                                {"k": 20, "n": 100, "d": 28}], "trials": 1},
    "sparsify-bound": {"grid": [{"n": 30, "d": 50, "s": 25}], "trials": 1000},
    "rot-check": {"grid": [
        {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.5, "max_exceed": 2},
        {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2},
        # the n=400 point only feeds the rate comparison against n=100, so a
        # smaller Monte Carlo budget keeps the expensive 400x400 rotations in check
        {"n": 400, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2, "mc_trials": 2500},
    ], "trials": 10_000},
}


def default_spec(name: str, master_seed: int = 20250811, out_dir=None) -> ExperimentSpec:
    cfg = DEFAULT_CONFIGS[name]
    return ExperimentSpec(name=name, grid=tuple(cfg["grid"]), trials=cfg["trials"],
                          master_seed=master_seed, out_dir=out_dir)
