"""Benchmark of `rotlasso exp` in reference-kernel units.

    python3 bench/run.py --workload re-cert --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, BLAS is pinned to one thread before numpy loads, and each timed pass
calls `rotlasso.cli.main(["exp", ...])` in this process.  A pass's CPU and
wall time are divided by those of a fixed numpy reference kernel, measured in
slices during the pass (`SpeedProbe`), so that drift in the host's speed
cancels.  After the timed passes, one
traced pass wraps the package's functions from outside (see tracing.py) and
its captured arguments and results, with the CSV rows of every pass, are
checked against computations made apart from the program (see checks.py).

The last stdout line is the result: `{"correct", "attempted", "failed",
"metrics"}` with the end-to-end metrics for `--trace 0` and the per-layer
metrics for `--trace 1`.  The line before it, and
`.bench_out/<workload>-seed<seed>-trace<t>.json`, hold the details: every
pass, the environment and each check.  See README.md.
"""

import time

# set-up is timed from here, before any other import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

# The experiments one pass runs, with the experiment's default grid points and
# fewer trials.  The master seed of pass i is seed * 1000 + i.
WORKLOADS = {
    # gamma over the 61-column off-support cone and gamma' through the joint
    # solver; no Lasso and three Haar rotations per pass
    "re-cert": (
        ("thm-main", {"grid": [{"n": 200, "d": 64, "k": 3}], "trials": 2}),
        ("counterexample", {"grid": [{"k": 4, "n": 100, "d": 12},
                                     {"k": 10, "n": 100, "d": 18},
                                     {"k": 20, "n": 100, "d": 28}], "trials": 1}),
    ),
    # full n x n Haar rotations inside the Monte Carlo tail check
    "rot-tail": (
        ("rot-check", {"grid": [
            {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.5,
             "max_exceed": 2, "mc_trials": 400},
            {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2,
             "mc_trials": 400},
            {"n": 400, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2,
             "mc_trials": 100},
        ], "trials": 1}),
    ),
    # the constrained Lasso and full-cone gamma calls on the 3 x 3 grid
    "lasso-rate": (
        ("lasso-rate", {"grid": [{"n": n, "d": 128, "k": k, "sigma": 1.0, "groups": 32}
                                 for k in (2, 4, 8) for n in (100, 200, 400)],
                        "trials": 2}),
    ),
    # exact RIP and RNO enumeration; the d=20 point holds the N x N x s x s tensor
    "enum-rno": (
        ("rip-rno", {"grid": [{"n": 60, "d": 18, "s": 3}, {"n": 60, "d": 20, "s": 3}],
                     "trials": 1}),
    ),
}

# a run makes at least this many timed passes, however long they take
MIN_PASSES = 2
MAX_PASSES = 999
SEED_LIMIT = 2**53
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seconds_since_process_start() -> float:
    """Time from the kernel's start of this process to now (10 ms resolution).

    It covers the interpreter's own start and any launcher that execs it
    (a pyenv shim takes 0.1-0.3 s), so it is recorded beside `setup_s`, not in it.
    """
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


def _setup():
    """Import rotlasso from this checkout's src/ and build the CLI parser."""
    src = ROOT / "src"
    if not (src / "rotlasso" / "cli.py").is_file():
        raise SystemExit(f"bench: no rotlasso sources under {src}")
    sys.path.insert(0, str(src))
    from rotlasso import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: imported rotlasso from {cli.__file__}, not {src}")
    cli.build_parser()
    return cli


def _steal_ticks():
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, ValueError, IndexError):
        return None


def _git_revision():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
    }


class ReferenceKernel:
    """Fixed numpy work, no rotlasso code: small matmuls, sorts, cumsums and QR.

    Its inputs never change, so its CPU time tracks only the host's speed.
    One run is `REPS` repetitions of the same slice.
    """

    REPS = 450

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0x5EED)
        self.gram = rng.standard_normal((64, 64)) / 8.0
        self.cols = rng.standard_normal((64, 96))
        self.square = rng.standard_normal((64, 64))

    def run(self, reps: int = REPS) -> float:
        np = self.np
        acc = 0.0
        for _ in range(reps):
            q, r = np.linalg.qr(self.square)
            acc += float(r[0, 0] + q[0, 0])
            for _ in range(4):
                prod = self.gram @ (self.gram @ self.cols)
                css = np.cumsum(np.sort(prod, axis=0), axis=0)
                acc += float(css[-1, 0])
        return acc


class SpeedProbe:
    """Runs slices of the reference kernel while a pass runs.

    A wall-clock interval timer (SIGALRM) fires every `INTERVAL` seconds; the
    handler, which Python runs between bytecodes of the pass, times one slice
    of `SLICE` repetitions.  The mean slice, scaled to a whole kernel run, is
    the reference time measured beside the pass, so the pass and its
    reference see the same stretch of host speed.  A CPU-time timer
    (ITIMER_PROF) would not do: while one is armed, Linux reads the process
    CPU clock at tick granularity, and the handler runs just after a tick.
    """

    INTERVAL = 0.05
    SLICE = 4

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._busy = False

    def sample(self, signum=None, frame=None):
        """Time one slice of the kernel; the SIGALRM handler."""
        if self._busy:  # a slice outlasted the interval; never nest one in another
            return
        self._busy = True
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            self.kernel.run(self.SLICE)
            self.cpu.append(time.process_time() - c0)
            self.wall.append(time.perf_counter() - w0)
        finally:
            self._busy = False

    def __enter__(self):
        self.cpu.clear()
        self.wall.clear()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference(self) -> tuple[float, float, float, float]:
        """(kernel CPU, kernel wall, probe CPU spent, probe wall spent)."""
        scale = self.kernel.REPS / self.SLICE
        return (scale * statistics.fmean(self.cpu), scale * statistics.fmean(self.wall),
                sum(self.cpu), sum(self.wall))


def _expected_rows(name, cfg) -> int:
    per_point = 1 if name == "rot-check" else cfg["trials"]
    return len(cfg["grid"]) * per_point


def run_pass(cli, experiments, master_seed, out_dir, probe=None):
    """One `rotlasso exp` call per experiment, timed together; outputs read after.

    With a `SpeedProbe`, the pass's times exclude the probe's slices and the
    result carries the reference kernel's times measured during the pass.
    """
    argvs = [["exp", name, "--config", json.dumps({**cfg, "master_seed": master_seed}),
              "--out-dir", str(out_dir)] for name, cfg in experiments]
    printed = io.StringIO()
    errors = []
    c0, w0 = time.process_time(), time.perf_counter()
    with probe or contextlib.nullcontext(), contextlib.redirect_stdout(printed):
        for argv in argvs:
            try:
                cli.main(argv)
            except Exception as exc:  # a raising experiment counts all its rows as failed
                errors.append(f"{argv[1]}: {type(exc).__name__}: {exc}")
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    timing = {"cpu": cpu, "wall": wall}
    if probe is not None:
        if not probe.cpu:  # a pass too short for the timer: sample right after it
            probe.sample()
        ref_cpu, ref_wall, spent_cpu, spent_wall = probe.reference()
        timing = {"cpu": cpu - spent_cpu, "wall": wall - spent_wall, "ref_cpu": ref_cpu,
                  "ref_wall": ref_wall, "probes": len(probe.cpu)}
    tables, failed = {}, 0
    for name, cfg in experiments:
        path = Path(out_dir) / f"{name}.csv"
        text = path.read_text() if path.is_file() else ""
        path.unlink(missing_ok=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        failed += sum(r["pass"] == "False" for r in rows)
        failed += max(_expected_rows(name, cfg) - len(rows), 0)
        tables[name] = {"text": text, "rows": rows}
    return {"master_seed": master_seed, **timing, "tables": tables,
            "failed": failed, "errors": errors, "printed": printed.getvalue()}


def check_rows(checks, experiments, p) -> list[str]:
    out = list(p["errors"])
    row_checks = {"thm-main": checks.check_thm_rows,
                  "counterexample": checks.check_counterexample_rows,
                  "rot-check": checks.check_exceedances,
                  "rip-rno": checks.check_rip_rno_rows}
    for name, cfg in experiments:
        table = p["tables"][name]
        rows = table["rows"]
        header = next(csv.reader(io.StringIO(table["text"])), [])
        out += checks.check_echo(rows, cfg["grid"], set(header))
        if name in row_checks:
            out += row_checks[name](rows)
    return [f"pass {p['master_seed']}: {m}" for m in out]


# layers whose captures each workload must have checked
REQUIRED_CAPTURES = {
    "re-cert": ("certificates.re_constant",),
    "rot-tail": ("designs.sample_rotation", "designs.partially_rotate"),
    "lasso-rate": ("lasso.lasso_constrained", "certificates.re_constant"),
    "enum-rno": ("harness.max_rno_over_disjoint_pairs", "certificates.rip_constant"),
}


def check_captures(checks, np, workload, captures, seed) -> dict:
    rng = np.random.default_rng(seed)

    def re_cert(a, cert):
        return checks.check_re_certificate(
            a["X"].entries, a["cone"].S.array(), a["cone"].L, a["S_prime"].array(),
            a["mode"], cert.value, cert.witness.to_dense())

    def rotation(a, Q):
        return checks.check_rotation(Q) if a["kind"].variant == "haar_orthogonal" else []

    def lasso(a, sol):
        inst = a["instance"]
        return checks.check_lasso(inst.X.entries, inst.y, a["radius"], sol.beta_hat,
                                  sol.objective_trace, sol.fixed_point_residual,
                                  sol.converged)

    per_layer = {
        "certificates.re_constant": re_cert,
        "designs.sample_rotation": rotation,
        "designs.partially_rotate": lambda a, Xp: checks.check_partial_rotation(
            a["X"].entries, Xp.entries, a["S"].array()),
        "lasso.lasso_constrained": lasso,
        "harness.max_rno_over_disjoint_pairs": lambda a, res: checks.check_rno_pair(
            a["X"].entries, a["s"], res[0], res[1], res[2], rng),
        "certificates.rip_constant": lambda a, cert: checks.check_rip_witness(
            a["X_unit"].entries, cert.value, cert.witness.indices),
    }
    report = {}
    for layer, check in per_layer.items():
        caps = captures.get(layer, [])
        failures = [m for a, res in caps for m in check(a, res)]
        if layer in REQUIRED_CAPTURES[workload] and not caps:
            failures.append("no captured call to check")
        if caps or failures:
            report[layer] = {"checked": len(caps), "failures": checks.first_failures(failures)}
    return report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="master seed of the inputs")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="time spent in timed passes (at least %d passes run)" % MIN_PASSES)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: print end-to-end metrics, 1: print per-layer metrics")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < SEED_LIMIT:
        ap.error("--seed must lie in [0, 2**53)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    launch_s = _seconds_since_process_start()
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    # `rotlasso exp` runs `git describe` for its version string; keep git from
    # searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    cli = _setup()
    setup_s = time.perf_counter() - _T0
    args = parse_args(argv)

    import numpy as np

    import checks
    import tracing

    experiments = WORKLOADS[args.workload]
    steal0 = _steal_ticks()
    env = _environment(np)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        kernel = ReferenceKernel(np)
        kernel.run()  # warm-up, untimed
        probe = SpeedProbe(kernel)
        passes = []
        t_start = time.perf_counter()
        while len(passes) < MAX_PASSES and (
                len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds):
            passes.append(run_pass(cli, experiments, args.seed * 1000 + len(passes),
                                   work_dir, probe))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, experiments, passes[0]["master_seed"], work_dir)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    cpu_ratios = [p["cpu"] / p["ref_cpu"] for p in passes]
    wall_ratios = [p["wall"] / p["ref_wall"] for p in passes]

    failures = []
    for p in passes + [traced]:
        failures += check_rows(checks, experiments, p)
    for name, _ in experiments:
        if traced["tables"][name]["text"] != passes[0]["tables"][name]["text"]:
            failures.append(f"{name}: the traced pass wrote a different CSV from pass 0 "
                            f"with the same seed")
    capture_report = check_captures(checks, np, args.workload, tracer.captures, args.seed)
    failures += [f"{layer}: {m}" for layer, r in capture_report.items() for m in r["failures"]]

    rows_per_pass = sum(_expected_rows(n, c) for n, c in experiments)
    attempted = rows_per_pass * (len(passes) + 1)
    failed = sum(p["failed"] for p in passes) + traced["failed"]
    steal1 = _steal_ticks()

    if args.trace:
        metrics = {name: {"value": v, "unit": tracing.metric_unit(name)}
                   for name, v in tracer.metrics().items()}
    else:
        metrics = {
            "cpu_ref": {"value": statistics.median(cpu_ratios), "unit": "ref"},
            "wall_ref": {"value": statistics.median(wall_ratios), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": {**env, "steal_ticks": (steal1 - steal0)
                        if steal0 is not None and steal1 is not None else None},
        "setup_s": setup_s, "launch_s": launch_s,
        "peak_rss_mb_timed": peak_rss_mb,
        "peak_rss_mb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{**{k: p[k] for k in ("master_seed", "cpu", "wall", "ref_cpu", "ref_wall",
                                         "probes", "failed")},
                    "cpu_ref": cr, "wall_ref": wr}
                   for p, cr, wr in zip(passes, cpu_ratios, wall_ratios)],
        # the traced pass reruns pass 0's inputs, so pass 0 is its untraced twin
        "traced_pass": {"wall": traced["wall"], "cpu": traced["cpu"],
                        "overhead_s": traced["wall"] - passes[0]["wall"],
                        "overhead_share": traced["wall"] / passes[0]["wall"] - 1.0},
        "cli_output": traced["printed"].splitlines(),
        "captures": capture_report,
        "failures": checks.first_failures(failures, 50),
        "per_layer": tracer.metrics(),
    }
    text = json.dumps(details, sort_keys=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
