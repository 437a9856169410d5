"""Output checks computed apart from the program.

Every check takes plain numbers and arrays (or CSV rows as dicts of strings)
and returns a list of failure messages; an empty list means the output passed.
None of them calls rotlasso code, so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import numpy as np

# false-alarm level of each binomial exceedance check
BINOMIAL_ALPHA = 1e-6


def _f(row, key) -> float:
    return float(row[key])


# ---------------------------------------------------------------------------
# rows written by `rotlasso exp`
# ---------------------------------------------------------------------------


def check_echo(rows, grid, columns) -> list[str]:
    """Every grid key that has a CSV column reads back as the value that was set."""
    out = []
    for row in rows:
        point = grid[int(row["grid_index"])]
        for key, want in point.items():
            if key not in columns:
                continue
            got = row[key]
            if isinstance(want, str):
                same = got == want
            elif want is None:
                same = got == ""
            else:
                same = got != "" and float(got) == float(want)
            if not same:
                out.append(f"row {row['grid_index']}/{row['trial']}: {key}={got!r}, set {want!r}")
    return out


def check_thm_rows(rows) -> list[str]:
    """Adding columns can only lower gamma: gamma_x <= gamma_xs (1 + 1e-6)."""
    return [f"thm-main trial {r['trial']}: gamma_x {r['gamma_x']} > gamma_xs {r['gamma_xs']}"
            for r in rows if not _f(r, "gamma_x") <= _f(r, "gamma_xs") * (1.0 + 1e-6)]


def check_counterexample_rows(rows) -> list[str]:
    """The support block is sqrt(n) I, and the duplicated pair caps gamma' at 2/(k+2)."""
    out = []
    for r in rows:
        k = int(r["k"])
        target = 2.0 / (k + 2)
        if not abs(_f(r, "gamma_prime_xs") - 1.0) <= 1e-6:
            out.append(f"counterexample k={k}: gamma_prime_xs {r['gamma_prime_xs']} != 1")
        if not abs(_f(r, "witness_ratio") - target) <= 1e-12:
            out.append(f"counterexample k={k}: witness_ratio {r['witness_ratio']} != 2/(k+2)")
        if not _f(r, "gamma_prime_x") <= target + 1e-6:
            out.append(f"counterexample k={k}: gamma_prime_x {r['gamma_prime_x']} > 2/(k+2)")
    return out


def cos_exceed_probability(n: int, eps: float) -> float:
    """P(|cos| > eps) between a fixed vector and a Haar-rotated one in R^n.

    The squared cosine follows Beta(1/2, (n-1)/2).
    """
    from scipy.special import betainc

    return float(1.0 - betainc(0.5, (n - 1) / 2.0, eps * eps))


def binomial_tails(count: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= count), P(X >= count)) for X ~ Binomial(trials, p)."""
    from scipy.special import betainc

    if p <= 0.0:
        return 1.0, 1.0 if count == 0 else 0.0
    lower = 1.0 if count >= trials else float(betainc(trials - count, count + 1, 1.0 - p))
    upper = 1.0 if count <= 0 else float(betainc(count, trials - count + 1, p))
    return lower, upper


def check_exceedances(rows, alpha: float = BINOMIAL_ALPHA) -> list[str]:
    """Each exceedance count is a plausible draw from the exact Beta law."""
    out = []
    for r in rows:
        n, eps = int(r["n"]), _f(r, "epsilon")
        m, c = int(r["mc_trials"]), int(r["exceedances"])
        if not 0 <= c <= m or not abs(_f(r, "rate") - c / m) <= 1e-12:
            out.append(f"rot-check n={n} eps={eps}: count {c} / rate {r['rate']} inconsistent")
            continue
        p = cos_exceed_probability(n, eps)
        lower, upper = binomial_tails(c, m, p)
        if lower < alpha / 2 or upper < alpha / 2:
            out.append(f"rot-check n={n} eps={eps}: {c} of {m} exceedances, exact rate {p:.3e}")
    return out


def check_rip_rno_rows(rows) -> list[str]:
    """rno_eps_max <= 4 delta / (1 - delta)^2 + 1e-9, the bound recomputed from rip_delta."""
    out = []
    for r in rows:
        delta = _f(r, "rip_delta")
        if delta >= 1.0:
            continue
        bound = 4.0 * delta / (1.0 - delta) ** 2
        if not _f(r, "rno_eps_max") <= bound + 1e-9:
            out.append(f"rip-rno d={r['d']}: rno_eps_max {r['rno_eps_max']} > bound {bound}")
    return out


# ---------------------------------------------------------------------------
# arguments and results captured in the traced pass
# ---------------------------------------------------------------------------


def check_re_certificate(E, cone_idx, L, den_idx, mode, value, z) -> list[str]:
    """The value is the objective at the witness, the witness is in the cone, and a
    cone covering every column gives the smallest eigenvalue of the Gram matrix."""
    E = np.asarray(E, float)
    z = np.asarray(z, float)
    n, d = E.shape
    out = []
    img = E @ z
    den = z @ z if mode == "gamma_prime" else z[den_idx] @ z[den_idx]
    recomputed = (img @ img) / n / den
    if not abs(recomputed - value) <= 1e-9 * max(abs(value), 1e-12):
        out.append(f"re {mode}: value {value!r} but the witness gives {recomputed!r}")
    on = np.abs(z[cone_idx]).sum()
    off = np.abs(z).sum() - on
    if not off <= L * on * (1.0 + 1e-9) + 1e-12:
        out.append(f"re {mode}: witness off the cone (off-support l1 {off} > {L} x {on})")
    if len(cone_idx) == d:
        lam = float(np.linalg.eigvalsh(E.T @ E / n)[0])
        if not abs(value - lam) <= 1e-6:
            out.append(f"re {mode} full cone: value {value!r} != lambda_min {lam!r}")
    return out


def check_rotation(Q) -> list[str]:
    Q = np.asarray(Q, float)
    err = float(np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])))
    if Q.shape[0] != Q.shape[1] or not err <= 1e-10:
        return [f"rotation {Q.shape}: ||Q^T Q - I|| = {err:.3e}"]
    return []


def check_partial_rotation(before, after, S_idx) -> list[str]:
    """S columns are kept bit for bit; the complement's Gram matrix is unchanged."""
    before, after = np.asarray(before, float), np.asarray(after, float)
    S_idx = np.asarray(S_idx, dtype=np.intp)
    comp = np.setdiff1d(np.arange(before.shape[1]), S_idx)
    out = []
    if after.shape != before.shape or not np.array_equal(after[:, S_idx], before[:, S_idx]):
        out.append("partially_rotate changed the S columns")
        return out
    G0 = before[:, comp].T @ before[:, comp]
    G1 = after[:, comp].T @ after[:, comp]
    err = float(np.max(np.abs(G1 - G0), initial=0.0))
    if not err <= 1e-9 * before.shape[0]:
        out.append(f"partially_rotate changed the complement Gram matrix by {err:.3e}")
    return out


def lasso_gap_bound(E, radius, residual) -> float:
    """Duality-gap bound 4 L r delta at a projected-gradient fixed point.

    L = sigma_max(X)^2 is the solver's step constant and delta the length of
    its last step; the README derives the bound.
    """
    L = float(np.linalg.norm(E, 2)) ** 2
    return 4.0 * L * radius * residual


def check_lasso(E, y, radius, beta, trace, residual, converged) -> list[str]:
    """Feasible, monotone, and within the stopping rule's duality gap."""
    E, y, beta = np.asarray(E, float), np.asarray(y, float), np.asarray(beta, float)
    trace = np.asarray(trace, float)
    out = []
    l1 = float(np.abs(beta).sum())
    if not l1 <= radius * (1.0 + 1e-12) + 1e-12:
        out.append(f"lasso: ||beta||_1 = {l1!r} > radius {radius!r}")
    # rounding slack of a few ulps of the starting objective
    slack = 8.0 * np.finfo(float).eps * max(float(trace[0]), 1.0)
    rises = np.diff(trace)
    if np.any(rises > slack):
        out.append(f"lasso: objective trace rises by {float(np.max(rises)):.3e}")
    g = E.T @ (E @ beta - y)
    gap = float(g @ beta + radius * np.abs(g).max())
    bound = lasso_gap_bound(E, radius, residual) + 1e-9 * max(float(y @ y), 1.0)
    if not gap <= bound:
        out.append(f"lasso: duality gap {gap:.3e} > {bound:.3e}")
    if converged and not residual <= 1e-6 * (1.0 + float(np.linalg.norm(beta))):
        out.append(f"lasso: marked converged with step length {residual:.3e}")
    return out


def _span_cosines(E, A, B) -> np.ndarray:
    """sigma_max(Qa^T Qb) for stacks of column index sets A and B (rows)."""
    Qa = np.linalg.qr(np.moveaxis(E[:, A], 0, 1))[0]
    Qb = np.linalg.qr(np.moveaxis(E[:, B], 0, 1))[0]
    return np.linalg.svd(np.swapaxes(Qa, 1, 2) @ Qb, compute_uv=False)[:, 0]


def check_rno_pair(E, s, value, sa, sb, rng, samples: int = 300) -> list[str]:
    """The returned pair is disjoint and attains the value; no sampled pair beats it."""
    E = np.asarray(E, float)
    d = E.shape[1]
    out = []
    sa, sb = np.asarray(sa, np.intp), np.asarray(sb, np.intp)
    if sa.size != s or sb.size != s or np.intersect1d(sa, sb).size:
        return [f"rno pair {sa.tolist()} / {sb.tolist()} is not two disjoint {s}-sets"]
    got = float(_span_cosines(E, sa[None], sb[None])[0])
    if not abs(got - value) <= 1e-9:
        out.append(f"rno pair gives {got!r}, reported {value!r}")
    perms = np.argsort(rng.random((samples, d)), axis=1)[:, :2 * s]
    sampled = _span_cosines(E, perms[:, :s], perms[:, s:])
    worst = float(sampled.max())
    if worst > value + 1e-12:
        out.append(f"a sampled disjoint pair reaches {worst!r} > reported {value!r}")
    return out


def check_rip_witness(E_unit, value, idx) -> list[str]:
    sv = np.linalg.svd(np.asarray(E_unit, float)[:, np.asarray(idx, np.intp)],
                       compute_uv=False)
    dev = max(1.0 - sv[-1], sv[0] - 1.0)
    if not abs(dev - value) <= 1e-12 * max(1.0, abs(value)):
        return [f"rip witness {list(idx)} gives {dev!r}, reported {value!r}"]
    return []


def first_failures(failures, limit: int = 20) -> list[str]:
    """At most `limit` messages, with a count of the rest."""
    failures = list(failures)
    if len(failures) <= limit:
        return failures
    return failures[:limit] + [f"... and {len(failures) - limit} more"]
