"""Independent references and output checks of the cqec benchmark.

Nothing here imports cqec.  Each reference is either a closed form written
out below from the model's definition, or the benchmark's own sparse
4096x4096 generator of the six-qubit model, propagated with
``scipy.sparse.linalg.expm_multiply``.  A change to cqec (closed forms
included) therefore cannot move a check.

Every ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

import json

import numpy as np

# Accuracy asked of a deterministic trajectory (integrate): the acceptance
# tests pin the closed-form agreement of the full engine at 1e-6.
ACCURACY = 1e-6
# Slack on 0 <= F_cw <= P_cs <= 1 for rounding in the partial trace.
ORDER_SLACK = 1e-9
# Monte Carlo means must lie within Z_BOUND standard errors of the
# reference.  Under the normal approximation a correct program fails one
# sample with probability 2*Phi(-6) = 2.0e-9 (see README.md for the count
# over all runs).
Z_BOUND = 6.0
# Weak-map stepping is first order in tau_c: halving tau_c must roughly
# halve the deviation, and the deviation must stay below eps = kappa*tau_c
# (about ten times the value the method gives at both register sizes).
HALVING_RATIO = (1.5, 2.5)
# Scan and coupling-reduction tolerances (relative).
SCAN_RTOL = 1e-6
COUPLING_RTOL = 1e-3
FIT_SLOPE_ATOL = 1e-6
FIG3_ATOL = 0.01
TRACE_ATOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms (written out here, independent of cqec.closed_forms)
# ---------------------------------------------------------------------------


def alpha_nonmarkov(t, gamma, kappa):
    """F_cw of the single qubit coupled to one bath qubit (gamma X x X),
    corrected at rate kappa:  (2g^2+k^2)/D + e^{-kt}[(kg/D) sin 2gt + (2g^2/D) cos 2gt],
    D = 4g^2 + k^2."""
    t = np.asarray(t, dtype=float)
    d = 4.0 * gamma**2 + kappa**2
    return (2.0 * gamma**2 + kappa**2) / d + np.exp(-kappa * t) * (
        (kappa * gamma / d) * np.sin(2.0 * gamma * t)
        + (2.0 * gamma**2 / d) * np.cos(2.0 * gamma * t)
    )


def fidelity_markov_1q(t, lam, kappa):
    """F_cw of one qubit with bit flips at rate lam and resets at rate kappa:
    (1 - a*) e^{-(kappa + 2 lam) t} + a*,  a* = (lam + kappa)/(2 lam + kappa)."""
    t = np.asarray(t, dtype=float)
    a_star = (lam + kappa) / (2.0 * lam + kappa)
    return (1.0 - a_star) * np.exp(-(kappa + 2.0 * lam) * t) + a_star


def leak_markov_3q(t, lam, kappa):
    """1 - P_cs of the three-qubit code under Markovian flips:
    d(leak)/dt = 3 lam - (4 lam + kappa) leak, so
    leak = 3/(4+r) (1 - e^{-(4+r) lam t}) with r = kappa/lam."""
    t = np.asarray(t, dtype=float)
    rate = 4.0 * lam + kappa
    return 3.0 * lam / rate * (1.0 - np.exp(-rate * t))


def fig3_slow_fidelity(t, big_r):
    """Slow three-qubit codeword fidelity (1 + e^{-144t/R^3} cos(24t/R^2))/2."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (1.0 + np.exp(-144.0 * t / big_r**3) * np.cos(24.0 * t / big_r**2))


SCAN_REFERENCES = {
    "markovian-1q": lambda r: 1.0 / (2.0 + r),
    "hamiltonian-1q": lambda big_r: 2.0 / (4.0 + big_r**2),
    "markovian-3q": lambda r: 3.0 / (4.0 + r),
}


# ---------------------------------------------------------------------------
# the 13-class reduced generator of the pair-coupled three-qubit model
# ---------------------------------------------------------------------------

REDUCED_LABELS = [
    "C000_000", "C100_000", "C110_000", "C100_010", "C100_100", "C110_001",
    "C111_000", "C110_100", "C110_110", "C110_011", "C111_100", "C111_110",
    "C111_111",
]
# R-independent flows (units of gamma) and the entries proportional to R.
_REDUCED_FREE = np.array(
    [
        [0, -6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, -2, -2, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, -1, -1, -2, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, -2, 0, -2, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 0, 0, -4, 0, 0, 0, 0, 0],
        [0, 0, 1, 2, 0, 0, 0, 0, 0, -2, -1, 0, 0],
        [0, 0, 3, 0, 0, 0, 0, 0, 0, 0, -3, 0, 0],
        [0, 0, 1, 1, 1, 0, 0, 0, -1, -1, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0],
    ],
    dtype=float,
)
_REDUCED_CORR = [
    (0, 4, 3.0), (1, 1, -1.0), (2, 2, -1.0), (3, 3, -1.0), (4, 4, -1.0),
    (5, 5, -1.0), (6, 5, -3.0), (7, 7, -1.0), (8, 8, -1.0), (9, 9, -1.0),
    (10, 10, -1.0), (11, 11, -1.0), (12, 8, 3.0),
]


def reduced_matrix(big_r, gamma=1.0):
    """gamma * M(R), the 13x13 generator of the class coefficients.
    ``selftest.py`` checks it against the sparse six-qubit reference."""
    m = _REDUCED_FREE.copy()
    for i, j, coeff in _REDUCED_CORR:
        m[i, j] += coeff * big_r
    return gamma * m


def coupling_reduction(big_r, gamma=1.0):
    """2 gamma / |Im lambda_slow|: lambda_slow is the complex eigenvalue of
    the reduced generator closest to the imaginary axis."""
    w = np.linalg.eigvals(reduced_matrix(big_r, gamma))
    oscillating = w[np.abs(w.imag) > 1e-12 * np.max(np.abs(w))]
    slow = oscillating[np.argmax(oscillating.real)]
    return 2.0 * gamma / abs(slow.imag)


# ---------------------------------------------------------------------------
# six-qubit reference: sparse generator, exact propagation
# ---------------------------------------------------------------------------


def _majority_vote_kraus():
    """Kraus operators of the three-qubit majority-vote recovery: one per
    syndrome (no flip, or a flip of qubit 1, 2, 3), K_v = sum |c(s)><s|."""
    ops = []
    for flip in (0b000, 0b100, 0b010, 0b001):
        k = np.zeros((8, 8))
        for s in range(8):
            c = 0b000 if bin(s).count("1") <= 1 else 0b111
            if s ^ c == flip:
                k[c, s] = 1.0
        ops.append(k)
    return ops


def six_qubit_generator(kappa, gamma=1.0):
    """Column-stacked sparse superoperator of
    rho -> -i[H, rho] + kappa ((Phi x id_bath)(rho) - rho),
    H = gamma sum_j X_j X_{j+3} on qubits 0-2 (system) and 3-5 (bath)."""
    import scipy.sparse as sp

    x = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eye2 = sp.identity(2, format="csr")

    def x_on(j):
        out = sp.identity(1, format="csr")
        for q in range(6):
            out = sp.kron(out, x if q == j else eye2, format="csr")
        return out

    h = gamma * sum(x_on(j) @ x_on(j + 3) for j in range(3))
    eye64 = sp.identity(64, format="csr")
    gen = -1j * (sp.kron(eye64, h) - sp.kron(h.T, eye64))
    lifted = [sp.kron(sp.csr_matrix(k), sp.identity(8)) for k in _majority_vote_kraus()]
    recovery = sum(sp.kron(k.conj(), k) for k in lifted)
    return (gen + kappa * (recovery - sp.identity(4096))).tocsr()


def six_qubit_rho0():
    """|000><000| on the system, bath maximally mixed."""
    sys0 = np.zeros((8, 8))
    sys0[0, 0] = 1.0
    return np.kron(sys0, np.eye(8) / 8.0)


def system_observables(rho):
    """(F_cw, P_cs) of a 64x64 state: <000|Tr_bath rho|000> and the weight
    on span{|000>, |111>}."""
    sys_rho = np.trace(np.asarray(rho).reshape(8, 8, 8, 8), axis1=1, axis2=3).real
    return sys_rho[0, 0], sys_rho[0, 0] + sys_rho[7, 7]


def six_qubit_reference(kappa, t_max, num, gamma=1.0):
    """(times, F_cw, P_cs) on num uniform samples of [0, t_max]."""
    import scipy.sparse.linalg as spl

    v0 = six_qubit_rho0().reshape(-1, order="F").astype(complex)
    xs = spl.expm_multiply(
        six_qubit_generator(kappa, gamma), v0, start=0.0, stop=t_max, num=num,
        endpoint=True,
    )
    fp = np.array([system_observables(x.reshape(64, 64, order="F")) for x in xs])
    return np.linspace(0.0, t_max, num), fp[:, 0], fp[:, 1]


# ---------------------------------------------------------------------------
# checks of trajectory outputs
# ---------------------------------------------------------------------------


def check_order(name, f, p):
    """0 <= F_cw <= P_cs <= 1 on every sample."""
    f = np.asarray(f, dtype=float)
    p = np.asarray(p, dtype=float)
    bad = (f < -ORDER_SLACK) | (f > p + ORDER_SLACK) | (p > 1.0 + ORDER_SLACK)
    if np.any(bad) or not (np.all(np.isfinite(f)) and np.all(np.isfinite(p))):
        i = int(np.argmax(bad)) if np.any(bad) else 0
        return [f"{name}: 0 <= F_cw <= P_cs <= 1 broken at sample {i} (F={f[i]}, P={p[i]})"]
    return []


def check_close(name, got, ref, tol=ACCURACY):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: {got.shape[0] if got.ndim else 0} samples, expected {ref.shape[0]}"]
    dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not dev <= tol:
        return [f"{name}: max deviation {dev:.3e} from the reference (> {tol:g})"]
    return []


def check_times(name, got, ref):
    return check_close(name + " sample times", got, ref, 1e-12 * max(1.0, float(np.max(ref))))


def check_weak_pair(name, dev_coarse, dev_fine, eps_coarse):
    """First-order convergence of weak-map stepping at tau_c and tau_c/2."""
    out = []
    if not dev_coarse <= eps_coarse:
        out.append(f"{name}: deviation {dev_coarse:.3e} at tau_c exceeds eps = {eps_coarse:g}")
    ratio = dev_coarse / dev_fine if dev_fine > 0 else float("inf")
    lo, hi = HALVING_RATIO
    if not lo < ratio < hi:
        out.append(f"{name}: halving ratio {ratio:.3f} outside ({lo}, {hi})")
    return out


def check_monte_carlo(name, mean, se, ref, z_bound=Z_BOUND):
    """|mean - ref| <= z se wherever se > 0, and an exact match (1e-12)
    wherever every trajectory agrees (se = 0, e.g. t = 0)."""
    mean = np.asarray(mean, dtype=float)
    se = np.asarray(se, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if mean.shape != ref.shape or se.shape != ref.shape:
        return [f"{name}: {mean.shape} samples, expected {ref.shape}"]
    out = []
    err = np.abs(mean - ref)
    spread = se > 0
    if np.any(err[~spread] > 1e-12):
        out.append(f"{name}: deterministic samples differ by {float(np.max(err[~spread])):.3e}")
    if se[0] != 0.0:
        out.append(f"{name}: nonzero standard error {se[0]:.3e} at t = 0")
    if np.any(spread):
        z = float(np.max(err[spread] / se[spread]))
        if not z <= z_bound:
            out.append(f"{name}: max |z| {z:.2f} exceeds {z_bound}")
    return out


# ---------------------------------------------------------------------------
# checks of cqec CLI outputs
# ---------------------------------------------------------------------------


def check_exit(name, returncode, stderr=""):
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] if stderr else []
        return [f"{name}: exit code {returncode} {tail}"]
    return []


def read_csv(text):
    """(header, rows) of a cqec CSV, skipping '# config:' comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, rows


def _loglog_slope(x, y):
    lx, ly = np.log(x), np.log(y)
    return float(np.polyfit(lx, ly, 1)[0])


def check_scan(name, scenario, grid, csv_text, fit_text):
    """Scan values against their exact references, and the fitted slope
    against the benchmark's own log-log least squares of the references."""
    try:
        header, rows = read_csv(csv_text)
        fit = json.loads(fit_text)
    except (ValueError, json.JSONDecodeError) as exc:
        return [f"{name}: unreadable output ({exc})"]
    grid = np.asarray(grid, dtype=float)
    if rows.ndim != 2 or rows.shape != (len(grid), 2) or not np.allclose(rows[:, 0], grid):
        return [f"{name}: expected one row per rate {list(grid)}, got {rows.tolist()}"]
    if scenario == "hamiltonian-3q":
        ref = np.array([coupling_reduction(r) for r in grid])
        rtol = COUPLING_RTOL
    else:
        ref = SCAN_REFERENCES[scenario](grid)
        rtol = SCAN_RTOL
    out = []
    rel = np.abs(rows[:, 1] - ref) / np.abs(ref)
    if not np.all(rel <= rtol):
        out.append(f"{name}: relative deviation {float(np.max(rel)):.3e} (> {rtol:g})")
    slope_ref = _loglog_slope(grid, ref)
    slope = fit.get("params", {}).get("slope")
    # the fitted slope may differ from that of the references by what the
    # value tolerance allows: |d slope| <= max relative value error * ~1
    slope_tol = FIT_SLOPE_ATOL + 2.0 * rtol
    if not isinstance(slope, (int, float)) or not abs(slope - slope_ref) <= slope_tol:
        out.append(f"{name}: fitted slope {slope} vs {slope_ref:.6f} (> {slope_tol:g})")
    return out


def check_fig3(name, csv_text, big_r=100.0):
    try:
        header, rows = read_csv(csv_text)
    except ValueError as exc:
        return [f"{name}: unreadable output ({exc})"]
    col = {h: i for i, h in enumerate(header)}
    need = ["t_dimensionless", "C000_000", "C100_100", "C110_110", "C111_111"]
    if any(h not in col for h in need) or rows.ndim != 2 or len(rows) < 2:
        return [f"{name}: missing columns or rows (header {header})"]
    t = rows[:, col["t_dimensionless"]]
    c = {h: rows[:, col[h]] for h in need[1:]}
    out = []
    dev = float(np.max(np.abs(c["C000_000"] - fig3_slow_fidelity(t, big_r))))
    if not dev <= FIG3_ATOL:
        out.append(f"{name}: C000_000 deviates {dev:.4f} from the slow form (> {FIG3_ATOL})")
    trace = c["C000_000"] + 3.0 * c["C100_100"] + 3.0 * c["C110_110"] + c["C111_111"]
    tdev = float(np.max(np.abs(trace - 1.0)))
    if not tdev <= TRACE_ATOL:
        out.append(f"{name}: weighted trace deviates {tdev:.3e} from 1")
    return out


def check_eig(name, json_text):
    try:
        report = json.loads(json_text)
    except json.JSONDecodeError as exc:
        return [f"{name}: unreadable output ({exc})"]
    out = []
    for key in ("all_bands_ok", "conjugation_closed"):
        if report.get(key) is not True:
            out.append(f"{name}: {key} is {report.get(key)!r}")
    return out


def check_graph(name, json_text, big_r):
    """The edges carry every off-diagonal entry of the reduced generator
    at R, each once, with its sign; correction edges scale with R."""
    try:
        edges = json.loads(json_text)["edges"]
        got = np.zeros((13, 13))
        index = {lab: i for i, lab in enumerate(REDUCED_LABELS)}
        for e in edges:
            got[index[e["to"]], index[e["from"]]] += float(e["rate_over_gamma"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{name}: unreadable output ({exc})"]
    ref = reduced_matrix(big_r)
    np.fill_diagonal(ref, 0.0)
    dev = float(np.max(np.abs(got - ref)))
    if not dev <= 1e-9 * big_r:
        return [f"{name}: edges differ from the reduced generator by {dev:.3e}"]
    return []
