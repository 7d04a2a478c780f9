"""Acceptance checks for the package: one test per numbered requirement,
each printing a single PASS/FAIL line with the measured numbers.

Where a requirement is a leading-order asymptotic statement, the test
compares against the exact or next-order reference of the same model on
the stated grid, so a subleading correction that the model really has is
not reported as a failure:

* requirement 2: the equilibrium infidelity is exactly 1/(2+r); its
  least-squares log-log slope on r in {10, 30, 100, 300, 1000} is
  -0.9638, not -1.  The scan's fitted slope is compared with the slope of
  1/(2+r) fitted on the same grid.  The -1 asymptote is asserted by
  requirement 7, which fits far from the r ~ 2 knee.
* requirement 3: the approximation a(t) ~ (1+exp(-12 lambda t/r))/2 drops
  the single-error weight (b+c -> 3/(4+r)) and replaces the exact slow
  rate 12 lambda^2/(kappa+8 lambda) by 12 lambda/r; both are O(1/r), so
  its deviation is bounded by 3/(4+r) at r = 96 and must shrink like 1/r
  between r = 96 and r = 960.
* requirement 4: the first minimum of the damped slow form
  (1 + e^{-144 t/R^3} cos(24 t/R^2))/2 -- the same form the test uses as
  its envelope oracle -- lies at (pi - arctan(6/R)) R^2/24, not at the
  undamped pi R^2/24.
* requirement 8: the Zeno-limit equilibrium 1 - 2C/kappa^2 differs from
  the exact 1 - 2/(4+R^2) by 8/(R^2 (R^2+2)) in relative terms; the first
  neglected term is 8C^2/kappa^4, so the bound is 8/R^4.
"""

import time

import numpy as np

from cqec.codes_and_maps import (
    ModelParams,
    apply_recovery,
    bitflip3_code,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.dynamics import integrate, jump_monte_carlo, propagate_linear, step_weak_map
from cqec.analysis import (
    coupling_reduction_scan,
    equilibrium_scan,
    fidelity_weight_series,
    fit_power_law,
    match_spectrum,
    observables,
)
from cqec.closed_forms import (
    alpha_markov_1q,
    alpha_nonmarkov_1q,
    alpha_star_nonmarkov,
    fidelity_approx_damped,
    markov3q_approx_a,
    markov3q_exact_leak,
    zeno_coefficient,
    zeno_equilibrium,
)
from cqec import reduced_model
from reference import class_spread, kraus


def _report(name, clauses):
    ok = all(c for c, _ in clauses)
    print(f"{name}: {'PASS' if ok else 'FAIL'} -- " + "; ".join(d for _, d in clauses))
    failing = [d for c, d in clauses if not c]
    assert not failing, "; ".join(failing)


def _fidelity(traj, code):
    f, _ = fidelity_weight_series(traj, code)
    return f


def test_criterion_01_single_qubit_nonmarkovian_curves():
    start = time.perf_counter()
    code = trivial_code()
    sup = 0.0
    for big_r in (1.0, 2.0, 5.0):
        gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=big_r))
        traj = integrate(gen, scenario_rho0("hamiltonian-1q"), 10.0, n_samples=501)
        f = _fidelity(traj, code)
        sup = max(sup, float(np.max(np.abs(f - alpha_nonmarkov_1q(traj.times, 1.0, big_r)))))
        if big_r == 5.0:
            asym = abs(f[-1] - 27.0 / 29.0)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1",
        [
            (sup <= 1e-6, f"sup dev {sup:.2e} (<= 1e-6)"),
            (asym <= 1e-6, f"R=5 asymptote dev {asym:.2e} (<= 1e-6)"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s (< 1s)"),
        ],
    )


def test_criterion_02_single_qubit_markovian():
    start = time.perf_counter()
    code = trivial_code()
    gen = total_generator("markovian-1q", ModelParams(lam=1.0, kappa=2.0))
    traj = integrate(gen, scenario_rho0("markovian-1q"), 5.0, n_samples=201)
    dev = float(
        np.max(np.abs(_fidelity(traj, code) - alpha_markov_1q(traj.times, 1.0, 2.0)))
    )
    grid = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])
    slope = fit_power_law(equilibrium_scan("markovian-1q", grid))["params"]["slope"]
    slope_ref = fit_power_law(zip(grid, 1.0 / (2.0 + grid)))["params"]["slope"]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2",
        [
            (dev <= 1e-8, f"trajectory sup dev {dev:.2e} (<= 1e-8)"),
            (
                abs(slope - slope_ref) <= 1e-6,
                f"scan slope {slope:+.4f} vs {slope_ref:+.4f} of 1/(2+r) on r in [10, 1000]"
                f" (dev {abs(slope - slope_ref):.1e}, <= 1e-6)",
            ),
            (elapsed < 5.0, f"runtime {elapsed:.2f}s (< 5s)"),
        ],
    )


def test_criterion_03_three_qubit_markovian():
    start = time.perf_counter()
    code = bitflip3_code()
    leak_dev = 0.0
    for kappa in (0.0, 10.0, 96.0):
        gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=kappa))
        traj = integrate(gen, scenario_rho0("markovian-3q"), 2.0, n_samples=201)
        _, p = fidelity_weight_series(traj, code)
        ref = markov3q_exact_leak(traj.times, 1.0, kappa)
        leak_dev = max(leak_dev, float(np.max(np.abs((1.0 - p) - ref))))
    a_dev = {}
    for r in (96.0, 960.0):
        gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=r))
        traj = integrate(gen, scenario_rho0("markovian-3q"), 50.0, n_samples=2001)
        a = np.real(traj.states[:, 0, 0])
        a_dev[r] = float(np.max(np.abs(a - markov3q_approx_a(traj.times, 1.0, r))))
    bound = 3.0 / (4.0 + 96.0)
    ratio = a_dev[960.0] / a_dev[96.0]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3",
        [
            (leak_dev <= 1e-8, f"b+c dev {leak_dev:.2e} (<= 1e-8, r in {{0, 10, 96}})"),
            (a_dev[96.0] <= bound, f"a(t) dev {a_dev[96.0]:.4f} (<= 3/(4+r) = {bound:.4f}, r=96)"),
            (
                ratio <= 0.15,
                f"a(t) dev {a_dev[960.0]:.5f} at r=960, ratio {ratio:.3f} to r=96 (<= 0.15, O(1/r))",
            ),
            (elapsed < 5.0, f"runtime {elapsed:.2f}s (< 5s)"),
        ],
    )


def test_criterion_04_reduced_model_fidelity():
    start = time.perf_counter()
    m = reduced_model.build_reduced_matrix(100.0, 1.0)
    x0 = np.eye(13)[0]
    times = np.linspace(0.0, 2000.0, 200001)
    c000 = propagate_linear(m, x0, times)[:, 0].real
    i = int(np.argmin(c000))
    # parabolic refinement of the minimum location
    t3, v3 = times[i - 1 : i + 2], c000[i - 1 : i + 2]
    denom = v3[0] - 2.0 * v3[1] + v3[2]
    t_min = t3[1] + 0.5 * (v3[0] - v3[2]) / denom * (t3[1] - t3[0])
    v_min = float(c000[i])
    # first minimum of the damped form: tan(24 t/R^2) = -6/R
    t_ref = (np.pi - np.arctan(6.0 / 100.0)) * 100.0**2 / 24.0
    loc_dev = abs(t_min - t_ref) / t_ref
    sup = float(np.max(np.abs(c000 - fidelity_approx_damped(times, 1.0, 100.0))))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4",
        [
            (
                loc_dev <= 0.01,
                f"first min at {t_min:.1f} vs damped-form {t_ref:.1f} ({100*loc_dev:.2f}%, need <= 1%)",
            ),
            (abs(v_min - 0.086) <= 0.005, f"min value {v_min:.5f} (0.086 +- 0.005)"),
            (sup <= 0.01, f"damped-form sup dev {sup:.5f} (<= 0.01)"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s (< 1s)"),
        ],
    )


def test_criterion_05_predicted_spectrum():
    start = time.perf_counter()
    vals = np.linalg.eigvals(reduced_model.build_reduced_matrix(100.0, 1.0))
    matches = match_spectrum(vals, 100.0, 1.0)
    zero_mod = min(abs(complex(*m["numerical"])) for m in matches if m["kind"] == "zero")
    fast_res = max(m["residual_over_gamma"] for m in matches if m["kind"] == "fast")
    slow = [m["numerical"] for m in matches if m["kind"] == "slow"]
    slow_im = max(abs(abs(im) - 24.0 / 100.0**2) / (24.0 / 100.0**2) for _, im in slow)
    slow_re = max(abs(re + 144.0 / 100.0**3) / (144.0 / 100.0**3) for re, _ in slow)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5",
        [
            (zero_mod <= 1e-10, f"|zero mode| {zero_mod:.2e} (<= 1e-10)"),
            (fast_res <= 0.1, f"max fast residual {fast_res:.4f} gamma (<= 0.1)"),
            (slow_im <= 0.01, f"slow imag rel dev {slow_im:.4f} (<= 1%)"),
            (slow_re <= 0.20, f"slow real rel dev {slow_re:.4f} (<= 20%)"),
            (elapsed < 0.1, f"runtime {elapsed*1000:.1f}ms (< 100ms)"),
        ],
    )


def test_criterion_06_full_reduced_equivalence():
    start = time.perf_counter()
    dev = 0.0
    spread = 0.0
    for big_r in (0.0, 1.0, 10.0):
        gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
        traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 5.0, n_samples=26)
        m = reduced_model.build_reduced_matrix(big_r, 1.0)
        xs = propagate_linear(m, np.eye(13)[0], traj.times).real
        coeffs = reduced_model.class_coefficients(traj.coords, traj.basis)
        dev = max(dev, float(np.max(np.abs(coeffs - xs))))
        for rho in traj.states:
            spread = max(spread, class_spread(rho))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6",
        [
            (dev <= 1e-6, f"max coefficient dev {dev:.2e} (<= 1e-6)"),
            (spread <= 1e-9, f"max class spread {spread:.2e} (<= 1e-9)"),
            (elapsed < 60.0, f"runtime {elapsed:.1f}s (< 60s)"),
        ],
    )


def test_criterion_07_scaling_laws():
    start = time.perf_counter()
    far_grid = [300.0, 1000.0, 3000.0, 10000.0]
    s_m1 = fit_power_law(equilibrium_scan("markovian-1q", far_grid))["params"]["slope"]
    s_m3 = fit_power_law(equilibrium_scan("markovian-3q", far_grid))["params"]["slope"]
    s_nm = fit_power_law(
        equilibrium_scan("hamiltonian-1q", [30.0, 100.0, 300.0, 1000.0])
    )["params"]["slope"]
    fit = fit_power_law(coupling_reduction_scan([30.0, 50.0, 100.0, 200.0]))
    expo = fit["params"]["slope"]
    pref = fit["params"]["prefactor"]
    pref_dev = abs(pref - 1.0 / 12.0) / (1.0 / 12.0)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7",
        [
            (abs(s_m1 + 1.0) <= 0.02, f"Markovian 1q slope {s_m1:+.4f} (-1.00 +- 0.02)"),
            (abs(s_m3 + 1.0) <= 0.02, f"Markovian 3q slope {s_m3:+.4f} (-1.00 +- 0.02)"),
            (abs(s_nm + 2.0) <= 0.02, f"non-Markovian slope {s_nm:+.4f} (-2.00 +- 0.02)"),
            (abs(expo - 2.0) <= 0.1, f"coupling-reduction exponent {expo:+.4f} (+2.0 +- 0.1)"),
            (pref_dev <= 0.15, f"prefactor {pref:.5f} vs 1/12 ({100*pref_dev:.1f}%, <= 15%)"),
            (elapsed < 120.0, f"runtime {elapsed:.1f}s (< 2min)"),
        ],
    )


def test_criterion_08_zeno_coefficient():
    start = time.perf_counter()
    devs = {}
    for scenario, code, c_ref in (
        ("hamiltonian-1q", trivial_code(), 1.0),
        ("hamiltonian-3q", bitflip3_code(), 3.0),
    ):
        gen = total_generator(scenario, ModelParams(gamma=1.0, kappa=0.0))
        traj = integrate(gen, scenario_rho0(scenario), 1e-2, n_samples=101)
        f = _fidelity(traj, code)
        # (1 - F)/t^2 at every sample past t = 0: the loss itself, no fit
        c_read = (1.0 - f[1:]) / traj.times[1:] ** 2
        devs[scenario] = float(np.max(np.abs(c_read - c_ref))) / c_ref
    big_r = 50.0
    h = pair_hamiltonian(trivial_code(), 1.0)
    c = zeno_coefficient(h, np.diag([1.0 + 0j, 0.0]), np.eye(2, dtype=complex) / 2.0)
    zeno = zeno_equilibrium(c, big_r)
    exact = alpha_star_nonmarkov(big_r)
    gap = abs(zeno - exact) / exact
    allowed = 8.0 / big_r**4
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8",
        [
            (devs["hamiltonian-1q"] <= 0.01,
             f"(1-F)/t^2 vs C(1q) max rel dev {devs['hamiltonian-1q']:.2e} (<= 1%)"),
            (devs["hamiltonian-3q"] <= 0.01,
             f"(1-F)/t^2 vs C(3q) max rel dev {devs['hamiltonian-3q']:.2e} (<= 1%)"),
            (
                gap <= allowed,
                f"equilibrium gap {gap:.3e} at R=50 (need <= 8/R^4 = {allowed:.3e})",
            ),
            (elapsed < 5.0, f"runtime {elapsed:.2f}s (< 5s)"),
        ],
    )


def test_criterion_09_discretization_contract():
    start = time.perf_counter()
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    devs = []
    for tau in (1e-3, 5e-4, 2.5e-4):
        n = int(round(10.0 / tau))
        traj = step_weak_map(rho0, h, code, 5.0 * tau, tau, n, sample_stride=n // 200)
        f = _fidelity(traj, code)
        devs.append(float(np.max(np.abs(f - alpha_nonmarkov_1q(traj.times, 1.0, 5.0)))))
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    first_order = all(1.5 < r < 2.5 for r in ratios)

    traj = jump_monte_carlo(rho0, h, code, 5.0, 2.0, 10**4, seed=0, n_samples=21)
    mean = traj.observables["F_cw_mean"]
    se = traj.observables["F_cw_se"]
    ref = alpha_nonmarkov_1q(traj.times, 1.0, 5.0)
    mask = se > 0
    z_max = float(np.max(np.abs(mean - ref)[mask] / se[mask]))
    exact_at_zero = bool(np.all(np.abs(mean - ref)[~mask] < 1e-12))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9",
        [
            (
                first_order,
                f"weak-map error {devs[0]:.2e} at tau_c=1e-3, halving ratios "
                f"{ratios[0]:.3f}/{ratios[1]:.3f} (first order)",
            ),
            (
                z_max < 3.0 and exact_at_zero,
                f"Monte Carlo max |z| {z_max:.3f} over 21 samples, 1e4 trajectories (< 3)",
            ),
            (elapsed < 120.0, f"runtime {elapsed:.1f}s (< 2min)"),
        ],
    )


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    def rand_rho(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    channel_dev = 0.0
    kraus_dev = 0.0
    idem_dev = 0.0
    for code in (trivial_code(), bitflip3_code()):
        dim = 2**code.system_count
        kraus_dev = max(
            kraus_dev,
            float(np.max(np.abs(sum(k.conj().T @ k for k in kraus(code)) - np.eye(dim)))),
        )
        # the strong map Phi and the weak map (1 - eps) id + eps Phi, eps = 0.3
        for eps in (1.0, 0.3):
            rho = rand_rho(dim)
            out = (1.0 - eps) * rho + eps * apply_recovery(code, rho)
            channel_dev = max(
                channel_dev,
                abs(np.trace(out) - 1.0),
                float(np.max(np.abs(out - out.conj().T))),
            )
        once = apply_recovery(code, rand_rho(dim))
        idem_dev = max(idem_dev, float(np.max(np.abs(apply_recovery(code, once) - once))))

    w = np.zeros(13)
    w[0], w[4], w[8], w[12] = 1.0, 3.0, 3.0, 1.0
    trace_dev = max(
        float(np.max(np.abs(w @ reduced_model.build_reduced_matrix(r))))
        for r in rng.uniform(0.0, 1000.0, size=20)
    )

    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=3.0))
    traj = integrate(gen, scenario_rho0("markovian-3q"), 2.0, n_samples=41)
    margin = min(o.p_cs - o.f_cw for o in observables(traj, bitflip3_code()))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 10",
        [
            (channel_dev < 1e-12, f"channel trace/Hermiticity dev {channel_dev:.2e}"),
            (kraus_dev < 1e-12, f"Kraus completeness dev {kraus_dev:.2e}"),
            (idem_dev < 1e-12, f"idempotence dev {idem_dev:.2e}"),
            (trace_dev == 0.0, f"weighted-trace dev {trace_dev:.2e} over 20 random R"),
            (margin >= -1e-9, f"min P_cs - F_cw margin {margin:.2e}"),
            (elapsed < 60.0, f"runtime {elapsed:.1f}s (< 60s)"),
        ],
    )
