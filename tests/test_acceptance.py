"""Acceptance checklist: one test per numbered criterion, twelve in all.

Each test prints a ``[criterion N] PASS/FAIL`` line with the measured
quantities before asserting, so the suite reads as a checklist under
``pytest -v`` (the line is shown whenever a test fails, and always with -s).

Criterion 8 fails by design at R = 8 and the failure is kept visible rather
than patched over: the stated upper bound for the smallest eigenvalue
carries the leading term omega_1*ln(1/R), but dilating a domain by R shifts
every eigenvalue by exactly -2*ln(R), so in two dimensions the stated line
(slope -2*pi) eventually drops below the true eigenvalue it claims to
dominate.  At R = 8 the measured Rayleigh quotient sits above that line.
The corrected-slope variant (slope -2) stays above the quotient at both
radii and is reported in the same breath.  See README.md for the longer
account.
"""

import math

import numpy as np

import oracles
from loglap.bounds import (
    BallProfile,
    counting_envelope,
    log_moment_check,
    lower_bound_sum,
    upper_bound_smallest_large,
)
from loglap.cli import main
from loglap.constants import EULER_GAMMA, dimension_constants
from loglap.discretize import (
    assemble_form,
    build_grid,
    offset_form,
    rayleigh_quotient,
)
from loglap.geometry import TestFunctionSpec, ball, box, interval
from loglap.roots import solve_log_ratio, solve_r_ln_r
from loglap.spectrum import eig_symmetric, spectrum_from_values, weyl_diagnostics


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_constants_identities():
    worst = max(
        abs(dimension_constants(n).kernel_constant
            * dimension_constants(n).sphere_measure - 2.0)
        for n in range(1, 11))
    r1 = abs(dimension_constants(1).zero_order_shift + 2.0 * EULER_GAMMA)
    d2 = abs(dimension_constants(2).volume_coefficient - 1.0 / (4.0 * math.pi))
    ok = worst <= 1e-12 and r1 <= 1e-12 and d2 <= 1e-12
    assert verdict(1, ok, f"max |c*omega - 2| = {worst:.2e} (N=1..10), "
                          f"|rho_1 + 2 gamma| = {r1:.2e}, |d_2 - 1/(4pi)| = {d2:.2e}")


def test_criterion_02_root_envelopes():
    c = (-1.0 / math.e) + np.geomspace(1e-9, 1e6 + 1.0 / math.e, 1000)
    res = solve_r_ln_r(c)
    worst_c = float(np.max(np.abs(res.residual)))
    large = c >= math.e
    env_ok = bool(np.all(res.root <= 1.0 + c + 1e-9)
                  and np.all(res.root[large] >= c[large] / np.log(c[large]) - 1e-9)
                  and np.all((res.envelope_low - 1e-12 <= res.root)
                             & (res.root <= res.envelope_high + 1e-12)))
    t = np.geomspace(8.8301, 1e6, 1000)
    res = solve_log_ratio(t)
    worst_t = float(np.max(np.abs(res.residual)))
    low = t * (np.log(t) - np.log(np.log(t)))
    band_ok = bool(np.all((low - 1e-9 <= res.root) & (res.root < t * np.log(t))))
    ok = worst_c <= 1e-9 and worst_t <= 1e-9 and env_ok and band_ok
    assert verdict(2, ok, f"max |r ln r - c| = {worst_c:.2e}, "
                          f"max |ratio - t| = {worst_t:.2e}, envelopes "
                          f"{'held' if env_ok and band_ok else 'VIOLATED'} "
                          f"over 2x1000 log-spaced targets")


def test_criterion_03_row_identity():
    # The cells of (-R, R) tile it, so each row sum of the assembled matrix,
    # E(1_cell, 1_Omega), is the cell integral of the operator on the
    # indicator, L 1_Omega = rho_1 - ln(R^2 - x^2), with no discretization
    # error.  It holds the constants of the symbol 2 ln|xi| through every
    # entry: c_1 x (1 + 1e-7) moves a row by 2.7e-8 of its absolute sum,
    # rho_1 + 1e-6 by 4.6e-8, and the touching slot x (1 + 1e-9) by 1.2e-10.
    radius, cells = 2.0, 2048
    a = assemble_form(offset_form(build_grid(interval(-radius, radius), 2.0 * radius / cells)))
    rows = oracles.interval_indicator_row_sums(radius, cells)
    worst = float(np.max(np.abs(a.sum(axis=1) - rows) / np.abs(a).sum(axis=1)))
    assert verdict(3, worst <= 1e-13,
                   f"max |row sum - cell integral of rho_1 - ln(R^2 - x^2)| = {worst:.2e} "
                   f"of the row's absolute sum on {cells} cells of (-{radius:g}, {radius:g})")


def test_criterion_04_assembly_matches_quadrature():
    c1 = dimension_constants(1)
    worst_1d = 0.0
    for h in (0.125, 0.0625, 0.03125):
        grid = build_grid(interval(-4.0 * h, 4.0 * h), h)
        entries = assemble_form(offset_form(grid))
        for i in range(8):
            for j in range(8):
                if i == j:
                    ref = (c1.kernel_constant * oracles.diagonal_inner_1d(h)
                           + c1.zero_order_shift * h)
                else:
                    ref = -c1.kernel_constant * oracles.pair_integral_1d(abs(i - j), h)
                worst_1d = max(worst_1d, abs(entries[i, j] - ref) / abs(ref))

    c2 = dimension_constants(2)
    h = 0.25
    grid = build_grid(box((0.0, 0.0), (0.75, 0.75)), h)
    entries = assemble_form(offset_form(grid))
    pair_refs = {
        (0, 1): oracles.edge_pair_2d(h),
        (1, 1): oracles.corner_pair_2d(h),
        (0, 2): oracles.separated_pair_2d(h, 0, 2),
        (1, 2): oracles.separated_pair_2d(h, 1, 2),
        (2, 2): oracles.separated_pair_2d(h, 2, 2),
    }
    diag_ref = (c2.kernel_constant * oracles.diagonal_inner_2d(h)
                + c2.zero_order_shift * h * h)
    worst_2d = 0.0
    for i, a in enumerate(grid.indices):
        for j, b in enumerate(grid.indices):
            if i == j:
                ref = diag_ref
            else:
                off = tuple(sorted((abs(int(a[0] - b[0])), abs(int(a[1] - b[1])))))
                ref = -c2.kernel_constant * pair_refs[off]
            worst_2d = max(worst_2d, abs(entries[i, j] - ref) / abs(ref))
    ok = worst_1d <= 1e-8 and worst_2d <= 1e-4
    assert verdict(4, ok, f"1D worst rel error {worst_1d:.2e} (tol 1e-8), "
                          f"2D worst rel error {worst_2d:.2e} (tol 1e-4)")


def test_criterion_05_refinement_monotonicity():
    lam = []
    for p in (3, 4, 5, 6):
        grid = build_grid(interval(-1.0, 1.0), 2.0 ** -p)
        lam.append(float(eig_symmetric(offset_form(grid), 1).eigenvalues[0]))
    ok = all(b <= a + 1e-12 for a, b in zip(lam, lam[1:]))
    assert verdict(5, ok, "lambda_1 at h = 2^-3..2^-6: "
                   + " >= ".join(f"{v:.9f}" for v in lam))


def test_criterion_06_bound_sandwich():
    d1 = dimension_constants(1).volume_coefficient
    parts = []
    ok = True
    for length in (0.5, 1.0, 2.0, 4.0):
        grid = build_grid(interval(-length / 2.0, length / 2.0), 1.0 / 128.0)
        lam1 = float(eig_symmetric(offset_form(grid), 1).eigenvalues[0])
        floor = -d1 * length
        good = lam1 >= floor - 1e-10
        if length == 1.0:
            good = good and lam1 > 0.0
        ok = ok and good
        parts.append(f"L={length:g}: {lam1:.6f} >= {floor:.6f}")
    assert verdict(6, ok, "; ".join(parts) + " (L=1 additionally positive)")


def test_criterion_07_sum_bounds():
    grid = build_grid(interval(-1.0, 1.0), 1.0 / 256.0)
    spectrum = eig_symmetric(offset_form(grid), 30)
    psums = np.cumsum(spectrum.eigenvalues)
    c1 = dimension_constants(1)
    bound = lower_bound_sum(c1, 2.0, 30).values["refined"]
    base = math.e * c1.volume_coefficient * 2.0
    formula = 60.0 * (math.log(30.0) + math.log(2.0 / base)
                      - math.log(math.log(60.0 / base)))
    floor = -4.0 / math.pi
    ok = (psums[-1] >= bound
          and bool(np.all(psums >= floor))
          and abs(bound - formula) <= 1e-6 * abs(formula))
    assert verdict(7, ok, f"sum of first 30 = {psums[-1]:.4f} >= refined bound "
                          f"{bound:.4f}; every partial sum >= {floor:.4f} "
                          f"(min {psums.min():.4f}); bound matches formula to "
                          f"{abs(bound - formula):.1e}")


def test_criterion_08_upper_bound_chain():
    c2 = dimension_constants(2)
    c0 = 2.0 * math.pi
    spec = TestFunctionSpec(sigma=0.25)
    ok = True
    parts = []
    for radius in (4.0, 8.0):
        domain = ball((0.0, 0.0), radius)
        grid = build_grid(domain, radius / 40.0)
        matrix = offset_form(grid)
        coeffs = domain.test_function(spec, grid.centers)
        quotient = rayleigh_quotient(matrix, coeffs)
        stated = upper_bound_smallest_large(c2, radius, c0).values["upper_bound"]
        proof = upper_bound_smallest_large(
            c2, radius, c0, variant="proof").values["upper_bound"]
        corrected = upper_bound_smallest_large(
            c2, radius, c0, variant="corrected").values["upper_bound"]
        assert proof >= stated
        margin = stated + 0.01 * abs(stated)
        ok = ok and quotient <= margin
        parts.append(f"R={radius:g}: quotient {quotient:.4f} vs stated line "
                     f"{stated:.4f}+1% (proof {proof:.4f}, corrected-slope "
                     f"{corrected:.4f})")
    # The stated line falls with slope -omega_1 = -2*pi in ln R while the true
    # eigenvalue falls with slope -2 (dilation identity), so at R = 8 the line
    # undercuts every admissible Rayleigh quotient and this check fails;
    # the corrected-slope variant above dominates the quotient at both radii.
    assert verdict(8, ok, "; ".join(parts))


def test_criterion_09_moment_inequality_sharpness():
    c1 = dimension_constants(1)
    worst_eq = 0.0
    for a, key in ((1.0, "slack_lower_moment"),
                   (math.e, "slack_mass_affine"),
                   (math.e ** 2, "slack_mass_loglog")):
        rep = log_moment_check(c1, BallProfile(radius=a, height=1.0))
        worst_eq = max(worst_eq, abs(rep.values[key]))
    rng = np.random.default_rng(2024)
    worst = math.inf
    for i in range(500):
        constants = dimension_constants(1 if i % 2 == 0 else 2)
        prof = BallProfile(radius=float(rng.uniform(0.1, 10.0)),
                           height=float(rng.uniform(1e-6, 5.0)))
        rep = log_moment_check(constants, prof)
        for key in ("slack_lower_moment", "slack_mass_affine", "slack_mass_loglog"):
            if key in rep.values:
                worst = min(worst, rep.values[key])
    ok = worst_eq <= 1e-10 and worst >= -1e-10
    assert verdict(9, ok, f"equality-case slacks <= {worst_eq:.2e}; "
                          f"min slack over 500 random profiles = {worst:.2e}")


def test_criterion_10_weyl_trend():
    grid = build_grid(interval(-1.0, 1.0), 1.0 / 512.0)
    spectrum = eig_symmetric(offset_form(grid), 100)
    table = weyl_diagnostics(spectrum)
    window = slice(49, 100)
    med = float(np.median(table["eigenvalue_over_log_k"][window]))
    ratios = table["partial_sum_ratio"][window]
    rising = bool(np.all(np.diff(ratios) > -1e-12)) and ratios[-1] > ratios[0]
    ok = 0.65 * 2.0 <= med <= 1.35 * 2.0 and rising
    assert verdict(10, ok, f"median lambda_k/ln k over k=50..100 = {med:.4f} "
                           f"(band [1.3, 2.7]); partial-sum ratio rises "
                           f"{ratios[0]:.4f} -> {ratios[-1]:.4f} toward 2")


def test_criterion_11_counting_envelopes():
    synthetic = spectrum_from_values(2.0 * np.log(np.arange(1, 1001, dtype=float)))
    rep = counting_envelope(synthetic, 0.25, dimension_constants(1))
    ok = rep.verdicts["upper_decays"] and rep.verdicts["lower_grows"]
    assert verdict(11, ok, f"supercritical envelope decays: "
                           f"{rep.verdicts['upper_decays']}; subcritical grows: "
                           f"{rep.verdicts['lower_grows']}")


def test_criterion_12_cli_determinism(tmp_path):
    args = ["solve", "--domain", "interval", "--length", "2",
            "--cells", "128", "--num-eigs", "40", "--out"]
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    assert verdict(12, ok, f"two identical solve runs produced "
                           f"{'identical' if ok else 'DIFFERING'} CSV bytes "
                           f"({len(first.read_bytes())} bytes)")
