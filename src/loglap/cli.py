"""Command-line front end.

Six subcommands: ``constants`` (dimension constants table), ``roots``
(root solves for arrays of targets), ``bounds`` (closed-form bound report
for a domain), ``solve`` (assemble + eigensolve, CSV output), ``verify``
(self-checking suites), and ``sweep`` (one CSV row per parameter value).

Conventions shared by every subcommand:

* CSV output starts with the literal line ``#schema=1`` followed by a
  header row; every number is printed with 17 significant digits, so a CSV
  is a bit-exact function of the run configuration and the BLAS thread count.
* JSON side files (run manifests, verify reports) carry non-deterministic
  content such as timings; the CSV never does.
* ``--config FILE`` reads flat ``key=value`` lines whose keys mirror the
  long flag names (``h=0.125`` for ``--h 0.125``); flags given on the
  command line override the file.
* exit codes: 0 success, 1 usage/configuration error, 2 numerical failure
  (a verify suite that ran but found a violated check also exits 2).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import random
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BallProfile,
    counting_envelope,
    log_moment_check,
    lower_bound_eigenvalue,
    lower_bound_smallest,
    lower_bound_sum,
    upper_bound_smallest_large,
    upper_bound_smallest_small,
    upper_bound_sum,
)
from .constants import EULER_GAMMA, NumericsError, dimension_constants
from .discretize import (
    MAX_CELL_SIDE,
    _require_dense_memory,
    assemble_form,
    build_grid,
    offset_form,
    rayleigh_quotient,
)
from .geometry import Domain, TestFunctionSpec, ball, box, interval
from .roots import solve_log_ratio, solve_r_ln_r
from .spectrum import (
    _check_envelope_args,
    eig_symmetric,
    envelope_samples,
    spectrum_from_values,
    weyl_diagnostics,
)

__all__ = ["main"]

SCHEMA_LINE = "#schema=1"


def _kind_format(kind: type) -> str:
    """The %-format of every CSV value of this type: text as is, integers
    (bools among them) in decimal and every other number to 17 significant digits."""
    return ("%s" if issubclass(kind, str) else "%d" if issubclass(kind, (int, np.integer))
            else "%.17g")


def _fmt(x) -> str:
    """The CSV rendering of one value."""
    return _kind_format(type(x)) % x


def _open_out(out: str | None):
    """The file ``out``, written with LF line ends, or stdout when there is none."""
    return open(out, "w", newline="\n") if out else contextlib.nullcontext(sys.stdout)


@functools.lru_cache(maxsize=8)
def _row_format(kinds: tuple) -> str:
    """One %-format for a CSV line of values of these types."""
    return ",".join(map(_kind_format, kinds)) + "\n"


def _emit_csv(out: str | None, header: list[str], rows: Iterable) -> None:
    """Write the schema line, the header and one line per row, a line at a time,
    each by one %-format built from its values' types."""
    with _open_out(out) as fh:
        fh.write(f"{SCHEMA_LINE}\n{','.join(header)}\n")
        if isinstance(rows, np.ndarray):  # the dumped matrix: one format for every row
            line = _row_format((float,) * rows.shape[1])
            fh.writelines(line % tuple(row.tolist()) for row in rows)
        else:
            fh.writelines(_row_format(tuple(map(type, row))) % tuple(row) for row in rows)


def _emit_json(out: str | None, payload: dict) -> None:
    """Write ``payload`` as JSON; a NaN or infinite value raises ``ValueError``
    before the file is opened, since JSON has no token for it."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _open_out(out) as fh:
        fh.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose flags match in full only: as a prefix, ``--h``
    reads as ``--help`` where no ``--h`` exists."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


# ---------------------------------------------------------------------------
# domain / grid plumbing


def _parse_sides(text: str) -> tuple[float, ...]:
    try:
        sides = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--side expects comma-separated numbers, got {text!r}")
    if not sides or any(not (s > 0.0) for s in sides):
        raise ValueError(f"--side lengths must be positive, got {text!r}")
    return sides


def _refuse_unread(args, names: Iterable[str], why: str) -> None:
    """Refuse the flags ``--name`` among ``names`` that were given: ``why`` none is read."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{' and '.join(given)} given, but {why}")


def _domain_from_args(args) -> Domain:
    """The domain of ``--domain`` and its one shape flag; the other shape flags are refused."""
    if args.domain is None:
        raise ValueError("a domain is required: pass --domain interval|box|ball")
    shape = {"interval": "length", "ball": "radius", "box": "side"}[args.domain]
    _refuse_unread(args, (name for name in ("length", "radius", "side") if name != shape),
                   f"--domain {args.domain} reads --{shape} alone")
    if getattr(args, shape) is None:
        raise ValueError(f"--domain {args.domain} needs --{shape}")
    if args.domain == "interval":
        if not args.length > 0.0:
            raise ValueError(f"--length must be positive, got {args.length!r}")
        half = args.length / 2.0
        return interval(-half, half)
    if args.domain == "ball":
        return ball((0.0, 0.0), args.radius)
    sides = _parse_sides(args.side)
    if len(sides) == 1:
        sides = (sides[0], sides[0])
    if len(sides) != 2:
        raise ValueError("boxes are two-dimensional: --side A or --side A,B")
    return box((-sides[0] / 2.0, -sides[1] / 2.0), sides)


def _resolve_h(args, domain: Domain) -> float:
    if (args.h is None) == (args.cells is None):
        raise ValueError("exactly one of --h and --cells is required")
    if args.h is not None:
        return args.h
    if args.cells < 1:
        raise ValueError(f"--cells must be >= 1, got {args.cells}")
    return float(domain.sides[0] / args.cells)


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB.

    Linux's ``VmHWM`` is this process's own peak.  ``ru_maxrss``, the
    fallback elsewhere, starts on Linux at the peak of the process that
    spawned it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2**10  # kB
    except OSError:
        pass
    import resource  # POSIX only: imported here so other platforms can run the rest

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)  # bytes on macOS, KiB elsewhere


def _write_manifest(args, record: dict, counts: str) -> None:
    """With ``--out run.csv``, write the run's manifest to ``run.json`` and say so.

    ``config`` is the parsed command line, every flag of the command;
    ``record`` holds the command's own fields beside the shared ones;
    ``counts`` is what the "wrote" line says the CSV holds.
    """
    if not args.out:
        return
    out = Path(args.out)
    path = str(out.with_suffix(".json")) if out.suffix != ".json" else str(out) + ".manifest.json"
    config = {name: value for name, value in vars(args).items() if name not in ("command", "func")}
    _emit_json(path, {"command": args.command, "version": __version__, "config": config,
                      **record, "peak_rss_mb": _peak_rss_mb()})
    print(f"wrote {args.out} ({counts}) and {path}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(args) -> int:
    table = {**dataclasses.asdict(dimension_constants(args.dim)), "euler_gamma": EULER_GAMMA}
    width = max(map(len, table))
    for name, value in table.items():
        print(f"{name:<{width}}  {_fmt(value)}")
    _emit_csv(args.out, ["name", "value"], table.items())
    return 0


def _cmd_roots(args) -> int:
    try:
        targets = np.array([float(part) for part in args.target.split(",")])
    except ValueError:
        raise ValueError(f"--target expects comma-separated numbers, got {args.target!r}")
    res = (solve_r_ln_r if args.map == "rlnr" else solve_log_ratio)(targets)
    rows = list(zip(res.target, res.root, res.residual, res.envelope_low, res.envelope_high,
                    res.steps))
    for t, root, residual, low, high, _ in rows:
        print(f"map={args.map} target={_fmt(t)}  root={_fmt(root)}  "
              f"residual={residual:.3e}  bracket=[{_fmt(low)}, {_fmt(high)}]")
    _emit_csv(args.out, ["target", "root", "residual", "envelope_low", "envelope_high",
                         "iterations"], rows)
    return 0


def _cmd_bounds(args) -> int:
    if args.num_eigs is not None and args.variant == "corrected":
        raise ValueError("the sum bound of --num-eigs has only the variants 'statement' "
                         "and 'proof'; 'corrected' is for the smallest eigenvalue alone")
    if args.sigma is None:
        _refuse_unread(args, ("h", "cells"), "they set the grid of the --sigma Rayleigh "
                                             "quotient; without --sigma nothing reads them")
    domain = _domain_from_args(args)
    constants = dimension_constants(domain.dim)
    c0 = args.c0 if args.c0 is not None else domain.minimal_c0()
    radius = domain.inradius
    reports = {"lower_smallest": lower_bound_smallest(constants, domain.volume)}
    if c0 is not None:
        reports["upper_large"] = upper_bound_smallest_large(constants, radius, c0,
                                                            variant=args.variant)
        if radius < 0.25:
            reports["upper_small"] = upper_bound_smallest_small(constants, radius, c0)
    if args.num_eigs is not None:
        k = args.num_eigs
        reports["lower_sum"] = lower_bound_sum(constants, domain.volume, k)
        reports["lower_eigenvalue"] = lower_bound_eigenvalue(constants, domain.volume, k)
        reports["upper_sum"] = upper_bound_sum(constants, domain.volume, k, variant=args.variant)
    payload: dict = {
        "domain": {"kind": domain.kind, "dim": domain.dim,
                   "volume": domain.volume, "inradius": radius},
        "c0": c0,
        "reports": {name: dataclasses.asdict(r) for name, r in reports.items()},
    }
    if args.sigma is not None:
        # Rayleigh quotient of the ramp test function on a grid: a computable
        # upper bound for the true smallest eigenvalue, for comparison with
        # the closed-form reports above.
        spec = TestFunctionSpec(sigma=args.sigma)  # refused before the grid is built
        h = _resolve_h(args, domain)
        grid = build_grid(domain, h)
        matrix = offset_form(grid)
        coeffs = domain.test_function(spec, grid.centers)
        payload["rayleigh"] = {
            "sigma": args.sigma,
            "h": grid.h,
            "cells": grid.count,
            "quotient": rayleigh_quotient(matrix, coeffs),
        }
    _emit_json(args.out, payload)
    return 0


def _cmd_solve(args) -> int:
    if args.num_eigs < 1:
        raise ValueError("--num-eigs must be >= 1")
    if args.delta is not None:
        _check_envelope_args(args.num_eigs, args.delta)  # refuse before the eigensolve, not after
    domain = _domain_from_args(args)
    h = _resolve_h(args, domain)
    t0 = time.perf_counter()
    grid = build_grid(domain, h)
    t1 = time.perf_counter()
    if args.num_eigs > grid.count:  # refused before the table and a dumped matrix
        raise ValueError(f"--num-eigs {args.num_eigs} exceeds the grid's {grid.count} cells")
    form = offset_form(grid)
    if args.dump_matrix:  # a matrix too large for memory is refused before the solve
        _require_dense_memory(form)
    t2 = time.perf_counter()
    spectrum = eig_symmetric(form, args.num_eigs)
    t3 = time.perf_counter()

    _emit_csv(args.out, ["k", "lambda", "lambda_over_log_k", "partial_sum",
                         "partial_sum_over_k_log_k"], zip(*weyl_diagnostics(spectrum).values()))

    if args.dump_matrix:  # gathered after the solve, so the solve's blocks are gone
        _emit_csv(args.dump_matrix, [f"col{j}" for j in range(grid.count)], assemble_form(form))

    if args.delta is not None:
        env_out = None
        if args.out:
            env_out = str(Path(args.out).with_name(Path(args.out).stem + "_envelope.csv"))
        _emit_csv(env_out, ["t", "upper_envelope", "lower_envelope"],
                  [list(r) for r in zip(*envelope_samples(spectrum, domain.dim, args.delta))])

    record = {
        "grid": {"dim": domain.dim, "h_requested": h, "h_effective": grid.h, "cells": grid.count},
        "timings_sec": {
            "build_grid": t1 - t0,
            "assemble": t2 - t1,
            "eigensolve": t3 - t2,
            "total": t3 - t0,
        },
        "results": {
            "lambda_1": float(spectrum.eigenvalues[0]),
            "lambda_k": float(spectrum.eigenvalues[-1]),
        },
        "eigensolve": spectrum.source,
    }
    _write_manifest(args, record, f"{args.num_eigs} rows, {grid.count} cells")
    return 0


# ---------------------------------------------------------------------------
# verify suites.  Each takes the seed and yields its checks, one
# {"name", "passed", "detail"} dict each; all numeric thresholds here restate
# module contracts, so a failing check means a real regression rather than a
# loose tolerance.


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_constants(seed: int) -> Iterator[dict]:
    worst = 0.0
    for n in range(1, 11):
        c = dimension_constants(n)
        worst = max(worst, abs(c.kernel_constant * c.sphere_measure - 2.0))
    yield _check("constants.kernel_times_sphere", worst <= 1e-12,
                 f"max |c_N*omega - 2| over N=1..10 = {worst:.3e}")
    r1 = dimension_constants(1).zero_order_shift
    yield _check("constants.shift_dim1", abs(r1 + 2.0 * EULER_GAMMA) <= 1e-12,
                 f"|rho_1 + 2*gamma| = {abs(r1 + 2.0 * EULER_GAMMA):.3e}")
    d2 = dimension_constants(2).volume_coefficient
    yield _check("constants.volume_coefficient_dim2",
                 abs(d2 - 1.0 / (4.0 * math.pi)) <= 1e-12,
                 f"|d_2 - 1/(4 pi)| = {abs(d2 - 1.0 / (4.0 * math.pi)):.3e}")
    shifts = [dimension_constants(n).zero_order_shift for n in range(1, 11)]
    increasing = all(b > a for a, b in zip(shifts, shifts[1:]))
    yield _check("constants.shift_monotone", increasing,
                 "zero-order shift strictly increasing over N=1..10")


def _suite_roots(seed: int) -> Iterator[dict]:
    # 1000 targets spread log-style in the offset from the left endpoint -1/e,
    # reaching up to 1e6: dense near the degenerate endpoint, sparse far out.
    res = solve_r_ln_r((-1.0 / math.e) + np.geomspace(1e-9, 1e6 + 1.0 / math.e, 1000))
    worst_res = float(np.max(np.abs(res.residual)))
    env_ok = bool(np.all((res.envelope_low - 1e-12 <= res.root)
                         & (res.root <= res.envelope_high + 1e-12)))
    yield _check("roots.r_ln_r_residual", worst_res <= 1e-9,
                 f"max |r ln r - c| = {worst_res:.3e} over 1000 targets")
    yield _check("roots.r_ln_r_envelopes", env_ok,
                 "closed-form bracket holds for every solved target")
    res = solve_log_ratio(np.geomspace(8.8301, 1e6, 1000))
    worst_rel = float(np.max(np.abs(res.residual) / res.target))
    band_ok = bool(np.all((res.envelope_low - 1e-12 <= res.root)
                          & (res.root < res.envelope_high)))
    yield _check("roots.log_ratio_residual", worst_rel <= 1e-9,
                 f"max relative residual = {worst_rel:.3e} over 1000 targets")
    yield _check("roots.log_ratio_band", band_ok,
                 "t(ln t - ln ln t) <= root < t ln t for every target")


def _suite_symbol(seed: int) -> Iterator[dict]:
    # The plane wave's energy density: the kernel's near integral,
    # 2 c_1 (gamma + ln t - Ci t), plus its far tail, 2 c_1 Ci t, plus rho_1.
    # With c_1 = 1 and rho_1 = -2 gamma it is the symbol 2 ln t exactly.
    c = dimension_constants(1)
    worst = max(abs(c.kernel_constant * 2.0 * (EULER_GAMMA + math.log(t)) + c.zero_order_shift
                    - 2.0 * math.log(t)) for t in np.geomspace(0.1, 100.0, 50).tolist())
    yield _check("symbol.plane_wave_identity", worst <= 1e-8,
                 f"sup |symbol(t) - 2 ln t| = {worst:.3e} on 50 log-spaced t in [0.1, 100]")


def _suite_bounds(seed: int) -> Iterator[dict]:
    c1 = dimension_constants(1)
    c2 = dimension_constants(2)

    sharp = []
    for a, key in ((1.0, "slack_lower_moment"), (math.e, "slack_mass_affine"),
                   (math.e ** 2, "slack_mass_loglog")):
        rep = log_moment_check(c1, BallProfile(radius=a, height=1.0))
        sharp.append(abs(rep.values[key]))
    yield _check("bounds.moment_sharpness", max(sharp) <= 1e-10,
                 f"equality-case slacks = {[f'{s:.2e}' for s in sharp]}")

    rng = random.Random(seed)  # numpy.random would cost an import per process
    worst_slack = math.inf
    for _ in range(500):
        constants = c1 if rng.randrange(2) == 0 else c2
        prof = BallProfile(radius=rng.uniform(0.1, 10.0), height=rng.uniform(1e-6, 5.0))
        rep = log_moment_check(constants, prof)
        for key in ("slack_lower_moment", "slack_mass_affine", "slack_mass_loglog"):
            if key in rep.values:
                worst_slack = min(worst_slack, rep.values[key])
    yield _check("bounds.moment_random_profiles", worst_slack >= -1e-10,
                 f"min slack over 500 random profiles = {worst_slack:.3e}")

    coherent = True
    for k in (27, 40, 100, 1000):
        s = lower_bound_sum(c1, 2.0, k).values["refined"]
        per = lower_bound_eigenvalue(c1, 2.0, k).values["refined"]
        if s != k * per:
            coherent = False
    yield _check("bounds.sum_eigenvalue_coherence", coherent,
                 "k * per-eigenvalue bound == sum bound bit-exactly")

    ks = range(27, 271)
    sums = [lower_bound_sum(c1, 2.0, k).values["refined"] for k in ks]
    monotone = all(b >= a for a, b in zip(sums, sums[1:]))
    yield _check("bounds.sum_monotone_in_k", monotone,
                 "refined sum bound nondecreasing for k = 27..270 (length-2 interval)")

    dominated = True
    for k in (30, 100, 300):
        for vol in (0.5, 2.0, 10.0):
            st = upper_bound_sum(c1, vol, k, variant="statement")
            pf = upper_bound_sum(c1, vol, k, variant="proof")
            if st.admissible["upper_bound"] and pf.admissible["upper_bound"]:
                if st.values["upper_bound"] > pf.values["upper_bound"]:
                    dominated = False
    yield _check("bounds.upper_sum_variants_ordered", dominated,
                 "statement variant <= proof variant at sampled (volume, k)")

    consistent = True
    details = []
    for radius in (2.0, 4.0, 8.0, 16.0, 32.0):
        # Any admissible domain contains B_R and fits inside B_2R, so the
        # volume lower bound for the large ball must sit below the upper
        # bound evaluated at inradius R.
        vol = c2.sphere_measure / 2.0 * (2.0 * radius) ** 2
        lo = lower_bound_smallest(c2, vol).values["volume_term"]
        hi = upper_bound_smallest_large(c2, radius, 2.0 * math.pi).values["upper_bound"]
        details.append(f"R={radius:g}: {lo:.4g} <= {hi:.4g}")
        if lo > hi:
            consistent = False
    yield _check("bounds.lower_below_upper", consistent, "; ".join(details))


def _suite_sandwich(seed: int) -> Iterator[dict]:
    c1 = dimension_constants(1)
    for length in (0.5, 1.0, 2.0, 4.0):
        domain = interval(-length / 2.0, length / 2.0)
        grid = build_grid(domain, 1.0 / 128.0)
        lam1 = eig_symmetric(offset_form(grid), 1).eigenvalues[0]
        floor = -c1.volume_coefficient * length
        ok = lam1 >= floor - 1e-10
        if length == 1.0:
            ok = ok and lam1 > 0.0
        yield _check(f"sandwich.interval_L{length:g}", ok,
                     f"discrete lambda_1 = {lam1:.8f}, volume bound = {floor:.8f}"
                     + (", positivity required" if length == 1.0 else ""))


def _suite_weyl(seed: int) -> Iterator[dict]:
    synthetic = spectrum_from_values(2.0 * np.log(np.arange(1, 1001, dtype=float)))
    rep = counting_envelope(synthetic, 0.25, dimension_constants(1))
    yield _check("weyl.synthetic_envelopes",
                 rep.verdicts["upper_decays"] and rep.verdicts["lower_grows"],
                 f"verdicts = {rep.verdicts}")
    rep0 = counting_envelope(synthetic, 0.0, dimension_constants(1))
    vals = [rep0.values[k] for k in ("upper_first_quartile_mean", "upper_last_quartile_mean")]
    yield _check("weyl.synthetic_critical_exponent",
                 all(0.5 <= v <= 1.5 for v in vals),
                 f"critical-exponent quartile means = {[f'{v:.4f}' for v in vals]}")

    domain = interval(-1.0, 1.0)
    grid = build_grid(domain, 1.0 / 512.0)
    spectrum = eig_symmetric(offset_form(grid), 100)
    table = weyl_diagnostics(spectrum)
    window = slice(49, 100)
    # the middle of the 51 sorted ratios; np.median would load numpy.ma
    med = float(np.sort(table["eigenvalue_over_log_k"][window])[25])
    yield _check("weyl.eigenvalue_ratio_window", 0.65 * 2.0 <= med <= 1.35 * 2.0,
                 f"median lambda_k/ln k over k=50..100 = {med:.6f} "
                 f"(target band [1.3, 2.7])")
    ratios = table["partial_sum_ratio"][window]
    increasing = bool(np.all(np.diff(ratios) > -1e-12)) and ratios[-1] > ratios[0]
    yield _check("weyl.partial_sum_ratio_increasing", increasing,
                 f"partial-sum ratio rises {ratios[0]:.6f} -> {ratios[-1]:.6f} "
                 f"toward 2 over k=50..100")


_SUITES = {
    "constants": _suite_constants,
    "roots": _suite_roots,
    "symbol": _suite_symbol,
    "bounds": _suite_bounds,
    "sandwich": _suite_sandwich,
    "weyl": _suite_weyl,
}


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed expects a non-negative integer, got {args.seed}")
    checks = [check for name in (_SUITES if args.suite == "all" else [args.suite])
              for check in _SUITES[name](args.seed)]
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "seed": args.seed, "checks": checks, "passed": passed}
    _emit_json(args.out, report)
    if args.out:
        for c in checks:
            print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
        print(f"suite {args.suite}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# sweeps


def _sweep_values(args) -> np.ndarray:
    if args.steps < 1:
        raise ValueError("empty sweep range: --steps must be >= 1")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError("sweep endpoints must be finite")
    if args.parameter in ("radius", "h") and (args.start <= 0.0 or args.stop <= 0.0):
        raise ValueError(f"{args.parameter} sweep needs positive endpoints")
    if args.parameter == "k":
        values = np.sort(np.rint(np.linspace(args.start, args.stop, args.steps)))
        values = values[np.diff(values, prepend=-np.inf) > 0]  # np.unique would load numpy.ma
        if values.size == 0 or values[0] < 1 or values[-1] > 2**53:
            raise ValueError("k sweep needs integer indices from 1 to 2^53, where floats are exact")
        return values.astype(int)
    # descending ranges are fine (h sweeps usually run coarse to fine);
    # geomspace returns the endpoints exactly
    values = np.array([args.start]) if args.steps == 1 else np.geomspace(
        args.start, args.stop, args.steps)
    largest = float(values.max())
    if args.parameter == "h" and largest > MAX_CELL_SIDE:  # refused before the first grid
        raise ValueError(f"cell side must lie in (0, {MAX_CELL_SIDE}], got {largest!r}")
    return values


def _sweep_radius(args, values: np.ndarray) -> tuple[list[str], list[list]]:
    _refuse_unread(args, ("domain", "length", "radius", "side"),
                   "--parameter radius reads no domain: its radii come from the range")
    dim = args.dim if args.dim is not None else 2
    constants = dimension_constants(dim)
    if args.c0 is None and dim != 2:
        raise ValueError("a radius sweep has a default c0 in dimension 2 only: pass --c0")
    header = ["radius", "c0", "lower_volume_term", "upper_large_statement",
              "upper_large_proof", "upper_large_corrected", "upper_large_admissible",
              "upper_small"]
    rows = []
    for radius in values:
        radius = float(radius)
        c0 = args.c0 if args.c0 is not None else ball((0.0, 0.0), radius).minimal_c0()
        # lower bound for any domain inside the enclosing ball of radius 2R
        vol = constants.sphere_measure / dim * (2.0 * radius) ** dim
        lo = lower_bound_smallest(constants, vol).values["volume_term"]
        stmt = upper_bound_smallest_large(constants, radius, c0, variant="statement")
        proof = upper_bound_smallest_large(constants, radius, c0, variant="proof")
        corr = upper_bound_smallest_large(constants, radius, c0, variant="corrected")
        small = (upper_bound_smallest_small(constants, radius, c0).values["upper_bound"]
                 if radius < 0.25 else math.nan)
        rows.append([radius, c0, lo, stmt.values["upper_bound"], proof.values["upper_bound"],
                     corr.values["upper_bound"], int(stmt.admissible["upper_bound"]), small])
    return header, rows


def _sweep_k(args, values: np.ndarray) -> tuple[list[str], list[list]]:
    domain = _domain_from_args(args)
    constants = dimension_constants(domain.dim)
    header = ["k", "lower_sum_volume_term", "lower_sum_refined", "lower_eigenvalue_refined",
              "upper_sum_statement", "upper_sum_proof"]
    rows = []
    for k in values:
        k = int(k)
        s = lower_bound_sum(constants, domain.volume, k)
        e = lower_bound_eigenvalue(constants, domain.volume, k)
        u1 = upper_bound_sum(constants, domain.volume, k, variant="statement")
        u2 = upper_bound_sum(constants, domain.volume, k, variant="proof")
        rows.append([
            k,
            s.values["volume_term"],
            s.values.get("refined", math.nan),
            e.values.get("refined", math.nan),
            u1.values.get("upper_bound", math.nan),
            u2.values.get("upper_bound", math.nan),
        ])
    return header, rows


def _sweep_h(args, values: np.ndarray, solves: list[dict]) -> tuple[list[str], list[list]]:
    domain = _domain_from_args(args)
    rows = []
    for h in values:
        grid = build_grid(domain, float(h))
        spectrum = eig_symmetric(offset_form(grid), 1)
        solves.append(spectrum.source)
        rows.append([float(h), grid.h, grid.count, spectrum.eigenvalues[0]])
    return ["h_requested", "h_effective", "cells", "lambda_1"], rows


def _cmd_sweep(args) -> int:
    values = _sweep_values(args)
    solves: list[dict] = []
    t0 = time.perf_counter()
    if args.parameter == "radius":
        header, rows = _sweep_radius(args, values)
    else:
        _refuse_unread(args, ("dim", "c0"), f"--parameter {args.parameter} takes the "
                                            "dimension from --domain and reads no c0")
        header, rows = (_sweep_k(args, values) if args.parameter == "k"
                        else _sweep_h(args, values, solves))
    elapsed = time.perf_counter() - t0
    _emit_csv(args.out, header, rows)
    record = {"timings_sec": {"total": elapsed}, "rows": len(rows), "eigensolves": solves}
    _write_manifest(args, record, f"{len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _add_domain(p: _Parser) -> None:
    p.add_argument("--domain", choices=("interval", "box", "ball"))
    p.add_argument("--length", type=float, help="interval length (centered at 0)")
    p.add_argument("--radius", type=float, help="ball radius")
    p.add_argument("--side", help="box side lengths: A for a square or A,B")


def _add_grid(p: _Parser) -> None:
    p.add_argument("--h", type=float, help="grid cell side (snapped to the domain)")
    p.add_argument("--cells", type=int, help="cells along the first axis instead of --h")


def _build_parser() -> _Parser:
    parser = _Parser(prog="loglap", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="print the dimension constants")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("roots", help="solve the scalar root equations")
    p.add_argument("--map", choices=("rlnr", "logratio"), required=True)
    p.add_argument("--target", required=True,
                   help="target value(s), comma-separated")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("bounds", help="closed-form bound report for a domain (JSON)")
    _add_domain(p)
    _add_grid(p)
    p.add_argument("--num-eigs", type=int, help="index k for the sum/eigenvalue bounds")
    p.add_argument("--variant", choices=("statement", "proof", "corrected"),
                   default="statement")
    p.add_argument("--c0", type=float, help="foliation constant (required in dimension 1)")
    p.add_argument("--sigma", type=float,
                   help="also report the ramp test function's Rayleigh quotient "
                        "(needs --h or --cells)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="assemble the form and compute eigenvalues (CSV)")
    _add_domain(p)
    _add_grid(p)
    p.add_argument("--num-eigs", type=int, required=True)
    p.add_argument("--delta", type=float,
                   help="also emit counting-envelope samples at exponents N/2 +- delta")
    p.add_argument("--dump-matrix", help="write the assembled matrix as CSV here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run a self-check suite (JSON report)")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (default 0)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="evaluate bounds/eigenvalues over a parameter range")
    _add_domain(p)
    p.add_argument("--parameter", choices=("radius", "k", "h"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dim", type=int, help="space dimension of a radius sweep (default 2)")
    p.add_argument("--c0", type=float, help="foliation constant of a radius sweep "
                                            "(default: the 2D ball's)")
    p.set_defaults(func=_cmd_sweep)

    for p in sub.choices.values():
        p.add_argument("--config", help="flat key=value file; command-line flags override it")
        p.add_argument("--out", help="output file (CSV or JSON depending on the command)")
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file key=value pairs in as flags, before the explicit ones."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None:
        return argv
    tokens: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        tokens += ["--" + key.replace("_", "-"), value]
    # insert right after the subcommand so explicit flags win (last one parsed)
    return argv[:1] + tokens + argv[1:]


def main(argv: list[str] | None = None) -> int:
    """Run one command; its failures map to the exit codes here and nowhere else."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_expand_config(argv))
        # refused before any work; the envelope CSV and manifest go beside --out
        outputs = {"--out": args.out, "--dump-matrix": getattr(args, "dump_matrix", None)}
        for flag, path in outputs.items():
            if path and not Path(path).parent.is_dir():
                raise ValueError(f"{flag} {path}: directory {Path(path).parent} does not exist")
        return args.func(args)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on a usage error
        return 1 if exc.code else 0
    except (NumericsError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"loglap: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"loglap: error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # e.g. the volume of a ball of radius 1e300
        print(f"loglap: error: a value overflows the float range ({exc.args[-1]})",
              file=sys.stderr)
        return 1
    except MemoryError as exc:  # beyond an address-space limit that physical memory checks miss
        print(f"loglap: error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
