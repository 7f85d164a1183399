"""End-to-end checks of the command-line interface.

Everything drives ``loglap.cli.main`` in process with exit-code assertions,
except a few subprocess runs: a smoke test at the end confirms the module
works the way a shell would invoke it, a Lanczos solve is repeated under two
BLAS thread counts, which are fixed at process start, fresh processes
check that no command loads scipy, numpy.random or numpy.polynomial, a
Rayleigh quotient on a grid too large for a dense matrix measures its own
peak memory, a solve spawned by a large process records its own peak
memory, not its parent's, and an allocation beyond an address-space limit
exits 1.  CSV outputs are parsed back and cross-checked
against the library so the 17-digit formatting contract stays honest.
"""

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import loglap
from loglap.bounds import lower_bound_sum
from loglap.cli import _emit_csv, _fmt, main
from loglap.constants import EULER_GAMMA, DimensionConstants, dimension_constants
from loglap.discretize import assemble_form, build_grid, offset_form
from loglap.geometry import ball, box, interval
from loglap.roots import solve_log_ratio, solve_r_ln_r


def read_csv(path):
    """Split a CLI CSV into (header, rows-of-strings), checking the schema line."""
    lines = path.read_text().splitlines()
    assert lines[0] == "#schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def _child_env(**extra):
    """The environment of a child Python that imports this package's loglap."""
    src = str(Path(loglap.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def column(header, rows, name):
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


# ---------------------------------------------------------------------------
# constants


def test_constants_csv(tmp_path, capsys):
    out = tmp_path / "constants.csv"
    assert main(["constants", "--dim", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["name", "value"]
    table = {name: float(value) for name, value in rows}
    assert table["dim"] == 2
    assert table["kernel_constant"] == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert table["sphere_measure"] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert table["zero_order_shift"] == pytest.approx(
        2.0 * math.log(2.0) - 2.0 * EULER_GAMMA, rel=1e-14)
    assert table["euler_gamma"] == pytest.approx(EULER_GAMMA, rel=1e-16)
    # the human-readable table goes to stdout regardless of --out
    assert "zero_order_shift" in capsys.readouterr().out


def test_constants_rows_are_the_dataclass_fields_in_order(tmp_path):
    out = tmp_path / "constants.csv"
    assert main(["constants", "--dim", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    fields = [f.name for f in dataclasses.fields(DimensionConstants)]
    assert [name for name, _ in rows] == fields + ["euler_gamma"]


def test_constants_errors():
    assert main(["constants", "--dim", "0"]) == 1     # domain error
    assert main(["constants"]) == 1                   # usage error


def test_csv_line_format_renders_every_value_as_fmt(capsys):
    # one %-format per line, built from the values' types, writes the bytes
    # that _fmt writes value by value
    values = [0, -7, np.int64(12), True, 0.0, -0.0, math.inf, -math.inf, math.nan,
              5e-324, -5e-324, 1e308, np.float64(0.1), 1.0 / 3.0, "name"]
    _emit_csv(None, ["v"] * len(values), [values, tuple(values[::-1])])
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [",".join(_fmt(v) for v in row) for row in (values, values[::-1])]


# ---------------------------------------------------------------------------
# roots


def test_roots_csv_rlnr(tmp_path):
    out = tmp_path / "roots.csv"
    targets = f"{-1.0 / math.e!r},{2.0 * math.e!r},732.0"
    # note the --target=... form: a bare leading-minus value looks like a flag
    assert main(["roots", "--map", "rlnr", f"--target={targets}",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["target", "root", "residual",
                      "envelope_low", "envelope_high", "iterations"]
    assert len(rows) == 3
    roots = column(header, rows, "root")
    assert roots[0] == pytest.approx(1.0 / math.e, rel=1e-15)
    assert int(rows[0][header.index("iterations")]) == 0
    assert roots[1] == pytest.approx(3.9543748705520008, rel=1e-12)
    assert np.all(np.abs(column(header, rows, "residual")) <= 1e-9)
    lo = column(header, rows, "envelope_low")
    hi = column(header, rows, "envelope_high")
    assert np.all(lo - 1e-12 <= roots) and np.all(roots <= hi + 1e-12)


def test_roots_csv_logratio(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    assert main(["roots", "--map", "logratio", "--target", "10,100",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    roots = column(header, rows, "root")
    assert roots[0] == pytest.approx(18.452678295918112, rel=1e-12)
    lo = column(header, rows, "envelope_low")
    hi = column(header, rows, "envelope_high")
    assert np.all(lo <= roots) and np.all(roots < hi)
    assert "map=logratio" in capsys.readouterr().out


@pytest.mark.parametrize("solve, name, targets", [
    (solve_r_ln_r, "rlnr", [-0.1, 0.5, 1e6]),
    (solve_log_ratio, "logratio", [8.84, 100.0, 2e305]),
], ids=["rlnr", "logratio"])
def test_roots_solves_its_targets_at_once_as_each_alone(tmp_path, capsys, solve, name, targets):
    # one array call writes the stdout and CSV bytes of one solve per target
    out = tmp_path / "roots.csv"
    assert main(["roots", "--map", name, "--target=" + ",".join(map(repr, targets)),
                 "--out", str(out)]) == 0
    alone = [[field[0] for field in dataclasses.astuple(solve([t]))] for t in targets]
    assert capsys.readouterr().out == "".join(
        f"map={name} target={_fmt(t)}  root={_fmt(root)}  residual={residual:.3e}  "
        f"bracket=[{_fmt(low)}, {_fmt(high)}]\n"
        for t, root, residual, low, high, _ in alone)
    header = "#schema=1\ntarget,root,residual,envelope_low,envelope_high,iterations\n"
    assert out.read_text() == header + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in alone)


def test_roots_errors():
    assert main(["roots", "--map", "rlnr", "--target", "abc"]) == 1
    assert main(["roots", "--map", "rlnr", "--target=-1.0"]) == 1  # below -1/e
    assert main(["roots", "--target", "2.0"]) == 1                    # --map required
    # t ln t overflows from about t = 2.5e305 on; 2e305 still has a finite root
    assert main(["roots", "--map", "logratio", "--target", "1e306"]) == 1
    assert main(["roots", "--map", "logratio", "--target", "2e305"]) == 0


# The roots the scalar solver, which took math.log at every step, wrote for
# these targets.  numpy's log differs from math.log by one ulp on a few
# inputs (17 of 400,000 uniform in [0.3, 1e6] on an AVX-512 machine), so a
# root may move by an ulp or two; near -1/e, where r ln r is flat, several
# floats are exact roots, and the residual tests hold those instead.
_SCALAR_SOLVER_ROOTS = {
    "rlnr": ("-0.36,-0.25,-0.1,0,0.5,2.718281828459045,10,1000,1e6,1e100,1e300",
             [0.44660340471508808, 0.69949057688577199, 0.89419396955636399, 1.0,
              1.4215299358831166, 2.7182818284590451, 5.7289255653869411,
              190.49060054943365, 87847.539577759773, 4.4475457389399126e+97,
              1.4614601088436296e+297]),
    "logratio": ("8.9,10,100,10000,1e6,1e100,1e300",
                 [15.37371938714649, 18.452678295918112, 425.2097529200899,
                  89702.69461084879, 13628721.686028134, 2.3023506041800022e+102,
                  6.9076609431207562e+302]),
}


@pytest.mark.parametrize("map_name", _SCALAR_SOLVER_ROOTS)
def test_roots_csv_within_4_ulps_of_the_scalar_solver(tmp_path, map_name):
    targets, before = _SCALAR_SOLVER_ROOTS[map_name]
    out = tmp_path / "roots.csv"
    assert main(["roots", "--map", map_name, f"--target={targets}", "--out", str(out)]) == 0
    roots = column(*read_csv(out), "root")
    assert np.all(np.abs(roots - before) <= 4.0 * np.spacing(before))


# ---------------------------------------------------------------------------
# solve


def test_solve_csv_and_manifest(tmp_path):
    out = tmp_path / "solve.csv"
    assert main(["solve", "--domain", "interval", "--length", "2",
                 "--cells", "64", "--num-eigs", "8", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "lambda", "lambda_over_log_k",
                      "partial_sum", "partial_sum_over_k_log_k"]
    assert len(rows) == 8
    ks = column(header, rows, "k")
    assert np.array_equal(ks, np.arange(1, 9))
    lam = column(header, rows, "lambda")
    assert np.all(np.diff(lam) >= 0.0)               # ascending spectrum
    # the k = 1 ratio columns are undefined (ln 1 = 0) and rendered as nan
    assert rows[0][header.index("lambda_over_log_k")] == "nan"
    psum = column(header, rows, "partial_sum")
    assert psum == pytest.approx(np.cumsum(lam), rel=1e-15)

    manifest = json.loads((tmp_path / "solve.json").read_text())
    assert manifest["command"] == "solve"
    # config is the parsed command line: every flag solve parses, given or not
    assert set(manifest["config"]) == {"domain", "length", "radius", "side", "h", "cells",
                                       "num_eigs", "delta", "dump_matrix", "config", "out"}
    assert manifest["config"]["cells"] == 64 and manifest["config"]["h"] is None
    assert set(manifest["grid"]) == {"dim", "h_requested", "h_effective", "cells"}
    assert manifest["grid"]["dim"] == 1 and manifest["grid"]["cells"] == 64
    assert manifest["grid"]["h_effective"] == pytest.approx(2.0 / 64.0, rel=1e-15)
    assert manifest["results"]["lambda_1"] == lam[0]
    assert manifest["timings_sec"]["total"] > 0.0
    assert manifest["eigensolve"] == {
        "cells": 64, "sectors": [32, 32], "solvers": ["lapack", "lapack"], "matvecs": 0,
        "restarts": [[], []], "reorthogonalized": [[], []], "max_residual": None}
    assert manifest["peak_rss_mb"] > 0.0


def test_manifest_peak_rss_is_the_process_own(tmp_path):
    # a 64-cell solve spawned by a process holding 400 MB: Linux's ru_maxrss
    # starts at the parent's peak there and read about 409 MB
    parent = (
        "import subprocess, sys\n"
        "held = b'\\x01' * (400 << 20)\n"
        "sys.exit(subprocess.run([sys.executable, '-m', 'loglap.cli', *sys.argv[1:]]).returncode)\n"
    )
    out = tmp_path / "solve.csv"
    proc = subprocess.run(
        [sys.executable, "-c", parent, "solve", "--domain", "interval", "--length", "2",
         "--cells", "64", "--num-eigs", "8", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < json.loads(out.with_suffix(".json").read_text())["peak_rss_mb"] < 100.0


def test_solve_rerun_is_byte_identical(tmp_path):
    args = ["solve", "--domain", "interval", "--length", "2",
            "--cells", "48", "--num-eigs", "6", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_usage_errors(tmp_path, capsys):
    base = ["solve", "--domain", "interval", "--length", "2"]
    assert main(base + ["--cells", "8", "--num-eigs", "20"]) == 1   # k > cells
    assert main(base + ["--num-eigs", "4"]) == 1                    # no --h/--cells
    assert main(base + ["--h", "0.25", "--cells", "8",
                        "--num-eigs", "4"]) == 1                    # both given
    assert main(base + ["--cells", "8"]) == 1                       # --num-eigs required
    assert main(["solve", "--cells", "8", "--num-eigs", "2"]) == 1  # no domain
    capsys.readouterr()
    square = ["solve", "--domain", "box", "--cells", "4", "--num-eigs", "2", "--side"]
    for argv, message in (
        (square + ["1,x"], "--side expects comma-separated numbers, got '1,x'"),
        (square + ["1,0"], "--side lengths must be positive, got '1,0'"),
        (square + ["1,2,3"], "boxes are two-dimensional: --side A or --side A,B"),
        (base + ["--cells", "0", "--num-eigs", "2"], "--cells must be >= 1, got 0"),
        (base + ["--cells", "8", "--num-eigs", "0"], "--num-eigs must be >= 1"),
        (["solve", "--domain", "interval", "--length", "-2", "--cells", "8", "--num-eigs", "2"],
         "--length must be positive, got -2.0"),
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"loglap: error: {message}\n", argv


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--domain", "ball", "--radius", "6", "--h", "0.125", "--num-eigs", "300",
      "--out", "{missing}/run.csv"], "--out"),
    (["solve", "--domain", "ball", "--radius", "6", "--h", "0.125", "--num-eigs", "300",
      "--out", "{tmp}/run.csv", "--dump-matrix", "{missing}/matrix.csv"], "--dump-matrix"),
    (["bounds", "--domain", "ball", "--radius", "6", "--h", "0.125", "--sigma", "1",
      "--out", "{missing}/bounds.json"], "--out"),
], ids=["solve-out", "solve-dump-matrix", "bounds-sigma-out"])
def test_output_in_a_missing_directory_is_refused_before_any_work(argv, flag, monkeypatch,
                                                                   tmp_path, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built before the refusal")

    monkeypatch.setattr("loglap.cli.build_grid", no_grid)
    missing = tmp_path / "missing"
    assert main([a.format(tmp=tmp_path, missing=missing) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"loglap: error: {flag} {missing}/")
    assert err.endswith(f": directory {missing} does not exist\n")
    assert list(tmp_path.iterdir()) == []


def test_solve_refuses_matrix_larger_than_memory(tmp_path, capsys):
    # 2,000,000 cells: the dense matrix would need 29 TiB.  A few eigenvalues
    # are served without it; the paths that need it refuse before any output.
    grid = ["--domain", "interval", "--length", "1000000", "--h", "0.5"]
    assert main(["solve", *grid, "--num-eigs", "200001"]) == 1   # above n/10: LAPACK
    assert "LAPACK's copy" in capsys.readouterr().err
    assert main(["solve", *grid, "--num-eigs", "1", "--out", str(tmp_path / "run.csv"),
                 "--dump-matrix", str(tmp_path / "matrix.csv")]) == 1
    assert "a dense 2000000 x 2000000 matrix" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_refuses_lattice_larger_than_memory(monkeypatch, capsys):
    # h = 1e-5 on a side-2 box: the bounding box's lattice has 4e10 cells,
    # whose build would peak at terabytes; it is refused before anything is
    # allocated, here with 1 GiB of memory
    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    assert main(["solve", "--domain", "box", "--side", "2", "--h", "1e-5",
                 "--num-eigs", "1"]) == 1
    assert "a lattice of 40000000000 cells needs" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    ["--domain", "interval", "--length", "2", "--h", "1e-308"],
    ["--domain", "ball", "--radius", "1e300", "--h", "0.5"],
], ids=["tiny-cell", "huge-radius"])
def test_solve_refuses_a_lattice_beyond_its_index_range(grid, capsys):
    # lattices of infinitely many or about 1.6e601 cells: refused with a
    # message before any size in bytes is formatted or anything allocated
    tracemalloc.start()
    try:
        assert main(["solve", *grid, "--num-eigs", "1"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "a lattice of more than 2^63 cells" in capsys.readouterr().err
    assert peak <= 2**20


def test_solve_refuses_eigensolve_larger_than_memory(monkeypatch, capsys):
    # 64 cells: the matrix takes 32 KiB; the eigensolve runs on a 32 x 32 block
    # at a time and needs the block plus LAPACK's copy, 16 KiB.  48 KiB of
    # memory, where the whole matrix plus its copy (64 KiB) did not fit, serves
    # the solve; 12 KiB, where only the block fits, does not, but serves the
    # Rayleigh quotient, which is one matvec
    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 12, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    grid = ["--domain", "interval", "--length", "2", "--cells", "64"]
    assert main(["solve", *grid, "--num-eigs", "1"]) == 0
    assert capsys.readouterr().out.startswith("#schema=1\n")
    fake["SC_PHYS_PAGES"] = 3
    assert main(["solve", *grid, "--num-eigs", "1"]) == 1
    assert "32 x 32 block plus LAPACK's copy" in capsys.readouterr().err
    assert main(["bounds", *grid, "--sigma", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["rayleigh"]["cells"] == 64


def test_solve_refuses_lanczos_bases_larger_than_memory(monkeypatch, tmp_path, capsys):
    # the 2,048-cell interval at k = 10: each 1,024-cell sector runs Lanczos
    # for 7 values on 21 basis vectors, 344,064 bytes for the two; 256 KiB
    # holds the grid and the table, and the bases are refused before any
    # of them is allocated or any output written
    argv = ["solve", "--domain", "interval", "--length", "2", "--cells", "2048",
            "--num-eigs", "10", "--out", str(tmp_path / "run.csv")]
    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "loglap: error: a round of 2 Lanczos bases needs" in err and "physical memory" in err
    assert "needs 336.0 KiB, more than the 256.0 KiB of physical memory" in err
    assert list(tmp_path.iterdir()) == []
    # the same 256 KiB as a soft address-space limit, beside the machine's
    # physical memory: past the limit numpy would fail only after the work
    # before the bases
    monkeypatch.setattr(os, "sysconf", real_sysconf)
    real_getrlimit = resource.getrlimit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        (256 << 10, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS
        else real_getrlimit(which)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "loglap: error: a round of 2 Lanczos bases needs" in err
    assert "address-space limit" in err
    assert "needs 336.0 KiB, more than the 256.0 KiB address-space limit" in err
    assert list(tmp_path.iterdir()) == []


def test_bounds_refuses_a_circulant_larger_than_memory(monkeypatch, tmp_path, capsys):
    # the R = 6, h = 1/8 ball: its 96 x 96 lattice and 94 x 94 table fit in
    # 512 KiB, but the first matvec's 192 x 192 circulant needs
    # 40 * 192 * 97 + 16 * 192 = 748,032 bytes for its symbol, two complex
    # half spectra and one FFT line
    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 128, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    assert main(["bounds", "--domain", "ball", "--radius", "6", "--h", "0.125",
                 "--sigma", "1", "--out", str(tmp_path / "bounds.json")]) == 1
    assert "loglap: error: the 192 x 192 circulant needs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_overflow_in_config_expansion_exits_1(monkeypatch, capsys):
    # every failure of main, config expansion included, goes through one map
    # to exit codes: an overflow there exits 1 with the overflow message
    def overflow(argv):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr("loglap.cli._expand_config", overflow)
    assert main(["constants", "--dim", "2"]) == 1
    assert capsys.readouterr().err == ("loglap: error: a value overflows the float range "
                                       "(Numerical result out of range)\n")


def test_out_of_memory_exits_1_without_a_traceback():
    # a sweep of 4e8 values needs 3 GiB for the values alone, within physical
    # memory but beyond a 1.5 GiB address-space limit: numpy's MemoryError
    # exits 1 with one error line
    limit = (1536 << 20,) * 2
    proc = subprocess.run(
        [sys.executable, "-m", "loglap.cli", "sweep", "--parameter", "k", "--start", "1",
         "--stop", "3", "--steps", "400000000"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert proc.returncode == 1
    assert proc.stderr.startswith("loglap: error: out of memory (Unable to allocate")
    assert "Traceback" not in proc.stderr


def test_few_eigenvalues_need_no_dense_matrix(monkeypatch, tmp_path):
    # 2048 cells: the matrix takes 32 MiB and the solve on its even and odd
    # blocks 16 MiB; with 8 MiB of memory the dense paths refuse, and a k
    # whose share of each 1,024-cell sector is small is solved by Lanczos on
    # the matvec
    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 2048, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    grid = ["--domain", "interval", "--length", "2", "--cells", "2048"]
    out = tmp_path / "run.csv"
    assert main(["solve", *grid, "--num-eigs", "10", "--out", str(out)]) == 0
    record = json.loads((tmp_path / "run.json").read_text())["eigensolve"]
    # the whole record: the spectrum's source, which a new key would change
    assert set(record) == {"cells", "sectors", "solvers", "matvecs", "restarts",
                           "reorthogonalized", "max_residual"}
    assert record["cells"] == 2048 and record["solvers"] == ["lanczos", "lanczos"]
    # the even and odd sectors, each solved once and stepped on shared matvecs
    assert record["sectors"] == [1024, 1024]
    assert [len(solves) for solves in record["restarts"]] == [1, 1]
    assert [len(solves) for solves in record["reorthogonalized"]] == [1, 1]
    assert record["matvecs"] > 10 and 0.0 <= record["max_residual"] <= 1e-13
    # 512 eigenvalues ask 296 of each sector, which LAPACK solves on its block
    assert main(["solve", *grid, "--num-eigs", "512"]) == 1
    assert main(["solve", *grid, "--num-eigs", "1", "--dump-matrix", str(tmp_path / "m.csv")]) == 1
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--parameter", "h", "--domain", "interval", "--length", "2",
                 "--start", str(2 / 2048), "--stop", str(2 / 2048), "--steps", "1",
                 "--out", str(sweep)]) == 0
    solves = json.loads((tmp_path / "sweep.json").read_text())["eigensolves"]
    assert [(s["cells"], s["solvers"]) for s in solves] == [(2048, ["lanczos", "lanczos"])]


def test_lanczos_failure_exits_2(monkeypatch, capsys):
    # with no restart allowed, the first 20-vector Lanczos basis of the even
    # sector does not reach the convergence test (it takes one restart; the
    # odd sector's pairs are certified above lambda_1 at the first check)
    monkeypatch.setattr("loglap.spectrum._LANCZOS_MAX_RESTARTS", 0)
    assert main(["solve", "--domain", "interval", "--length", "2", "--cells", "2048",
                 "--num-eigs", "1"]) == 2
    assert "loglap: numerical failure: Lanczos did not converge" in capsys.readouterr().err


def test_failed_lanczos_certificate_exits_2(monkeypatch, capsys):
    # a ledger bound of -inf certifies every open pair at the first restart:
    # the merge then needs values that did not converge
    monkeypatch.setattr("loglap.spectrum._Ledger.post", lambda self, place, values: -math.inf)
    assert main(["solve", "--domain", "interval", "--length", "2", "--cells", "2048",
                 "--num-eigs", "10"]) == 2
    assert "certified above the k-th eigenvalue" in capsys.readouterr().err


def test_solve_fewer_than_three_eigenvalues(tmp_path):
    base = ["solve", "--domain", "interval", "--length", "2", "--cells", "64"]
    for k in (1, 2):
        out = tmp_path / f"k{k}.csv"
        assert main(base + ["--num-eigs", str(k), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == k
        assert rows[0][header.index("lambda_over_log_k")] == "nan"
        assert rows[0][header.index("partial_sum_over_k_log_k")] == "nan"
    # the envelope diagnostics need at least three eigenvalues
    assert main(base + ["--num-eigs", "2", "--delta", "0.1"]) == 1


def test_solve_rejects_negative_or_nonfinite_delta(tmp_path):
    # a negative delta would swap the envelope columns; nan and inf fill them
    # with nan, 0 or inf: each exits 1 before any CSV is written
    base = ["solve", "--domain", "interval", "--length", "2", "--cells", "64",
            "--num-eigs", "12"]
    for bad in ("-0.25", "nan", "inf"):
        out = tmp_path / "run.csv"
        assert main(base + [f"--delta={bad}", "--out", str(out)]) == 1, bad
        assert list(tmp_path.iterdir()) == [], bad


def test_solve_checks_delta_before_the_eigensolve(monkeypatch, tmp_path):
    # an invalid --delta, or --delta with fewer than three eigenvalues, is
    # refused before any eigensolve runs, not after it
    def no_solve(*args, **kwargs):
        raise AssertionError("eig_symmetric ran for a request that cannot be served")

    monkeypatch.setattr("loglap.cli.eig_symmetric", no_solve)
    base = ["solve", "--domain", "interval", "--length", "2", "--cells", "64",
            "--out", str(tmp_path / "run.csv")]
    for flags in (["--num-eigs", "12", "--delta=-1"], ["--num-eigs", "12", "--delta=nan"],
                  ["--num-eigs", "12", "--delta=inf"], ["--num-eigs", "2", "--delta", "0.1"]):
        assert main(base + flags) == 1, flags
        assert list(tmp_path.iterdir()) == [], flags


def test_solve_refuses_more_eigenvalues_than_cells_before_the_table(monkeypatch, tmp_path,
                                                                   capsys):
    # --num-eigs above the cell count is refused right after the grid is
    # built: no offset table, no dumped matrix and no output file
    def no_form(*args, **kwargs):
        raise AssertionError("the offset table was built for a request that cannot be served")

    monkeypatch.setattr("loglap.cli.offset_form", no_form)
    assert main(["solve", "--domain", "ball", "--radius", "6", "--h", "0.125",
                 "--num-eigs", "8000", "--out", str(tmp_path / "run.csv"),
                 "--dump-matrix", str(tmp_path / "matrix.csv")]) == 1
    assert "--num-eigs 8000 exceeds the grid's 7020 cells" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lanczos_solve_is_independent_of_blas_threads(tmp_path):
    # the same Lanczos solve under 1 and 2 OpenBLAS threads writes the same
    # bytes, on two sectors in 1D and on four in 2D
    for name, grid, sectors in [
        ("interval", ["--domain", "interval", "--length", "2", "--cells", "2048",
                      "--num-eigs", "10"], 2),
        ("ball", ["--domain", "ball", "--radius", "4", "--h", "0.125", "--num-eigs", "60"], 4),
    ]:
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-c",
                 "from loglap.cli import main; import sys; sys.exit(main(sys.argv[1:]))",
                 "solve", *grid, "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env=_child_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            record = json.loads(out.with_suffix(".json").read_text())["eigensolve"]
            assert record["solvers"] == ["lanczos"] * sectors
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], name


def test_lanczos_solve_with_empty_sectors_matches_lapack_on_the_blocks(tmp_path):
    # a 1 x 2,048 box: every cell lies on the first axis's mirror line, so
    # the two sign patterns with -1 on it have no cell and Lanczos runs on
    # the other two
    out = tmp_path / "strip.csv"
    assert main(["solve", "--domain", "box", "--side", "0.0625,128", "--h", "0.0625",
                 "--num-eigs", "10", "--out", str(out)]) == 0
    record = json.loads(out.with_suffix(".json").read_text())["eigensolve"]
    assert record["sectors"] == [1024, 1024, 0, 0]
    assert record["solvers"] == ["lanczos", "lanczos", "lapack", "lapack"]
    assert record["restarts"][2:] == [[], []]
    form = offset_form(build_grid(box((0.0, 0.0), (0.0625, 128.0)), 0.0625))
    blocks = [form.block(i) for i in range(len(form.sectors.counts))]
    lapack = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[:10]
    lapack /= form.mass_scale
    lam = column(*read_csv(out), "lambda")
    assert np.max(np.abs(lam - lapack) / np.abs(lapack)) <= 1e-12


def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency, and no command loads numpy.random,
    # numpy.polynomial or numpy.ma, which importing numpy does not: neither
    # importing the CLI nor a Lanczos solve, a LAPACK solve, a Rayleigh
    # quotient, a k sweep or the verify suites leaves one behind
    script = (
        "import sys\n"
        "import loglap.cli\n"
        "code = loglap.cli.main(sys.argv[1:])\n"
        "banned = ('scipy', 'numpy.random', 'numpy.polynomial', 'numpy.ma')\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == b or m.startswith(b + '.') for b in banned)))\n"
        "sys.exit(code)\n"
    )
    interval = ["--domain", "interval", "--length", "2"]
    commands = {
        "lanczos": ["solve", *interval, "--cells", "2048", "--num-eigs", "10"],
        "lapack": ["solve", *interval, "--cells", "64", "--num-eigs", "10"],
        "rayleigh": ["bounds", "--domain", "ball", "--radius", "1", "--h", "0.125",
                     "--sigma", "0.5"],
        "verify": ["verify", "--suite", "all"],
        "sweep": ["sweep", "--parameter", "k", "--domain", "interval", "--length", "2",
                  "--start", "1", "--stop", "20", "--steps", "5"],
    }
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                              capture_output=True, text=True, timeout=300, env=_child_env())
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "[]", name
        if argv[0] == "solve":
            solvers = json.loads(out.with_suffix(".json").read_text())["eigensolve"]["solvers"]
            assert solvers == [name, name]


def test_solve_dump_matrix_and_envelope(tmp_path):
    out = tmp_path / "spec.csv"
    mat = tmp_path / "matrix.csv"
    assert main(["solve", "--domain", "interval", "--length", "2",
                 "--cells", "16", "--num-eigs", "12", "--delta", "0.1",
                 "--dump-matrix", str(mat), "--out", str(out)]) == 0

    header, rows = read_csv(mat)
    assert header == [f"col{j}" for j in range(16)]
    entries = np.array([[float(v) for v in r] for r in rows])
    assert entries.shape == (16, 16)
    assert np.array_equal(entries, entries.T)

    env = tmp_path / "spec_envelope.csv"
    header, rows = read_csv(env)
    assert header == ["t", "upper_envelope", "lower_envelope"]
    assert len(rows) == 201
    t = column(header, rows, "t")
    assert np.all(np.diff(t) > 0.0)
    assert np.all(column(header, rows, "upper_envelope") >= 0.0)


@pytest.mark.parametrize("argv, grid", [
    (["--domain", "ball", "--radius", "1", "--h", "0.25"],
     build_grid(ball((0.0, 0.0), 1.0), 0.25)),
    (["--domain", "interval", "--length", "2", "--cells", "24"],
     build_grid(interval(-1.0, 1.0), 2.0 / 24)),
], ids=["ball", "interval"])
def test_dump_matrix_parses_back_to_the_assembled_matrix(tmp_path, monkeypatch, argv, grid):
    # 17 significant digits carry every double: the dump is the matrix, bit
    # for bit, gathered from the one offset table that the solve builds
    builds = []
    for name in ("_offset_table_2d", "_entry_row_1d"):
        build = getattr(loglap.discretize, name)
        monkeypatch.setattr(loglap.discretize, name,
                            lambda *a, build=build: builds.append(a) or build(*a))
    mat = tmp_path / "matrix.csv"
    assert main(["solve", *argv, "--num-eigs", "2", "--out", str(tmp_path / "run.csv"),
                 "--dump-matrix", str(mat)]) == 0
    assert len(builds) == 1
    header, rows = read_csv(mat)
    assert header == [f"col{j}" for j in range(grid.count)]
    assert np.array_equal(np.array([[float(v) for v in r] for r in rows]),
                          assemble_form(offset_form(grid)))


def test_dump_matrix_holds_the_matrix_and_one_line(tmp_path):
    # 732 cells: the matrix is 4.1 MiB, the 8*n*n bytes the memory refusal
    # counts.  The dump writes it a line at a time and peaks at about 5.5 MiB;
    # a copy of it as Python lists and one string of the whole file took the
    # peak to about 57 MiB
    n = 732
    matrix = tmp_path / "matrix.csv"
    argv = ["solve", "--domain", "ball", "--radius", "2", "--h", "0.125", "--num-eigs", "5",
            "--out", str(tmp_path / "run.csv"), "--dump-matrix", str(matrix)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 2 * 2**20
    with open(matrix) as fh:
        assert sum(1 for _ in fh) == 2 + n


def test_solve_tiling_error_names_plain_numbers(capsys):
    assert main(["solve", "--domain", "box", "--side", "1,0.3", "--h", "0.25",
                 "--num-eigs", "1"]) == 1
    err = capsys.readouterr().err
    assert "cannot tile the bounding box sides (1.0, 0.3)" in err and "np." not in err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json_interval(capsys):
    assert main(["bounds", "--domain", "interval", "--length", "2",
                 "--num-eigs", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["domain"] == {"kind": "interval", "dim": 1,
                                 "volume": 2.0, "inradius": 1.0}
    assert payload["c0"] is None                      # no foliation constant in 1d
    reports = payload["reports"]
    assert set(reports) == {"lower_smallest", "lower_sum",
                            "lower_eigenvalue", "upper_sum"}
    refined = lower_bound_sum(dimension_constants(1), 2.0, 30).values["refined"]
    assert reports["lower_sum"]["values"]["refined"] == pytest.approx(refined, rel=1e-15)
    assert reports["upper_sum"]["admissible"]["upper_bound"] is True


def test_bounds_json_ball_with_rayleigh(tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--domain", "ball", "--radius", "4",
                 "--sigma", "1.0", "--cells", "20", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["c0"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert "upper_large" in payload["reports"]
    assert "upper_small" not in payload["reports"]    # inradius >= 1/4
    ray = payload["rayleigh"]
    assert ray["h"] == pytest.approx(0.4, rel=1e-15)
    assert ray["cells"] > 0
    # the quotient is an upper bound for lambda_1, which the volume bound floors
    floor = payload["reports"]["lower_smallest"]["values"]["volume_term"]
    assert floor <= ray["quotient"] < 25.0


def test_bounds_rayleigh_never_forms_the_matrix(monkeypatch, capsys):
    def no_gather(*args, **kwargs):
        raise AssertionError("bounds --sigma gathered the dense matrix")

    monkeypatch.setattr("loglap.discretize._gather", no_gather)
    assert main(["bounds", "--domain", "ball", "--radius", "2", "--h", "0.125",
                 "--sigma", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["rayleigh"]["cells"] == 732


def test_bounds_rayleigh_on_a_grid_too_large_for_a_dense_matrix(tmp_path):
    # 50,920 cells: the dense matrix would need 19.3 GiB; the quotient takes
    # about 51 MB peak RSS in a fresh process.  On Linux a child's ru_maxrss
    # starts at its parent's peak (exec keeps the replaced address space's
    # high-water mark), which in this test process can be several hundred MB,
    # so the child reads its own VmHWM where there is one
    script = (
        "import resource, sys\n"
        "from loglap.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        peak = [int(line.split()[1]) for line in status if line.startswith('VmHWM:')]\n"
        "except OSError:\n"
        "    peak = []\n"
        "# KiB from VmHWM and from Linux's ru_maxrss, bytes from macOS's\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak[0] if peak else rss / 1024 if sys.platform == 'darwin' else rss)\n"
        "sys.exit(code)\n"
    )
    out = tmp_path / "bounds.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, "bounds", "--domain", "ball", "--radius", "16",
         "--h", "0.125", "--sigma", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["rayleigh"]["cells"] == 50920
    assert float(proc.stdout.splitlines()[-1]) / 1024 < 150.0  # MiB


def test_bounds_small_box_reports_exact_c0(capsys):
    # inradius 1/4 is the small regime; the sheets peak at 4, so c0 = 4 / (1/4)
    assert main(["bounds", "--domain", "box", "--side", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] == 16.0
    assert payload["reports"]["upper_large"]["admissible"]["upper_bound"] is False


def test_bounds_box_outside_the_sandwich_has_no_default_c0(capsys):
    # aspect ratio 2 > sqrt(3): no balls of radii R and 2R enclose the box, so
    # c0 is undefined; the volume bounds and the sum bound need none
    assert main(["bounds", "--domain", "box", "--side", "1,2", "--num-eigs", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] is None
    assert set(payload["reports"]) == {"lower_smallest", "lower_sum",
                                       "lower_eigenvalue", "upper_sum"}
    # an explicit --c0 still gets both upper reports (inradius 0.1 < 1/4)
    assert main(["bounds", "--domain", "box", "--side", "0.2,0.4", "--c0", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] == 3.0
    assert {"upper_large", "upper_small"} <= set(payload["reports"])


def test_bounds_refuses_the_corrected_variant_with_the_sum_bound(monkeypatch, capsys):
    # --variant applies to the smallest-eigenvalue bound and, with --num-eigs,
    # to the sum bound too, which has no 'corrected' variant
    assert main(["bounds", "--domain", "ball", "--radius", "4", "--variant", "corrected"]) == 0
    capsys.readouterr()

    def no_bound(*args, **kwargs):
        raise AssertionError("a bound was computed before the refusal")

    monkeypatch.setattr("loglap.cli.lower_bound_smallest", no_bound)
    assert main(["bounds", "--domain", "ball", "--radius", "4", "--num-eigs", "30",
                 "--variant", "corrected"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the sum bound of --num-eigs has only the variants 'statement' and 'proof'" \
        in captured.err


def test_bounds_refuses_grid_flags_without_sigma(monkeypatch, capsys):
    # --h and --cells set the grid of the Rayleigh quotient alone
    def no_bound(*args, **kwargs):
        raise AssertionError("a bound was computed before the refusal")

    monkeypatch.setattr("loglap.cli.lower_bound_smallest", no_bound)
    for flag, value in (("--h", "0.125"), ("--cells", "16")):
        assert main(["bounds", "--domain", "ball", "--radius", "4", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "without --sigma nothing reads them" in captured.err


@pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
def test_bounds_refuses_a_bad_sigma_before_building_the_grid(monkeypatch, capsys, sigma):
    # --sigma is checked before the grid and its offset table are built
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built before the refusal")

    monkeypatch.setattr("loglap.cli.build_grid", no_grid)
    assert main(["bounds", "--domain", "ball", "--radius", "4", "--h", "0.125",
                 f"--sigma={sigma}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma must be positive and finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "interval", "--length", "2", "--cells", "8", "--num-eigs", "2"],
    ["bounds", "--domain", "interval", "--length", "2"],
], ids=["solve", "bounds"])
def test_dim_belongs_to_constants_and_sweep(argv, capsys):
    # the domain fixes the dimension of a solve or a bound report
    assert main([*argv, "--dim", "1"]) == 1
    assert "unrecognized arguments: --dim 1" in capsys.readouterr().err


def test_bounds_domain_required():
    assert main(["bounds", "--length", "2"]) == 1
    assert main(["bounds", "--domain", "ball"]) == 1  # --radius missing


# ---------------------------------------------------------------------------
# verify


def test_verify_constants_suite(capsys):
    assert main(["verify", "--suite", "constants"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["checks"]) == 4
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("wrong", [
    lambda c: dataclasses.replace(c, kernel_constant=2.0),
    lambda c: dataclasses.replace(c, zero_order_shift=c.zero_order_shift + 1e-6),
    lambda c: dataclasses.replace(c, kernel_constant=1.0 + 1e-7),
], ids=["c1-doubled", "rho1-shifted", "c1-nudged"])
def test_symbol_suite_fails_on_wrong_one_dimensional_constants(wrong, monkeypatch, capsys):
    # the closed-form symbol reads c_1 and rho_1 from dimension_constants(1):
    # a wrong kernel constant or zero-order shift fails the suite
    def wrong_in_one_dimension(n):
        c = dimension_constants(n)
        return wrong(c) if n == 1 else c

    monkeypatch.setattr("loglap.discretize.dimension_constants", wrong_in_one_dimension)
    assert main(["verify", "--suite", "symbol"]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_all(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "all"
    assert report["passed"] is True
    assert len(report["checks"]) == 23
    console = capsys.readouterr().out
    assert "suite all: pass" in console
    assert "FAIL" not in console


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_small_radius_log_slope(tmp_path):
    out = tmp_path / "small.csv"
    assert main(["sweep", "--parameter", "radius", "--start", "0.01",
                 "--stop", "0.2", "--steps", "12", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["radius", "c0", "lower_volume_term", "upper_large_statement",
                      "upper_large_proof", "upper_large_corrected",
                      "upper_large_admissible", "upper_small"]
    radius = column(header, rows, "radius")
    small = column(header, rows, "upper_small")
    assert np.all(np.isfinite(small))
    # default c0 in the small regime is 4*pi for every radius
    assert column(header, rows, "c0") == pytest.approx(4.0 * math.pi, rel=1e-12)
    # the small-inradius bound is 4 ln(1/R) + const: slope -4 against ln R
    slope = np.polyfit(np.log(radius), small, 1)[0]
    assert abs(slope + 4.0) <= 0.04


def test_sweep_large_radius_columns(tmp_path):
    out = tmp_path / "large.csv"
    assert main(["sweep", "--parameter", "radius", "--start", "2",
                 "--stop", "32", "--steps", "9", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    statement = column(header, rows, "upper_large_statement")
    proof = column(header, rows, "upper_large_proof")
    lower = column(header, rows, "lower_volume_term")
    assert np.all(statement <= proof)
    assert np.all(lower <= statement)
    assert column(header, rows, "upper_large_admissible") == pytest.approx(1.0)
    assert np.all(np.isnan(column(header, rows, "upper_small")))
    # Near the admissibility edge the 1/R collar term still moves the bound, so
    # the fitted log-slope here is steeper than the asymptotic -2*pi (it is
    # about -11.1 over R = 2..32); the clean slope only shows up further out.
    slope = np.polyfit(np.log(column(header, rows, "radius")), statement, 1)[0]
    assert -11.5 < slope < -10.7

    far = tmp_path / "far.csv"
    assert main(["sweep", "--parameter", "radius", "--start", "32",
                 "--stop", "512", "--steps", "5", "--out", str(far)]) == 0
    header, rows = read_csv(far)
    slope = np.polyfit(np.log(column(header, rows, "radius")),
                       column(header, rows, "upper_large_statement"), 1)[0]
    assert abs(slope + 2.0 * math.pi) <= 0.05 * 2.0 * math.pi


def test_sweep_k(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["sweep", "--parameter", "k", "--domain", "interval",
                 "--length", "2", "--start", "5", "--stop", "40",
                 "--steps", "8", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    ks = column(header, rows, "k")
    assert np.array_equal(ks, np.arange(5.0, 41.0, 5.0))
    refined = column(header, rows, "lower_sum_refined")
    assert np.all(np.isnan(refined[ks < 27]))         # below the volume threshold
    assert np.all(np.isfinite(refined[ks >= 27]))
    upper = column(header, rows, "upper_sum_statement")
    both = np.isfinite(refined) & np.isfinite(upper)
    assert np.all(refined[both] <= upper[both])


def test_sweep_h(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["sweep", "--parameter", "h", "--domain", "interval",
                 "--length", "2", "--start", "0.125", "--stop", "0.015625",
                 "--steps", "4", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["h_requested", "h_effective", "cells", "lambda_1"]
    cells = column(header, rows, "cells")
    assert np.array_equal(cells, [16.0, 32.0, 64.0, 128.0])
    lam1 = column(header, rows, "lambda_1")
    assert np.all(np.diff(lam1) <= 1e-12)             # refinement never increases it
    manifest = json.loads((tmp_path / "h.json").read_text())
    assert set(manifest["config"]) == {"domain", "length", "radius", "side", "parameter",
                                       "start", "stop", "steps", "dim", "c0", "config", "out"}
    assert manifest["config"]["parameter"] == "h" and manifest["config"]["steps"] == 4
    assert manifest["eigensolves"] == [
        {"cells": c, "sectors": [c // 2, c // 2], "solvers": ["lapack", "lapack"], "matvecs": 0,
         "restarts": [[], []], "reorthogonalized": [[], []], "max_residual": None}
        for c in (16, 32, 64, 128)]
    assert manifest["peak_rss_mb"] > 0.0


def test_sweep_range_errors(tmp_path):
    base = ["sweep", "--parameter", "radius", "--out", str(tmp_path / "x.csv")]
    assert main(base + ["--start", "1", "--stop", "2", "--steps", "0"]) == 1
    assert main(base + ["--start", "-1", "--stop", "2", "--steps", "3"]) == 1
    assert main(base + ["--start", "inf", "--stop", "2", "--steps", "3"]) == 1
    assert main(["sweep", "--parameter", "k", "--domain", "interval", "--length", "2",
                 "--start", "0", "--stop", "0", "--steps", "1"]) == 1
    assert main(["sweep", "--parameter", "k", "--domain", "interval", "--length", "2",
                 "--start", "5", "--stop", "40"]) == 1   # --steps required


def test_h_sweep_refuses_a_cell_side_above_a_half_before_the_first_grid(monkeypatch, capsys):
    # the range's largest cell side is refused before the 31,016-cell grid at
    # h = 0.04 is built and solved
    built = []

    def counting_build_grid(*args, **kwargs):
        built.append(args)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr("loglap.cli.build_grid", counting_build_grid)
    assert main(["sweep", "--parameter", "h", "--domain", "ball", "--radius", "4",
                 "--start", "0.04", "--stop", "0.6", "--steps", "2"]) == 1
    assert capsys.readouterr().err == "loglap: error: cell side must lie in (0, 0.5], got 0.6\n"
    assert built == []


@pytest.mark.parametrize("dim", ["1", "3", "10"])
def test_radius_sweep_asks_for_c0_outside_two_dimensions(dim, capsys):
    # the 2D ball is the one default; no other dimension builds a ball
    assert main(["sweep", "--parameter", "radius", "--dim", dim,
                 "--start", "1", "--stop", "2", "--steps", "2"]) == 1
    assert capsys.readouterr().err == (
        "loglap: error: a radius sweep has a default c0 in dimension 2 only: pass --c0\n")


def test_sweep_refuses_k_beyond_the_exact_integers_of_floats(capsys):
    # 1e30 has no int64 cast: refused with the limit named, with no warning
    # from the cast and no wrapped-around index in the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--parameter", "k", "--domain", "interval", "--length", "2",
                     "--start", "1", "--stop", "1e30", "--steps", "3"]) == 1
    err = capsys.readouterr().err
    assert "from 1 to 2^53" in err and "-9223372036854775808" not in err


# ---------------------------------------------------------------------------
# config files


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# solve configuration\n"
        "domain=interval\n"
        "length=2\n"
        "cells=64\n"
        "num_eigs=8\n"
    )
    out1 = tmp_path / "a.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((tmp_path / "a.json").read_text())
    assert manifest["config"]["cells"] == 64

    # explicit flags win over the file
    out2 = tmp_path / "b.csv"
    assert main(["solve", "--config", str(cfg), "--cells", "32",
                 "--out", str(out2)]) == 0
    manifest = json.loads((tmp_path / "b.json").read_text())
    assert manifest["config"]["cells"] == 32

    # the --config=FILE form reads the same file
    out3 = tmp_path / "c.csv"
    assert main(["solve", f"--config={cfg}", "--out", str(out3)]) == 0
    manifest = json.loads((tmp_path / "c.json").read_text())
    assert manifest["config"]["cells"] == 64


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    assert main(["solve", "--config", str(bad), "--num-eigs", "2"]) == 1
    assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                 "--num-eigs", "2"]) == 1
    capsys.readouterr()
    bad.write_text(" = 3\n")
    assert main(["solve", "--config", str(bad), "--num-eigs", "2"]) == 1
    assert capsys.readouterr().err == f"loglap: error: {bad}:1: empty key\n"


# ---------------------------------------------------------------------------
# entry point plumbing


def test_version_and_usage(capsys):
    assert main(["--version"]) == 0
    assert "loglap" in capsys.readouterr().out
    assert main([]) == 1                              # subcommand required


@pytest.mark.parametrize("argv", [
    ["bounds", "--domain", "ball", "--radius", "1e300"],
    ["bounds", "--domain", "ball", "--radius", "1e300", "--h", "0.5", "--sigma", "1"],
    ["sweep", "--parameter", "radius", "--start", "1e200", "--stop", "1e300", "--steps", "2"],
    ["sweep", "--parameter", "radius", "--start", "1e200", "--stop", "1e300", "--steps", "2",
     "--c0", "7"],
    ["sweep", "--parameter", "k", "--domain", "ball", "--radius", "1e300",
     "--start", "1", "--stop", "3", "--steps", "3"],
], ids=["bounds", "bounds-sigma", "sweep-radius", "sweep-radius-c0", "sweep-k"])
def test_float_overflow_exits_1_with_a_message(argv, capsys):
    # a radius of 1e300 (or a ball of twice 1e200 in the radius sweep) gives
    # a volume past the float range
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loglap: error: a value overflows the float range")


def test_seed_and_sweep_variant_flags_rejected(capsys):
    # only verify has randomized checks, so only verify takes --seed, and
    # only a non-negative one
    assert main(["verify", "--suite", "constants", "--seed", "-1"]) == 1
    assert "--seed expects a non-negative integer, got -1" in capsys.readouterr().err
    assert main(["constants", "--dim", "1", "--seed", "1"]) == 1
    assert main(["solve", "--domain", "interval", "--length", "2",
                 "--cells", "8", "--num-eigs", "2", "--seed", "1"]) == 1
    # a sweep prints every variant
    assert main(["sweep", "--parameter", "radius", "--start", "2", "--stop", "4",
                 "--steps", "2", "--variant", "proof"]) == 1


@pytest.mark.parametrize("flag, value", [("--h", "0.1"), ("--cells", "7")])
def test_sweep_rejects_grid_flags(flag, value, capsys):
    # a sweep over h takes its cell sides from the range; no sweep reads these
    assert main(["sweep", "--parameter", "k", "--start", "1", "--stop", "5", "--steps", "3",
                 "--domain", "ball", "--radius", "4", flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


_SWEEP_K = ["sweep", "--parameter", "k", "--start", "1", "--stop", "5", "--steps", "3",
            "--domain", "interval", "--length", "2"]
_SWEEP_H = ["sweep", "--parameter", "h", "--start", "0.5", "--stop", "0.25", "--steps", "2",
            "--domain", "interval", "--length", "2"]
_SWEEP_RADIUS = ["sweep", "--parameter", "radius", "--start", "2", "--stop", "4", "--steps", "2"]


@pytest.mark.parametrize("argv, unread", [
    (["solve", "--domain", "ball", "--radius", "2", "--length", "7", "--side", "3",
      "--h", "0.5", "--num-eigs", "1"], "--length and --side"),
    (["solve", "--domain", "interval", "--length", "2", "--radius", "1",
      "--cells", "8", "--num-eigs", "1"], "--radius"),
    (["bounds", "--domain", "box", "--side", "1", "--length", "2"], "--length"),
    ([*_SWEEP_K, "--c0", "5"], "--c0"),
    ([*_SWEEP_H, "--c0", "5"], "--c0"),
    ([*_SWEEP_K, "--dim", "1"], "--dim"),
    ([*_SWEEP_H, "--dim", "1", "--c0", "5"], "--dim and --c0"),
    ([*_SWEEP_K, "--radius", "3"], "--radius"),
    ([*_SWEEP_RADIUS, "--domain", "interval", "--length", "2"], "--domain and --length"),
    ([*_SWEEP_RADIUS, "--radius", "3", "--side", "1"], "--radius and --side"),
], ids=["solve-ball", "solve-interval", "bounds-box", "sweep-k-c0", "sweep-h-c0", "sweep-k-dim",
        "sweep-h-dim-c0", "sweep-k-radius", "sweep-radius-domain", "sweep-radius-shape"])
def test_unread_flags_are_refused(argv, unread, tmp_path, capsys):
    # a flag the command would ignore is a usage error, refused before any output
    assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.startswith(f"loglap: error: {unread} given, but ")


def test_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from loglap.cli import main; import sys; sys.exit(main(sys.argv[1:]))",
         "constants", "--dim", "1"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert "zero_order_shift" in proc.stdout
