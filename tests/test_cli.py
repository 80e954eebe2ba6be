"""CLI surface: subcommands, formats, exit codes, reproducibility."""

import os
import subprocess
import sys
import time
import zlib

import pytest

from kalmar import exact as ex
from kalmar.cli import split_csv_row


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "kalmar", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def test_k_by_n():
    cp = run_cli("k", "--n", "12")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "8"
    assert run_cli("k", "--n", "1000003").stdout == "1\n"
    cp = run_cli("k", "--n", str(2**40 * 1000003))
    assert cp.returncode == 0 and cp.stdout == f"{ex.kalmar_macmahon((40, 1))}\n"
    # trial division stops at 10^6: a cofactor above 10^12 that is not prime
    # (1000003 * 1000033, 1000003^2) is refused, not read as a prime
    for n in ("1000036000099", "1000006000009"):
        for check in ((), ("--check",)):
            cp = run_cli("k", "--n", n, *check)
            assert cp.returncode == 2 and cp.stdout == "", (n, check)
            assert f"cofactor {n} is not prime" in cp.stderr, cp.stderr


def test_k_by_signature_and_methods():
    for method in ("macmahon", "recursive", "series"):
        cp = run_cli("k", "--signature", "3,2,1", "--method", method)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "604"


def test_k_check():
    cp = run_cli("k", "--n", "360", "--check")
    assert cp.returncode == 0 and cp.stdout.strip() == "604"



def test_k_requires_one_input():
    assert run_cli("k").returncode == 1
    assert run_cli("k", "--n", "4", "--signature", "2").returncode == 1


def test_constants_table():
    cp = run_cli("constants", "--digits", "13")
    assert cp.returncode == 0
    assert "rho" in cp.stdout and "1.728647238998" in cp.stdout
    cp = run_cli("constants", "--k", "10", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert abs(float(rows["rho_10"]) - 1.69972) < 1e-5
    assert abs(float(rows["a_10"]) - 1.19244) < 1e-5


def test_constants_sieve_rows():
    cp = run_cli("constants", "--sieve-bound", "100000", "--format", "csv")
    assert cp.returncode == 0
    names = [line.split(",")[0] for line in cp.stdout.splitlines()]
    assert "sieve_inv_a" in names and "sieve_T0" in names


def test_approx():
    cp = run_cli("approx", "--signature", "1", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert abs(float(rows["ratio"]) - 1.0844375514) < 1e-9
    assert rows["K"] == "1"


def test_champions_fig2_table():
    cp = run_cli("champions", "--x", "34560", "--table", "fig2", "--format", "csv")
    assert cp.returncode == 0
    lines = cp.stdout.splitlines()
    assert lines[0] == "rank,N,K,signature,K_factorization"
    assert len(lines) == 41
    assert split_csv_row(lines[-1]) == ["40", "34560", "622592", "[8,3,1]", "2^15*19"]


def test_champions_census():
    cp = run_cli("champions", "--x", "12", "--census", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert rows["candidates"] == "6" and rows["champions"] == "5"


def test_champions_stats_runs():
    cp = run_cli("champions", "--x", "720", "--stats", "--format", "csv")
    assert cp.returncode == 0
    assert cp.stdout.splitlines()[0].startswith("rank,N,omega,Omega")


def test_champions_cache(tmp_path):
    path = str(tmp_path / "cands.txt")
    first = run_cli("champions", "--x", "34560", "--cache", path)
    assert first.returncode == 0 and "saved" in first.stderr
    second = run_cli("champions", "--x", "34560", "--cache", path)
    assert second.returncode == 0 and "loaded" in second.stderr
    assert first.stdout == second.stdout


def test_corrupt_cache_reenumerates(tmp_path):
    path = tmp_path / "cands.txt"
    fresh = run_cli("champions", "--x", "34560", "--census", "--cache", str(path))
    assert fresh.returncode == 0 and "saved" in fresh.stderr
    lines = path.read_text().splitlines()
    lines[7] = "garbled"
    path.write_text("\n".join(lines) + "\n")
    again = run_cli("champions", "--x", "34560", "--census", "--cache", str(path))
    assert again.returncode == 0, again.stderr
    assert "saved" in again.stderr and again.stdout == fresh.stdout
    hit = run_cli("champions", "--x", "34560", "--census", "--cache", str(path))
    assert "loaded" in hit.stderr and hit.stdout == fresh.stdout
    # one record's K changed, with the digest made to match: the recheck
    # rejects it and the census is recomputed
    header, body = path.read_text().split("\n", 1)
    lines = body.splitlines()
    assert lines[8] == "3,2;72;76"
    lines[8] = "3,2;72;77"
    body = "".join(line + "\n" for line in lines)
    header = header.rpartition(" crc32=")[0] + " crc32=" + \
        f"{zlib.crc32(body.encode()):08x}"
    path.write_text(header + "\n" + body)
    again = run_cli("champions", "--x", "34560", "--census", "--cache", str(path))
    assert again.returncode == 0, again.stderr
    assert "saved" in again.stderr and again.stdout == fresh.stdout
    assert "3,2;72;76\n" in path.read_text()


def test_census_cache_miss_then_hit(tmp_path):
    path = str(tmp_path / "census.txt")
    miss = run_cli("champions", "--x", str(10**18), "--census", "--cache", path)
    assert miss.returncode == 0 and "saved" in miss.stderr
    hit = run_cli("champions", "--x", str(10**18), "--census", "--cache", path)
    assert hit.returncode == 0 and "loaded" in hit.stderr
    assert hit.stdout == miss.stdout
    assert "candidates                   32749\n" in hit.stdout
    with open(path) as fh:
        assert sum(1 for _ in fh) == 1 + 397              # header and the records


def test_unwritable_cache_still_prints(tmp_path):
    plain = run_cli("champions", "--x", "1000", "--census")
    (tmp_path / "adir").mkdir()
    for path in (tmp_path / "missing" / "x.cache", tmp_path / "adir"):
        cp = run_cli("champions", "--x", "1000", "--census", "--cache", str(path))
        assert cp.returncode == 0, cp.stderr
        assert f"could not save census to {path}: " in cp.stderr
        assert ".tmp" not in cp.stderr, cp.stderr
        assert cp.stdout == plain.stdout
    assert not list(tmp_path.rglob("*.tmp"))


def test_cache_env_var(tmp_path):
    path = str(tmp_path / "envcache.txt")
    cp = run_cli("champions", "--x", "100", env={"KALMAR_CACHE": path})
    assert cp.returncode == 0 and os.path.exists(path)


def test_csv_round_trip():
    cp = run_cli("ratio-scan", "--omega-max", "5", "--format", "csv")
    assert cp.returncode == 0
    reemitted = "".join(",".join(split_csv_row(line)) + "\n"
                        for line in cp.stdout.splitlines())
    assert reemitted == cp.stdout


def test_byte_determinism():
    a = run_cli("champions", "--x", "34560", "--table", "fig2")
    b = run_cli("champions", "--x", "34560", "--table", "fig2")
    assert a.stdout == b.stdout and a.stdout


def test_optimum_and_witness_and_deficit():
    cp = run_cli("optimum", "--k", "2", "--A", "10", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert abs(float(rows["c_star"]) - 14.4336) < 1e-3
    cp = run_cli("witness", "--log-n", "50", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert 1.0 <= float(rows["ratio_n_over_m"]) < 2.0
    cp = run_cli("deficit", "--signature", "3,2,1", "--A", "10", "--format", "csv")
    rows = dict(line.split(",", 1) for line in cp.stdout.splitlines()[1:])
    assert float(rows["slack"]) >= -1e-9


def test_exit_codes():
    assert run_cli("nosuch").returncode == 1
    assert run_cli().returncode == 1
    assert run_cli("witness", "--log-n", "100", "--kappa", "1.9").returncode == 1
    cp = run_cli("witness", "--log-n", ",")
    assert cp.returncode == 1 and cp.stdout == "" and "at least one log n" in cp.stderr
    assert run_cli("k", "--signature", "2,-1").returncode == 1
    assert run_cli("--help").returncode == 0
    assert run_cli("constants", "--precision", "1e-6").returncode == 1     # removed flags
    assert run_cli("k", "--n", "12", "--workers", "2").returncode == 1
    for digits in ("0", "-3"):
        cp = run_cli("constants", "--digits", digits)
        assert cp.returncode == 1 and "--digits must be >= 1" in cp.stderr, cp.stderr
    cp = run_cli("champions", "--x", "1e20", "--census")
    assert cp.returncode == 1 and cp.stdout == ""
    assert "--x needs an integer, got '1e20'" in cp.stderr, cp.stderr
    cp = run_cli("champions", "--x", "0")
    assert cp.returncode == 1 and cp.stdout == "" and "--x must be >= 1" in cp.stderr, cp.stderr


def test_options_only_where_read():
    # --format and --digits go on the subcommands that print reals,
    # --sieve-bound on constants only
    for argv in (("k", "--n", "12", "--digits", "3"),
                 ("k", "--n", "12", "--format", "csv"),
                 ("verify", "--fast", "--format", "csv"),
                 ("champions", "--x", "100", "--sieve-bound", "20000"),
                 ("approx", "--signature", "1", "--sieve-bound", "20000")):
        cp = run_cli(*argv)
        assert cp.returncode == 1 and cp.stdout == "", argv
        assert "unrecognized arguments" in cp.stderr, cp.stderr


def test_sieve_bound_env_var_ignored():
    cp = run_cli("k", "--n", "12", env={"KALMAR_SIEVE_BOUND": "5"})
    assert cp.returncode == 0 and cp.stdout == "8\n", cp.stderr
    plain = run_cli("constants")
    cp = run_cli("constants", env={"KALMAR_SIEVE_BOUND": "100000"})
    assert cp.returncode == 0 and cp.stdout == plain.stdout


def test_witness_list_entries():
    for log_n in ("50,,100", "50,x", "50,", ",50"):
        cp = run_cli("witness", "--log-n", log_n)
        assert cp.returncode == 1 and cp.stdout == "", log_n
        assert "every entry must be a number" in cp.stderr, cp.stderr


def test_signature_list_entries():
    # --signature is parsed once, by argparse, on k, approx and deficit
    for sig in ("2,,1", "2,", ",", "2,x", "3,,1"):
        for argv in (("k", "--signature", sig), ("approx", "--signature", sig),
                     ("deficit", "--signature", sig, "--A", "10")):
            cp = run_cli(*argv)
            assert cp.returncode == 1 and cp.stdout == "", argv
            assert f"every entry must be an integer, got '{sig}'" in cp.stderr, cp.stderr
    cp = run_cli("approx", "--signature", "2,-1")
    assert cp.returncode == 1 and "entries must be >= 1" in cp.stderr, cp.stderr
    # zeros are dropped, brackets allowed, as before
    assert run_cli("k", "--signature", "3,0,2").stdout == run_cli("k", "--signature", "[3,2]").stdout
    assert "signature     [3,2]\n" in run_cli("approx", "--signature", "0,2,3").stdout
    assert run_cli("k", "--signature", "").stdout == "1\n"


def test_non_finite_input_exit_1():
    for argv in (("optimum", "--k", "3", "--A", "inf"),
                 ("deficit", "--signature", "3,2,1", "--A", "inf"),
                 ("witness", "--log-n", "inf")):
        cp = run_cli(*argv)
        assert cp.returncode == 1 and cp.stdout == "", argv
        assert "finite" in cp.stderr, cp.stderr


def test_deficit_near_float_limit():
    from kalmar.cli import fmt_real
    from kalmar.constants import solve_rho
    cp = run_cli("deficit", "--signature", "3,2,1", "--A", "1e308")
    assert cp.returncode == 0, cp.stderr
    values = dict(line.split() for line in cp.stdout.splitlines()[1:])
    assert values["F_star"] == fmt_real(solve_rho(3) * 1e308)
    assert all(v not in ("inf", "nan") for v in values.values())


def test_import_contract():
    # a one-shot query pays for every module kalmar.cli imports; perfbench's
    # tracer reads sys.modules["kalmar.<layer>"] for each layer after it
    code = ("import sys, kalmar.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('kalmar.') or m in ('dataclasses', 'fractions', 'decimal'))))")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    loaded = set(cp.stdout.split())
    assert not {"dataclasses", "fractions", "decimal"} & loaded, loaded
    layers = ("primes", "exact", "constants", "evans", "optimize", "champions",
              "verify", "cli")
    assert {f"kalmar.{m}" for m in layers} <= loaded, loaded


_EVANS = {"errors", "primes", "exact", "constants", "evans"}
_ALL = _EVANS | {"optimize", "champions", "verify"}


@pytest.mark.parametrize("module, closure", [
    ("kalmar", set()),
    ("kalmar.exact", {"errors", "primes", "exact"}),
    ("kalmar.constants", {"errors", "primes", "constants"}),
    ("kalmar.evans", _EVANS),
    ("kalmar.optimize", _EVANS | {"optimize"}),
    ("kalmar.champions", {"errors", "primes", "exact", "champions"}),
    ("kalmar.verify", _ALL),
    ("kalmar.cli", _ALL | {"cli"}),
])
def test_import_closure(module, closure):
    # imported first in a fresh interpreter, a module loads exactly the
    # kalmar modules it uses, so a hidden import cycle shows here
    code = (f"import sys, {module}; "
            "print(' '.join(m for m in sys.modules if m.startswith('kalmar.')))")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert set(cp.stdout.split()) == {f"kalmar.{m}" for m in closure}


def test_golden_default_output():
    # default 12-digit stdout, pinned byte for byte
    with open(os.path.join(os.path.dirname(__file__), "golden_cli.txt")) as fh:
        cases = fh.read().split("$ kalmar ")[1:]
    assert len(cases) == 12
    for case in cases:
        argv, expected = case.split("\n", 1)
        cp = run_cli(*argv.split())
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == expected, argv


def test_resource_limits_exit_2():
    t0 = time.monotonic()
    cp = subprocess.run(
        [sys.executable, "-m", "kalmar", "k", "--check",
         "--signature", "40,25,17,12,9,8,6,5,4,3,3,2,2,2,1"],
        capture_output=True, text=True, timeout=60)
    assert cp.returncode == 2 and "cap" in cp.stderr
    assert time.monotonic() - t0 < 10
    cp = run_cli("constants", "--sieve-bound", "300000000")
    assert cp.returncode == 2 and "exceeds configured capacity" in cp.stderr
    cp = run_cli("witness", "--log-n", "1e5")                 # k above the divisor cap
    assert cp.returncode == 2 and "cap 40" in cp.stderr, cp.stderr
    cp = run_cli("witness", "--log-n", "1e6")     # k = 321: n/m0 would overflow exp
    assert cp.returncode == 2 and "cap 40" in cp.stderr, cp.stderr
    assert "Traceback" not in cp.stderr, cp.stderr
    for argv in (("k", "--signature", "1000000"), ("approx", "--signature", "200000")):
        t0 = time.monotonic()
        cp = subprocess.run([sys.executable, "-m", "kalmar", *argv],
                            capture_output=True, text=True, timeout=60)
        assert cp.returncode == 2 and "cap" in cp.stderr, argv
        assert time.monotonic() - t0 < 10, argv


def test_verify_fast():
    cp = run_cli("verify", "--fast")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "checks passed" in cp.stdout
    assert "FAIL" not in cp.stdout
