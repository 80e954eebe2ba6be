"""Acceptance gate.

One test per criterion, each at its contract tolerance, each printing a
PASS/FAIL line (pytest runs with --capture=tee-sys so the gate lines are
always visible in the live output).

Criterion 3 pins a finding about two published constants (b and T0): the
printed decimals are partial prime sums, not the full series the constants
are defined by.  b = 0.8612985 is the sum of beta_i over the first 10^5
primes and T0 = 0.62035 the sum of p^(-rho) over the first 10^4 primes;
the full series lie outside the stated tolerances.  The test asserts the
full series against mpmath, the printed decimals against the partial sums,
and the gap between the two; see test_criterion_3_printed_b_T0.
"""

import math
import subprocess
import sys
import time

import mpmath

from kalmar import champions as ch
from kalmar import constants as cn
from kalmar import evans as ev
from kalmar import verify as vf
from kalmar.primes import first_primes
from test_cli import split_csv_row

mpmath.mp.dps = 30


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    sys.stdout.flush()


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "kalmar", *args],
                          capture_output=True, text=True)


# (rank, N, K, signature) of the first forty champions
FIG2 = [
    (1, 1, 1, ()),
    (2, 4, 2, (2,)),
    (3, 6, 3, (1, 1)),
    (4, 8, 4, (3,)),
    (5, 12, 8, (2, 1)),
    (6, 24, 20, (3, 1)),
    (7, 36, 26, (2, 2)),
    (8, 48, 48, (4, 1)),
    (9, 72, 76, (3, 2)),
    (10, 96, 112, (5, 1)),
    (11, 120, 132, (3, 1, 1)),
    (12, 144, 208, (4, 2)),
    (13, 192, 256, (6, 1)),
    (14, 240, 368, (4, 1, 1)),
    (15, 288, 544, (5, 2)),
    (16, 360, 604, (3, 2, 1)),
    (17, 432, 768, (4, 3)),
    (18, 480, 976, (5, 1, 1)),
    (19, 576, 1376, (6, 2)),
    (20, 720, 1888, (4, 2, 1)),
    (21, 864, 2208, (5, 3)),
    (22, 960, 2496, (6, 1, 1)),
    (23, 1152, 3392, (7, 2)),
    (24, 1440, 5536, (5, 2, 1)),
    (25, 1728, 6080, (6, 3)),
    (26, 1920, 6208, (7, 1, 1)),
    (27, 2160, 7968, (4, 3, 1)),
    (28, 2304, 8192, (8, 2)),
    (29, 2880, 15488, (6, 2, 1)),
    (30, 3456, 16192, (7, 3)),
    (31, 4320, 25440, (5, 3, 1)),
    (32, 5760, 41792, (7, 2, 1)),
    (33, 6912, 41984, (8, 3)),
    (34, 8640, 76864, (6, 3, 1)),
    (35, 11520, 109568, (8, 2, 1)),
    (36, 17280, 222528, (7, 3, 1)),
    (37, 23040, 280576, (9, 2, 1)),
    (38, 25920, 331776, (6, 4, 1)),
    (39, 30240, 333984, (5, 3, 1, 1)),
    (40, 34560, 622592, (8, 3, 1)),
]

CENSUS_X = 557940830126698960967415390


def _parse_factorization(text: str) -> int:
    value = 1
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        value *= int(base) ** (int(exp) if exp else 1)
    return value


def test_criterion_1_fig2_table():
    t0 = time.time()
    cp = run_cli("champions", "--x", "34560", "--table", "fig2", "--format", "csv")
    elapsed = time.time() - t0
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    rows = [split_csv_row(line) for line in lines[1:]]
    ok = len(rows) == 40
    for row, (rank, n, k, sig) in zip(rows, FIG2):
        sig_txt = "[" + ",".join(str(a) for a in sig) + "]"
        ok = ok and row[:4] == [str(rank), str(n), str(k), sig_txt]
        ok = ok and _parse_factorization(row[4]) == k
    ok = ok and elapsed < 5.0
    _report("1", ok, f"40-row reference table exact, factorizations re-multiply; "
                     f"{elapsed:.2f} s")
    assert ok


def test_criterion_2_full_census():
    t0 = time.time()
    cands = list(ch.enumerate_candidates(CENSUS_X))
    cen = ch.census(CENSUS_X, candidates=cands)
    elapsed = time.time() - t0
    interior = sum(1 for c in cands if 2 <= c.value < CENSUS_X)
    finding = (f"definitional candidate count {cen.candidate_count} "
               f"(N <= X, N = 1 included); published count 340884 corresponds "
               f"to 2 <= N < X, which gives {interior}")
    _report("2", True, f"champions={cen.champion_count}, "
                       f"alpha_k>1 count={cen.alpha_gt1_count}, "
                       f"largest at rank {cen.largest_alpha_gt1.rank}; "
                       f"{elapsed:.0f} s; FINDING: {finding}")
    assert cen.champion_count == 761
    assert cen.alpha_gt1_count == 111
    rec = cen.largest_alpha_gt1
    assert rec.rank == 390
    assert rec.candidate.value == 485432135516160000 == 2**28 * 3**10 * 5**4 * 7**2
    assert rec.candidate.signature == (28, 10, 4, 2)
    # candidate count: reported as a finding, both conventions pinned exactly
    assert cen.candidate_count == 340886
    assert interior == 340884
    assert ch.verify_champion_laws(ch.champions_from_candidates(cands)).ok
    # champion-count lower law at the census bound: Q(X) >= (log X)^1.07
    assert cen.champion_count >= math.log(CENSUS_X) ** 1.07


FIG1 = {1: (1.00000, 1.44269), 2: (1.43527, 1.44336), 3: (1.56603, 1.36287),
        10: (1.69972, 1.19244), 100: (1.72658, 1.11279), 1000: (1.72843, 1.10196)}


def test_criterion_3_constants():
    t0 = time.time()
    tab = cn.model_constants()
    ok = abs(tab.rho - 1.728647238998) < 1e-12
    ok = ok and abs(tab.a - 1.100020011) < 1e-9
    for k, (r_ref, a_ref) in FIG1.items():
        ok = ok and abs(cn.solve_rho(k) - r_ref) < 1e-5
        ok = ok and abs(cn.lagrange_scale(k) - a_ref) < 1e-5
    ok = ok and abs(tab.B0 - 1.883) < 1e-3
    ok = ok and abs(tab.delta - 0.789243) < 1e-6
    ok = ok and abs(tab.kappa_max - 1.82) < 0.01
    ok = ok and abs(cn.rho_gap_coefficient() - 1.509) < 0.001
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report("3", ok, f"rho to 12 digits, a to 1e-9, twelve truncated entries, "
                     f"B0, delta, kappa_max, gap rate; {elapsed:.2f} s")
    assert ok


B_PRINTED, B_CUTOFF = 0.8612985, 100_000
T0_PRINTED, T0_CUTOFF = 0.62035, 10_000


def test_criterion_3_printed_b_T0():
    """The published b = 0.8612985 and T0 = 0.62035 are partial prime sums.

    The full series, b = sum_p a/(p^rho - 1) and T0 = sum_p p^(-rho), agree
    with mpmath (primezeta, zeta') to 1e-10 and give b = 0.8613019... and
    T0 = 0.6203769..., outside the stated tolerances (1e-6, 1e-5) around the
    printed decimals.  The sum of beta_i over the first 10^5 primes
    (p <= 1299709) reproduces 0.8612985, and the sum of p^(-rho) over the
    first 10^4 primes (p <= 104729) reproduces 0.62035, each to its last
    printed digit.  The partial sums round to the printed digits only for
    cutoffs p in [1287343, 1335889] (b) and [71947, 114743] (T0); the two
    cutoffs above are the round prime counts inside those windows."""
    tab = cn.model_constants()
    rho = mpmath.findroot(lambda s: mpmath.zeta(s) - 2, mpmath.mpf("1.73"))
    t0_ref = float(mpmath.primezeta(rho))
    b_ref = float(-2 / mpmath.zeta(rho, derivative=1)
                  * mpmath.nsum(lambda m: mpmath.primezeta(m * rho), [1, mpmath.inf]))
    assert abs(tab.b - b_ref) < 1e-10 and abs(tab.T0 - t0_ref) < 1e-10
    b_partial = math.fsum(tab.beta_profile(B_CUTOFF))
    t0_partial = math.fsum(p ** -tab.rho for p in first_primes(T0_CUTOFF))
    ok_b = abs(b_partial - B_PRINTED) <= 5e-8
    ok_t0 = abs(t0_partial - T0_PRINTED) <= 5e-6
    far_b = abs(tab.b - B_PRINTED) > 1e-6
    far_t0 = abs(tab.T0 - T0_PRINTED) > 1e-5
    _report("3 (printed b, T0)", ok_b and ok_t0 and far_b and far_t0,
            f"sum of beta_i over the first {B_CUTOFF} primes = {b_partial:.8f} "
            f"vs printed {B_PRINTED} (tol 5e-8), sum of p^-rho over the first "
            f"{T0_CUTOFF} primes = {t0_partial:.8f} vs printed {T0_PRINTED} "
            f"(tol 5e-6); FINDING: the printed values truncate the prime sums at "
            f"the first {B_CUTOFF} / {T0_CUTOFF} primes; the full series "
            f"b = {tab.b:.10f}, T0 = {tab.T0:.10f} (mpmath-verified) lie "
            f"outside the stated 1e-6 / 1e-5")
    assert ok_b, (f"sum of beta_i over the first {B_CUTOFF} primes = "
                  f"{b_partial:.10f} differs from the printed {B_PRINTED} by "
                  f"{abs(b_partial - B_PRINTED):.2e} > 5e-8")
    assert ok_t0, (f"sum of p^-rho over the first {T0_CUTOFF} primes = "
                   f"{t0_partial:.10f} differs from the printed {T0_PRINTED} by "
                   f"{abs(t0_partial - T0_PRINTED):.2e} > 5e-6")
    assert far_b, f"full series b = {tab.b:.10f} lies within 1e-6 of {B_PRINTED}"
    assert far_t0, f"full series T0 = {tab.T0:.10f} lies within 1e-5 of {T0_PRINTED}"


def test_criterion_4_triple_oracle():
    t0 = time.time()
    res = vf.check_triple_oracle(12)
    elapsed = time.time() - t0
    ok = res.ok and elapsed < 60.0
    _report("4", ok, f"{res.detail}; {elapsed:.2f} s")
    assert ok, res.detail


def test_criterion_5_small_x_oracle():
    res = vf.check_champion_small_oracle(10_000)
    _report("5", res.ok, res.detail)
    assert res.ok, res.detail


def test_criterion_6_ratio_extremes():
    res = vf.check_ratio_extremes(12)
    rows = ev.ratio_scan(1)
    r1 = rows[0].min_ratio
    ok = res.ok and abs(r1 - 1.084437552) < 1e-8 \
        and abs(r1 - math.e / math.sqrt(2 * math.pi)) < 1e-12
    _report("6", ok, f"{res.detail}; equals e/sqrt(2 pi)")
    assert ok, res.detail


def test_criterion_7_inequality_suites():
    t0 = time.time()
    growth = vf.check_growth_laws(100_000)
    supermult = vf.check_supermultiplicative(2000)
    sandwich = vf.check_sandwich(100_000)
    elapsed = time.time() - t0
    ok = growth.ok and supermult.ok and sandwich.ok
    _report("7", ok, f"{growth.detail}; {supermult.detail}; {sandwich.detail}; "
                     f"{elapsed:.0f} s")
    assert growth.ok, growth.detail
    assert supermult.ok, supermult.detail
    assert sandwich.ok, sandwich.detail


def test_criterion_8_analysis_kernel():
    t0 = time.time()
    grads = vf.check_gradients(1000)
    hess = vf.check_hessian(10_000)
    lips = vf.check_lipschitz(10_000)
    ranges = vf.check_value_ranges(2000)
    elapsed = time.time() - t0
    ok = grads.ok and hess.ok and lips.ok and ranges.ok and elapsed < 60.0
    _report("8", ok, f"{grads.detail}; {hess.detail}; {lips.detail}; "
                     f"{ranges.detail}; {elapsed:.0f} s")
    for res in (grads, hess, lips, ranges):
        assert res.ok, res.detail
    assert elapsed < 60.0


def test_criterion_9_optimizer():
    grid = vf.check_optimum_grid()
    deficit = vf.check_deficit(10_000)
    witness = vf.check_witness_sweep()
    ok = grid.ok and deficit.ok and witness.ok
    _report("9", ok, f"{grid.detail}; {deficit.detail}; {witness.detail}")
    for res in (grid, deficit, witness):
        assert res.ok, res.detail
