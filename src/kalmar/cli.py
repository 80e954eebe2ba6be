"""Command-line workbench.

Subcommands: k, constants, approx, ratio-scan, optimum, witness, deficit,
champions, verify.  Values go to stdout, diagnostics to stderr.  Exit status:
0 success, 1 domain/precondition/convergence error or bad usage, 2 resource
error.

Each option is declared, with its default and its check, only on the
subcommands that read it: --format and --digits on the seven that print
tables (all but k and verify), --sieve-bound on constants, --cache on
champions (default $KALMAR_CACHE, the one setting read from the environment).

Output is byte-reproducible for a fixed argv.  Exact integers print in full
decimal; reals print to --digits significant digits (12 by default).  CSV is
comma-separated with a header row and no quoting; bracketed lists such as
signatures keep their internal commas, so split rows with brackets in mind
(see split_csv_row).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import champions as ch
from . import constants as cn
from . import evans as ev
from . import exact as ex
from . import optimize as op
from . import verify as vf
from .errors import DomainError, KalmarError, PreconditionError, ResourceLimitError
from .primes import factorize, is_prime

ENV_CACHE = "KALMAR_CACHE"


# --- formatting -------------------------------------------------------------

def fmt_real(x: float, digits: int = 12) -> str:
    return f"{x:.{digits}g}"


def fmt_signature(sig) -> str:
    return "[" + ",".join(str(a) for a in sig) + "]"




def split_csv_row(line: str) -> list[str]:
    """Split a no-quoting CSV row on commas that are outside brackets."""
    out, cur, depth = [], [], 0
    for c in line:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


def factor_string(n: int) -> str:
    """'2^15*19' style factorization; a non-prime remainder is marked."""
    if n == 1:
        return "1"
    parts = []
    for p, e in factorize(n):
        base = str(p) if is_prime(p) else f"{p}?"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def _emit_table(header: list[str], rows: list[list[str]], args, out) -> None:
    if args.output_format == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _emit_pairs(pairs: list[tuple[str, str]], args, out) -> None:
    _emit_table(["name", "value"], [[n, v] for n, v in pairs], args, out)


# --- subcommands ------------------------------------------------------------

def _cmd_k(args, out) -> int:
    if (args.n is None) == (args.signature is None):
        raise DomainError("give exactly one of --n or --signature")
    sig = ex.signature_of(args.n) if args.n is not None else args.signature
    methods = {
        "macmahon": ex.kalmar_macmahon,
        "recursive": ex.kalmar_recursive,
        "series": ex.kalmar_series_exact,
    }
    if args.check:
        values = {name: fn(sig) for name, fn in methods.items()}
        if len(set(values.values())) != 1:
            raise KalmarError(f"methods disagree: {values}")
        out.write(f"{values['macmahon']}\n")
        return 0
    out.write(f"{methods[args.method](sig)}\n")
    return 0


def _cmd_constants(args, out) -> int:
    tab = cn.model_constants()
    d = args.digits
    pairs = [
        ("rho", fmt_real(tab.rho, d)),
        ("a", fmt_real(tab.a, d)),
        ("b", fmt_real(tab.b, d)),
        ("T0", fmt_real(tab.T0, d)),
        ("B0", fmt_real(tab.B0, d)),
        ("delta", fmt_real(tab.delta, d)),
        ("mu", fmt_real(tab.mu, d)),
        ("kappa_max", fmt_real(tab.kappa_max, d)),
        ("rho_gap_coefficient", fmt_real(cn.rho_gap_coefficient(), d)),
        ("precision", fmt_real(tab.precision, 3)),
    ]
    if args.k is not None:
        trunc = cn.truncated_constants(args.k)
        pairs.append((f"rho_{trunc.k}", fmt_real(trunc.rho_k, d)))
        pairs.append((f"a_{trunc.k}", fmt_real(trunc.a_k, d)))
    if args.sieve_bound is not None:
        for name, (value, err) in cn.prime_sum_check(args.sieve_bound).items():
            pairs.append((f"sieve_{name}", fmt_real(value, d)))
            pairs.append((f"sieve_{name}_tail_err", fmt_real(err, 3)))
    _emit_pairs(pairs, args, out)
    return 0


def _cmd_approx(args, out) -> int:
    sig = args.signature
    if not sig:
        raise DomainError("the estimate needs a non-empty signature")
    est = ev.evans_estimate([float(a) for a in sig])
    k_exact = ex.kalmar_macmahon(sig)
    ratio = math.exp(math.log(k_exact) - est.log_estimate)
    d = args.digits
    _emit_pairs([
        ("signature", fmt_signature(sig)),
        ("c", fmt_real(est.c, d)),
        ("T", fmt_real(est.t, d)),
        ("F", fmt_real(est.f, d)),
        ("log_A", fmt_real(est.log_a, d)),
        ("B", fmt_real(est.b, d)),
        ("log_estimate", fmt_real(est.log_estimate, d)),
        ("estimate", fmt_real(est.estimate, d)),
        ("K", str(k_exact)),
        ("ratio", fmt_real(ratio, d)),
    ], args, out)
    return 0


def _cmd_ratio_scan(args, out) -> int:
    rows = ev.ratio_scan(args.omega_max)
    d = args.digits
    _emit_table(
        ["omega", "min_ratio", "argmin", "max_ratio", "argmax"],
        [[str(r.omega), fmt_real(r.min_ratio, d), fmt_signature(r.argmin),
          fmt_real(r.max_ratio, d), fmt_signature(r.argmax)] for r in rows],
        args, out,
    )
    return 0


def _cmd_optimum(args, out) -> int:
    p = op.optimum(args.k, args.budget)
    d = args.digits
    _emit_pairs([
        ("k", str(p.k)),
        ("A", fmt_real(p.budget, d)),
        ("rho_k", fmt_real(p.rho_k, d)),
        ("a_k", fmt_real(p.a_k, d)),
        ("c_star", fmt_real(p.c_star, d)),
        ("F_star", fmt_real(p.f_star, d)),
        ("x_star", "[" + ",".join(fmt_real(x, d) for x in p.x_star) + "]"),
    ], args, out)
    return 0


def _cmd_witness(args, out) -> int:
    d = args.digits
    if len(args.log_n) == 1:
        w = op.witness_m(args.log_n[0], args.kappa)
        _emit_pairs([
            ("log_n", fmt_real(w.n_log, d)),
            ("kappa", fmt_real(w.kappa, d)),
            ("k", str(w.k)),
            ("exponents", fmt_signature(w.exponents)),
            ("signature", fmt_signature(w.m_signature)),
            ("Omega_m", str(sum(w.m_signature))),
            ("ratio_n_over_m", fmt_real(w.ratio_n_over_m, d)),
            ("log_K_lower", fmt_real(w.log_k_lower, d)),
            ("exact", str(w.exact).lower()),
        ], args, out)
        return 0
    rows = []
    for ln in args.log_n:   # sweep mode: one row per budget
        w = op.witness_m(ln, args.kappa)
        rows.append([fmt_real(w.n_log, d), str(w.k), str(sum(w.m_signature)),
                     fmt_real(w.ratio_n_over_m, d), fmt_real(w.log_k_lower, d),
                     str(w.exact).lower()])
    _emit_table(["log_n", "k", "Omega_m", "ratio_n_over_m", "log_K_lower", "exact"],
                rows, args, out)
    return 0


def _cmd_deficit(args, out) -> int:
    sig = args.signature
    k = args.k if args.k is not None else len(sig)
    rep = op.deficit_check([float(a) for a in sig], k, args.budget)
    d = args.digits
    _emit_pairs([
        ("F_alpha", fmt_real(rep.f_alpha, d)),
        ("F_star", fmt_real(rep.f_star, d)),
        ("deficit", fmt_real(rep.deficit, d)),
        ("deficit_weak", fmt_real(rep.deficit_weak, d)),
        ("bound", fmt_real(rep.bound, d)),
        ("bound_weak", fmt_real(rep.bound_weak, d)),
        ("slack", fmt_real(rep.slack, d)),
        ("slack_weak", fmt_real(rep.slack_weak, d)),
    ], args, out)
    return 0


def _census_with_cache(x: int, path: str | None):
    """(candidate count, champion records) up to x, through the census cache
    at path when one is given."""
    if path:
        cached = ch.load_candidates(path, x)
        if cached is not None:
            print(f"loaded census ({cached[0]} candidates, {len(cached[1])} records) "
                  f"from {path}", file=sys.stderr)
            return cached
    count, records = ch.candidate_census(ch.enumerate_candidates(x))
    if path:
        try:
            ch.save_candidates(path, x, count, records)
        except OSError as e:    # as a bad cache on load is a miss, not an error
            print(f"could not save census to {path}: {e.strerror}", file=sys.stderr)
        else:
            print(f"saved census ({count} candidates, {len(records)} records) "
                  f"to {path}", file=sys.stderr)
    return count, records


def _cmd_champions(args, out) -> int:
    x = args.x
    count, records = _census_with_cache(x, args.cache_path)
    if args.census:
        cen = ch.census_from_records(x, count, records)
        pairs = [
            ("X", str(cen.bound)),
            ("candidates", str(cen.candidate_count)),
            ("champions", str(cen.champion_count)),
            ("alpha_gt1", str(cen.alpha_gt1_count)),
        ]
        if cen.largest_alpha_gt1 is not None:
            rec = cen.largest_alpha_gt1
            pairs += [
                ("largest_alpha_gt1_rank", str(rec.rank)),
                ("largest_alpha_gt1_N", str(rec.candidate.value)),
                ("largest_alpha_gt1_signature", fmt_signature(rec.candidate.signature)),
            ]
        _emit_pairs(pairs, args, out)
        return 0
    if args.stats:
        tab = cn.model_constants()
        d = args.digits
        rows = []
        for rec in records:
            st = ch.champion_stats(rec, tab)
            rows.append([
                str(rec.rank), str(rec.candidate.value),
                str(rec.omega), str(rec.big_omega),
                fmt_real(st.omega_residual, d) if st.omega_residual is not None else "-",
                fmt_real(st.omega_ratio, d) if st.omega_ratio is not None else "-",
                fmt_real(st.p_profile_ratios[0][1], d) if st.p_profile_ratios else "-",
            ])
        _emit_table(["rank", "N", "omega", "Omega", "Omega_residual",
                     "omega_ratio", "P1_ratio"], rows, args, out)
        return 0
    header = ["rank", "N", "K", "signature"]
    with_factors = args.table == "fig2"
    if with_factors:
        header.append("K_factorization")
    rows = []
    for rec in records:
        row = [str(rec.rank), str(rec.candidate.value), str(rec.candidate.k_value),
               fmt_signature(rec.candidate.signature)]
        if with_factors:
            row.append(factor_string(rec.candidate.k_value))
        rows.append(row)
    _emit_table(header, rows, args, out)
    return 0


def _cmd_verify(args, out) -> int:
    results = vf.full_suite(fast=args.fast)
    failed = 0
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        out.write(f"{tag} {r.name}: {r.detail}\n")
        if not r.ok:
            failed += 1
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _int_at_least(flag: str, low: int):
    """argparse type: an int >= low, refused as '<flag> must be >= <low>'."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} needs an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {low}, got {value}")
        return value
    return parse


def _log_n_list(text: str) -> list[float]:
    """argparse type: a comma list of log n, every entry a number."""
    entries = text.split(",")
    if not any(entries):
        raise argparse.ArgumentTypeError("give at least one log n")
    try:
        return [float(t) for t in entries]
    except ValueError:
        raise argparse.ArgumentTypeError(f"every entry must be a number, got {text!r}")


def _signature(text: str) -> tuple[int, ...]:
    """argparse type: exponents as a comma list, e.g. 8,3,1 or [8,3,1],
    every entry an integer; the canonical signature, zeros dropped."""
    entries = text.strip().strip("[]")
    if not entries:
        return ()
    try:
        exponents = [int(t) for t in entries.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"every entry must be an integer, got {text!r}")
    try:
        return ex.canonical_signature(exponents)
    except PreconditionError as e:
        raise argparse.ArgumentTypeError(str(e))


def build_parser() -> _Parser:
    top = _Parser(prog="kalmar",
                  description="Workbench for the Kalmar ordered-factorization "
                              "function, its analytic model and its champions.")
    table = argparse.ArgumentParser(add_help=False)     # subcommands that print tables
    table.add_argument("--format", dest="output_format", choices=("text", "csv"),
                       default="text", help="output format (default text)")
    table.add_argument("--digits", type=_int_at_least("--digits", 1), default=12,
                       help="significant digits for reals (default 12)")
    sub = top.add_subparsers(dest="command")

    k = sub.add_parser("k", help="exact K(n)")
    k.add_argument("--n", type=int)
    k.add_argument("--signature", type=_signature, help="exponents, e.g. 8,3,1")
    k.add_argument("--method", choices=("macmahon", "recursive", "series"),
                   default="macmahon")
    k.add_argument("--check", action="store_true", help="run all methods and compare")
    k.set_defaults(fn=_cmd_k)

    c = sub.add_parser("constants", parents=[table], help="analytic constants table")
    c.add_argument("--k", type=int, help="also print rho_k and a_k")
    c.add_argument("--sieve-bound", dest="sieve_bound",
                   type=_int_at_least("--sieve-bound", 10_000),
                   help="also print the prime sums from a sieve up to this bound")
    c.set_defaults(fn=_cmd_constants)

    a = sub.add_parser("approx", parents=[table],
                       help="estimate of K at a signature, against exact K")
    a.add_argument("--signature", type=_signature, required=True)
    a.set_defaults(fn=_cmd_approx)

    r = sub.add_parser("ratio-scan", parents=[table],
                       help="extremes of K/estimate per signature weight")
    r.add_argument("--omega-max", dest="omega_max", type=int, default=12)
    r.set_defaults(fn=_cmd_ratio_scan)

    o = sub.add_parser("optimum", parents=[table], help="closed-form maximizer of F")
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--A", dest="budget", type=float, required=True)
    o.set_defaults(fn=_cmd_optimum)

    w = sub.add_parser("witness", parents=[table],
                       help="integer witness m with log K(m): exact, or the fitted "
                            "lower sandwich unit (C3' = 1), not a proven bound")
    w.add_argument("--log-n", dest="log_n", type=_log_n_list, required=True,
                   help="budget log n, or a comma list for a sweep table")
    w.add_argument("--kappa", type=float, default=op.KAPPA)
    w.set_defaults(fn=_cmd_witness)

    d = sub.add_parser("deficit", parents=[table], help="penalty below the optimum")
    d.add_argument("--signature", type=_signature, required=True)
    d.add_argument("--A", dest="budget", type=float, required=True)
    d.add_argument("--k", type=int)
    d.set_defaults(fn=_cmd_deficit)

    h = sub.add_parser("champions", parents=[table], help="champion enumeration")
    h.add_argument("--x", type=_int_at_least("--x", 1), required=True,
                   help="enumeration bound (decimal)")
    h.add_argument("--table", choices=("plain", "fig2"), default="plain",
                   help="fig2 adds the K factorization column")
    h.add_argument("--census", action="store_true")
    h.add_argument("--stats", action="store_true")
    h.add_argument("--cache", dest="cache_path", type=str,
                   default=os.environ.get(ENV_CACHE) or None,
                   help=f"census cache file (default ${ENV_CACHE})")
    h.set_defaults(fn=_cmd_champions)

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--fast", action="store_true", help="shrink the random harnesses")
    v.set_defaults(fn=_cmd_verify)
    return top


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args, sys.stdout)
    except ResourceLimitError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 2
    except (KalmarError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
