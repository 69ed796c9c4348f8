"""Command-line front end: compute, count, verify, and report.

Commands: rank, count, census, jt, verify, sample.  Output goes to stdout
(or --output) as text, JSON, or CSV; progress and timing notes go to
stderr so that reports are byte-identical from run to run.

Every command builds its results as CensusReports.  Exit codes: 0
success, 1 when some report's verdict is "mismatch" (an exact count that
differs from its closed form, or a `sample` or `count --mode mc` estimate
more than four target standard errors off), 2 usage or parse error, 3
enumeration cap exceeded.  The cap, 10^7 by default, is charged
before any work starts: Q^(free) for a count or census with `free` open
entries, Q^(u+v-1) for a jt count on either path, and the size of each
tuple sweep for the verify suites.  It can be overridden with --cap or the
HANKEL_CENSUS_CAP variable.

JSON output is one record per report, an object for rank, count, jt and
sample and a list for census and verify.  Records carry a fixed schema
(field "schema": 1); exact counts are serialized as decimal strings
because they outgrow doubles quickly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from hankelcensus.census import (
    DEFAULT_CAP,
    SUITES,
    CapExceededError,
    CensusReport,
    CountQuery,
    MonteCarloEstimate,
    brute_census,
    brute_count_jt_singular,
    brute_count_rank_le,
    count_jt_singular_formula,
    count_rank_eq_formula,
    count_rank_le_formula,
    make_report,
    monte_carlo_rank_le,
    rank_le_probability,
    target_stderr,
    verify,
)
from hankelcensus.gf import _BUILTIN_MODULI, FieldSpec, _decimal, parse_element, parse_field
from hankelcensus.hankel import SeqTuple, row_reversal_sign
from hankelcensus.ranklaw import rank_via_reduction

__all__ = ["main", "build_parser"]

_SCHEMA_VERSION = 1


def integer(text: str) -> int:
    """An integer option: ASCII decimal digits after an optional '-', as in field specs."""
    return _decimal(text, signed=True)


def _parse_fields(text: str) -> list[FieldSpec]:
    """A comma-separated list of field specs.  A 'p^d:c0,...,cd' spec takes
    its d+1 coefficients (two for 'p:c0,c1'); the next item starts a new
    spec."""
    items = text.split(",")
    specs = []
    while items:
        spec = items.pop(0)
        head, colon, _ = spec.partition(":")
        if colon:
            _, caret, deg = head.strip().partition("^")
            try:
                more = _decimal(deg) if caret else 1
            except ValueError:
                more = 0  # parse_field reports the bad degree
            spec = ",".join([spec] + items[:more])
            del items[:more]
        specs.append(parse_field(spec))
    return specs


def _default_cap() -> int:
    env = os.environ.get("HANKEL_CENSUS_CAP")
    if env is not None:
        try:
            cap = integer(env)
        except ValueError:
            raise ValueError(f"HANKEL_CENSUS_CAP must be an integer, got {env!r}")
        if cap < 1:
            raise ValueError("HANKEL_CENSUS_CAP must be >= 1")
        return cap
    return DEFAULT_CAP


def _parse_tuple(field: FieldSpec, text: str | None) -> SeqTuple:
    if not text:
        return SeqTuple(field, ())
    entries = tuple(parse_element(field, part) for part in text.split(","))
    return SeqTuple(field, entries)


def _field_name(field: FieldSpec) -> str:
    """GF(q) for a prime field or one with its order's built-in modulus,
    else the spec string, so that two fields of one order read apart."""
    if field.d == 1 or _BUILTIN_MODULI.get(field.order) == (field.p, field.modulus):
        return str(field)
    return field.spec_string()


def _value_json(value):
    """A count or probability as a decimal string, an estimate as an object."""
    if value is None:
        return None
    if isinstance(value, MonteCarloEstimate):
        return {
            "successes": str(value.successes),
            "trials": str(value.trials),
            "estimate": str(value.estimate),
            "stderr": value.stderr,
        }
    return str(value)


_VERDICT_JSON = {"estimate-within-tolerance": "estimate"}


def _report_record(report: CensusReport, command_prefix: str = "") -> dict:
    return {
        "schema": _SCHEMA_VERSION,
        "field": {"p": report.field.p, "d": report.field.d, "modulus": list(report.field.modulus)},
        "command": command_prefix + report.check,
        "params": report.params,
        "formula": _value_json(report.formula_value),
        "observed": _value_json(report.observed_value),
        "verdict": _VERDICT_JSON.get(report.verdict, report.verdict),
        "elapsed_ms": int(report.elapsed_s * 1000),
    }


def _emit(args, text: str) -> None:
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror or exc}") from exc


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _float_text(x: float) -> str:
    return format(x, ".6g")


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _mismatches(reports: list[CensusReport]) -> int:
    return sum(1 for r in reports if r.verdict == "mismatch")


def _since(started: float) -> float:
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Command handlers
#
# Each returns its result, one CensusReport or a list of them, and a
# function that renders it as text (or CSV); `main` writes JSON itself and
# picks the exit code from the verdicts.
# ----------------------------------------------------------------------


def _cmd_rank(args):
    started = time.perf_counter()
    field = parse_field(args.field)
    if args.m < 0 or args.n < 0:
        raise ValueError(f"need m, n >= 0, got m={args.m}, n={args.n}")
    x = _parse_tuple(field, args.entries)
    expected = args.m + args.n + 1
    if len(x) != expected:
        raise ValueError(f"need {expected} entries for m={args.m}, n={args.n}, got {len(x)}")
    rank, shape = rank_via_reduction(x, args.m, args.n)
    params = {"m": args.m, "n": args.n, "entries": str(x), "reduced_shape": [shape.rdeg, shape.cdeg]}
    report = make_report("rank", field, params, formula=None, observed=rank, elapsed_s=_since(started))
    return report, lambda: _text([
        f"field: {field}", f"shape: H({args.m},{args.n})", f"rank: {rank}", f"reduced-shape: H({shape.rdeg},{shape.cdeg})"
    ])


def _query(args) -> CountQuery:
    field = parse_field(args.field)
    return CountQuery(field, args.m, args.n, args.r, _parse_tuple(field, args.prefix))


def _estimate(args, query: CountQuery, params: dict, started: float) -> CensusReport:
    """The seeded Monte Carlo estimate of P(rank <= r) against its target."""
    target = rank_le_probability(query)
    est = monte_carlo_rank_le(query, args.trials, args.seed)
    return make_report(args.command, query.field, params, formula=target, observed=est, elapsed_s=_since(started))


def _estimate_lines(report: CensusReport, *before_verdict: str) -> list[str]:
    est, target = report.observed_value, report.formula_value
    return [
        f"estimate: {est.estimate} = {_float_text(float(est.estimate))}",
        f"stderr: {_float_text(est.stderr)}",
        f"target: {target} = {_float_text(float(target))}",
        *before_verdict,
        f"verdict: {report.verdict}",
    ]


def _formula_brute(args, field: FieldSpec, params: dict, formula, brute, started: float) -> CensusReport:
    """Run the closed form, the brute count or both, as --mode says; each
    is called with no arguments."""
    value = formula() if args.mode in ("formula", "both") else None
    observed = brute() if args.mode in ("brute", "both") else None
    return make_report(args.command, field, params, formula=value, observed=observed, elapsed_s=_since(started))


def _formula_brute_lines(report: CensusReport) -> list[str]:
    named = (("formula", report.formula_value), ("brute", report.observed_value), ("verdict", report.verdict))
    return [f"{name}: {value}" for name, value in named if value is not None]


def _cmd_count(args):
    started = time.perf_counter()
    query = _query(args)
    field = query.field
    params = {"m": args.m, "n": args.n, "r": args.r, "k": query.k}
    if query.k:
        params["prefix"] = str(query.prefix)
    if args.mode == "mc":
        report = _estimate(args, query, {**params, "trials": args.trials, "seed": args.seed}, started)
        body = _estimate_lines
    else:
        report = _formula_brute(
            args, field, {**params, "mode": args.mode},
            lambda: count_rank_le_formula(query), lambda: brute_count_rank_le(query, args.cap), started,
        )
        body = _formula_brute_lines
    return report, lambda: _text([f"field: {field}", f"params: {_params_text(params)}"] + body(report))


def _cmd_census(args):
    started = time.perf_counter()
    field = parse_field(args.field)
    prefix = _parse_tuple(field, args.prefix)
    dist = brute_census(field, args.m, args.n, prefix, args.cap)
    k = len(prefix)
    # the closed form for exact ranks has no prefix; compare only when k = 0,
    # swapping degrees if needed since rank is transpose-invariant
    lo, hi = sorted((args.m, args.n))
    elapsed_s = _since(started)
    reports = [
        make_report(
            "census", field, {"m": args.m, "n": args.n, "k": k, "rank": rank},
            formula=count_rank_eq_formula(field, lo, hi, rank) if k == 0 else None,
            observed=count, elapsed_s=elapsed_s,
        )
        for rank, count in dist.sorted_items()
    ]

    def render():
        if args.format == "csv":
            return _csv([["rank", "count"]] + [[r.params["rank"], r.observed_value] for r in reports])
        params = {"m": args.m, "n": args.n, "k": k}
        if k:
            params["prefix"] = str(prefix)
        lines = [f"field: {field}", f"params: {_params_text(params)}", f"total: {dist.total}"]
        for r in reports:
            line = f"rank {r.params['rank']}: {r.observed_value}"
            lines.append(line if k else f"{line} formula {r.formula_value} {r.verdict}")
        if not k:
            lines.append(f"verdict: {'mismatch' if _mismatches(reports) else 'match'}")
        return _text(lines)

    return reports, render


def _flip_pattern(u: int, v: int) -> str:
    names = []
    for t in range(2 * v - 1):
        idx = u - v + 1 + t
        names.append("0" if idx < 0 else "1" if idx == 0 else f"y{idx}")
    return "(" + ",".join(names) + ")"


def _cmd_jt(args):
    started = time.perf_counter()
    field = parse_field(args.field)
    if args.u < 1 or args.v < 1:
        raise ValueError(
            f"need u >= 1 and v >= 1 (got u={args.u}, v={args.v}): at u=0 or v=0 the "
            "matrix is unitriangular or empty, its determinant is constantly 1, and "
            "the singular count is 0 rather than a power of the field order"
        )
    params = {"u": args.u, "v": args.v}
    report = _formula_brute(
        args, field, {**params, "mode": args.mode, "path": args.path},
        lambda: count_jt_singular_formula(field, args.u, args.v),
        lambda: brute_count_jt_singular(field, args.u, args.v, args.cap, path=args.path),
        started,
    )

    def render():
        lines = [f"field: {field}", f"params: {_params_text(params)}"] + _formula_brute_lines(report)
        if args.show_flip:
            sign = row_reversal_sign(field, args.v)
            lines.append(
                f"flip: x = {_flip_pattern(args.u, args.v)} -> H({args.v - 1},{args.v - 1}), "
                f"row-reversal sign {sign}"
            )
        return _text(lines)

    return report, render


_VERDICT_WORD = {
    "match": "PASS",
    "estimate-within-tolerance": "PASS",
    "mismatch": "FAIL",
    "skipped": "SKIP",
    None: "INFO",
}


def _cmd_verify(args):
    started = time.perf_counter()
    fields = _parse_fields(args.field)
    reports = verify(args.suite, fields, max_n=args.max_n, cap=args.cap)
    print(f"verify: {len(reports)} checks in {_since(started):.2f}s", file=sys.stderr)

    def render():
        if args.format == "csv":
            return _csv(
                [["check", "field", "params", "formula", "observed", "verdict"]]
                + [[r.check, _field_name(r.field), _params_text(r.params), r.formula_value, r.observed_value, r.verdict]
                   for r in reports]
            )
        lines = [
            f"{_VERDICT_WORD.get(r.verdict, r.verdict):4} {r.check} field={_field_name(r.field)} "
            f"{_params_text(r.params)} formula={r.formula_value} observed={r.observed_value}"
            for r in reports
        ]
        failures = _mismatches(reports)
        lines.append(f"result: {'fail' if failures else 'pass'} ({len(reports)} checks, {failures} failures)")
        return _text(lines)

    return reports, render


def _cmd_sample(args):
    started = time.perf_counter()
    query = _query(args)
    params = {"m": args.m, "n": args.n, "r": args.r, "k": query.k, "trials": args.trials, "seed": args.seed}
    report = _estimate(args, query, params, started)

    def render():
        est, target = report.observed_value, report.formula_value
        diff = float(est.estimate - target)
        sigma = target_stderr(target, est.trials)
        z = 0.0 if diff == 0 else (diff / sigma if sigma else float("inf"))
        return _text(
            [f"field: {query.field}", f"params: {_params_text(params)}", f"successes: {est.successes}"]
            + _estimate_lines(report, f"z: {_float_text(z)}")
        )

    return report, render


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


_JOBS_HELP = "accepted and ignored: enumeration runs on one thread (must be >= 1)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankel-census",
        description="Exact counts and verification for ranks of Hankel matrices over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=("text", "json"), cap=False):
        p.add_argument("--field", required=True, help="field spec: Q or p^d:c0,...,cd")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        if cap:
            p.add_argument("--cap", type=integer, default=None, help="enumeration cap (default 10^7 or HANKEL_CENSUS_CAP)")

    p = sub.add_parser("rank", help="rank of a Hankel matrix from explicit entries")
    common(p)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("entries", help="comma-separated m+n+1 field elements")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("count", help="count prefix completions with rank <= r")
    common(p, cap=True)
    p.add_argument("--jobs", type=integer, default=1, help=_JOBS_HELP)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--prefix", default="", help="comma-separated fixed first entries")
    p.add_argument("--mode", choices=("formula", "brute", "both", "mc"), default="both")
    p.add_argument("--trials", type=integer, default=100000, help="Monte Carlo trials (mc mode)")
    p.add_argument("--seed", type=integer, default=0, help="Monte Carlo seed (mc mode)")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("census", help="full rank histogram over prefix completions")
    common(p, formats=("text", "json", "csv"), cap=True)
    p.add_argument("--jobs", type=integer, default=1, help=_JOBS_HELP)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--prefix", default="")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("jt", help="count singular Jacobi-Trudi matrices")
    common(p, cap=True)
    p.add_argument("--u", type=integer, required=True)
    p.add_argument("--v", type=integer, required=True)
    p.add_argument("--mode", choices=("formula", "brute", "both"), default="both")
    p.add_argument("--path", choices=("flip", "direct"), default="flip", help="brute-force route")
    p.add_argument("--show-flip", action="store_true", help="print the upside-down Hankel tuple pattern")
    p.set_defaults(handler=_cmd_jt)

    p = sub.add_parser("verify", help="run property and counting suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument(
        "--field", default="2,3",
        help="comma-separated field specs; a p^d: spec takes its d+1 coefficients",
    )
    p.add_argument("--max-n", type=integer, default=None, help="override the per-suite size bound")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default="-")
    p.add_argument("--cap", type=integer, default=None)
    p.add_argument("--jobs", type=integer, default=1, help=_JOBS_HELP)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="seeded Monte Carlo estimate of the rank-bound probability")
    common(p)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--prefix", default="")
    p.add_argument("--trials", type=integer, required=True)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(handler=_cmd_sample)

    return parser


# one parser per process, built by the first main call (importing this
# module builds none); parse_args leaves it as it was, errors included
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if hasattr(args, "cap"):
            args.cap = args.cap if args.cap is not None else _default_cap()
            if args.cap < 1:
                raise ValueError("--cap must be >= 1")
        if hasattr(args, "jobs") and args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        if hasattr(args, "trials") and args.trials < 1:
            raise ValueError("--trials must be >= 1")
        result, render = args.handler(args)
        reports = result if isinstance(result, list) else [result]
        if args.format == "json":
            # verify's records name their suite check under the command
            prefix = "verify/" if args.command == "verify" else ""
            records = [_report_record(r, prefix) for r in reports]
            _emit(args, json.dumps(records if isinstance(result, list) else records[0], indent=2) + "\n")
        else:
            _emit(args, render())
        return 1 if _mismatches(reports) else 0
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
