"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hankelcensus import cli
from hankelcensus.census import make_report
from hankelcensus.cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_command(capsys):
    code, out, _ = run_cli(capsys, "rank", "--field", "2", "--m", "2", "--n", "3", "0,0,0,0,0,1")
    assert code == 0
    assert "rank: 1" in out
    assert "reduced-shape: H(1,4)" in out


def test_rank_zero_input(capsys):
    code, out, _ = run_cli(capsys, "rank", "--field", "3", "--m", "1", "--n", "1", "0,0,0")
    assert code == 0
    assert "rank: 0" in out


def test_rank_wrong_entry_count(capsys):
    code, _, err = run_cli(capsys, "rank", "--field", "2", "--m", "2", "--n", "3", "0,0,1")
    assert code == 2
    assert "6 entries" in err


def test_rank_rejects_negative_degrees(capsys):
    # the wording of count, census and sample; H(-1,1) once read as rank 0
    for m, n in (("-1", "1"), ("-2", "2")):
        code, out, err = run_cli(capsys, "rank", "--field", "2", "--m", m, "--n", n, "1")
        assert code == 2 and out == ""
        assert err == f"error: need m, n >= 0, got m={m}, n={n}\n"


def test_out_of_range_literals_exit_2(capsys):
    for field, entries in (("5", "7,0,-3"), ("5", "0,0,5"), ("4", "7,0,1"), ("9", "0,3*t,1")):
        code, out, err = run_cli(capsys, "rank", "--field", field, "--m", "1", "--n", "1", entries)
        assert code == 2 and out == ""
        assert "out of range" in err
    code, out, _ = run_cli(capsys, "rank", "--field", "5", "--m", "1", "--n", "1", "4,0,-4")
    assert code == 0 and "rank: 2" in out
    code, _, err = run_cli(
        capsys, "count", "--field", "3", "--m", "2", "--n", "2", "--r", "1", "--prefix", "3"
    )
    assert code == 2 and "out of range" in err


def test_sample_zero_successes_is_within_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--field", "101", "--m", "4", "--n", "4", "--r", "1", "--trials", "1000"
    )
    assert code == 0
    assert "successes: 0" in out
    assert "verdict: estimate-within-tolerance" in out
    z = float(next(line for line in out.splitlines() if line.startswith("z: "))[3:])
    assert abs(z) < 1e-3


def test_count_both_match(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--field", "2", "--m", "2", "--n", "3", "--r", "1", "--mode", "both"
    )
    assert code == 0
    assert "formula: 4" in out
    assert "brute: 4" in out
    assert "verdict: match" in out


def test_count_formula_with_prefix(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--field", "3", "--m", "3", "--n", "3", "--r", "2",
        "--prefix", "0,1", "--mode", "formula",
    )
    assert code == 0
    assert "formula: 9" in out


def test_count_cap_exit(capsys):
    code, _, err = run_cli(
        capsys, "count", "--field", "2", "--m", "20", "--n", "20", "--r", "20", "--mode", "brute"
    )
    assert code == 3
    assert "cap" in err


def test_count_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HANKEL_CENSUS_CAP", "4")
    code, _, err = run_cli(
        capsys, "count", "--field", "2", "--m", "1", "--n", "1", "--r", "1", "--mode", "brute"
    )
    assert code == 3
    monkeypatch.setenv("HANKEL_CENSUS_CAP", "100")
    code, out, _ = run_cli(
        capsys, "count", "--field", "2", "--m", "1", "--n", "1", "--r", "1", "--mode", "brute"
    )
    assert code == 0 and "brute: 4" in out


def test_count_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--field", "2", "--m", "2", "--n", "3", "--r", "1",
        "--mode", "both", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["field"] == {"p": 2, "d": 1, "modulus": [0, 1]}
    assert record["formula"] == "4"
    assert record["observed"] == "4"
    assert record["verdict"] == "match"
    assert isinstance(record["elapsed_ms"], int)


# each command run under a closed form made wrong on purpose: an exact
# formula off by one, or a target probability replaced by its complement
MISMATCH_RUNS = (
    ("count_rank_le_formula", "count --field 2 --m 2 --n 3 --r 1 --mode both"),
    ("count_jt_singular_formula", "jt --field 2 --u 2 --v 3 --mode both"),
    ("count_rank_eq_formula", "census --field 2 --m 1 --n 1"),
    ("rank_le_probability", "count --field 9 --m 2 --n 3 --r 2 --mode mc --trials 2000 --seed 1"),
    ("rank_le_probability", "sample --field 101 --m 2 --n 2 --r 1 --trials 500"),
)


@pytest.mark.parametrize("name, run", MISMATCH_RUNS)
def test_a_wrong_formula_is_a_mismatch_and_exit_1(capsys, monkeypatch, name, run):
    right = getattr(cli, name)

    def wrong(*args):
        value = right(*args)
        return 1 - value if name == "rank_le_probability" else value + 1

    monkeypatch.setattr(cli, name, wrong)
    argv = run.split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-1] == "verdict: mismatch"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    records = json.loads(out)
    records = records if isinstance(records, list) else [records]
    assert "mismatch" in {record["verdict"] for record in records}
    if argv[0] == "census":
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1 and out.startswith("rank,count\n")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_exits_1_when_one_report_is_a_mismatch(capsys, monkeypatch, fmt):
    def one_wrong(suite, fields, **kwargs):
        field = fields[0]
        return [
            make_report("ok", field, {"m": 1}, formula=2, observed=2),
            make_report("off", field, {"m": 2}, formula=3, observed=4),
        ]

    monkeypatch.setattr(cli, "verify", one_wrong)
    code, out, _ = run_cli(capsys, "verify", "--field", "2", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[1].startswith("FAIL off field=GF(2) m=2")
        assert out.splitlines()[-1] == "result: fail (2 checks, 1 failures)"
    elif fmt == "json":
        records = json.loads(out)
        assert [(r["command"], r["verdict"]) for r in records] == [
            ("verify/ok", "match"), ("verify/off", "mismatch")
        ]
    else:
        assert out.splitlines()[-1] == "off,GF(2),m=2,3,4,mismatch"


def test_census_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "2", "--m", "1", "--n", "1")
    assert code == 0
    assert "total: 8" in out
    assert "rank 0: 1 formula 1 match" in out
    assert "rank 1: 3 formula 3 match" in out
    assert "rank 2: 4 formula 4 match" in out
    assert "verdict: match" in out


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "2", "--m", "1", "--n", "1", "--format", "csv")
    assert code == 0
    assert out == "rank,count\n0,1\n1,3\n2,4\n"


def test_census_prefix_totals(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "2", "--m", "1", "--n", "1", "--prefix", "0")
    assert code == 0
    assert "total: 4" in out
    assert "verdict" not in out  # no closed form with a pinned prefix


def test_census_swapped_degrees_compare(capsys):
    # m > n still compares, through the transpose-invariance swap
    code, out, _ = run_cli(capsys, "census", "--field", "2", "--m", "2", "--n", "1")
    assert code == 0
    assert "verdict: match" in out


def test_jt_both(capsys):
    code, out, _ = run_cli(capsys, "jt", "--field", "2", "--u", "2", "--v", "5", "--mode", "both")
    assert code == 0
    assert "formula: 32" in out and "brute: 32" in out and "verdict: match" in out


def test_jt_flip_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "jt", "--field", "3", "--u", "1", "--v", "3", "--mode", "both", "--show-flip"
    )
    assert code == 0
    assert "formula: 9" in out and "brute: 9" in out
    assert "flip: x = (0,1,y1,y2,y3) -> H(2,2)" in out


def test_jt_degenerate_exit(capsys):
    code, _, err = run_cli(capsys, "jt", "--field", "2", "--u", "0", "--v", "3")
    assert code == 2
    assert "unitriangular" in err


def test_verify_pass(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "lemmas", "--field", "2", "--max-n", "3"
    )
    assert code == 0
    assert "result: pass" in out
    assert "verify:" in err  # timing goes to stderr only
    assert "s" in err


def test_verify_field_list_keeps_an_explicit_modulus_whole(capsys):
    # a p^d: spec takes its d+1 coefficients, and the next item starts a
    # new spec
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--field", "2^3:1,0,1,1,13", "--max-n", "1",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert all(r["verdict"] != "mismatch" for r in records)
    fields = [json.dumps(r["field"]) for r in records]
    assert [json.loads(f) for f in dict.fromkeys(fields)] == [
        {"p": 2, "d": 3, "modulus": [1, 0, 1, 1]},
        {"p": 13, "d": 1, "modulus": [0, 1]},
    ]
    # too few coefficients, or a coefficient out of range, still exit 2
    for field, message in (("2^3:1,0,1", "degree 3"), ("2^3:1,0,1,13", "out of range")):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--field", field, "--max-n", "1")
        assert code == 2 and out == "" and message in err


def test_verify_names_a_field_by_its_modulus_when_not_builtin(capsys):
    # two GF(8)s read apart in text and CSV: the built-in one as GF(8), the
    # other by its spec; a prime field, and the built-in GF(4) modulus
    # given explicitly, keep GF(q)
    fields = "8,2^3:1,0,1,1,3:1,1,2^2:1,1,1"
    names = ["GF(8)", "2^3:1,0,1,1", "GF(3)", "GF(4)"]
    argv = ["verify", "--suite", "lemmas", "--field", fields, "--max-n", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    seen = [re.search(r" field=(\S+) ", line).group(1) for line in out.splitlines()[:-1]]
    assert list(dict.fromkeys(seen)) == names
    assert len(seen) == 4 * seen.count("GF(8)")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[1] for row in rows] == seen


def test_main_builds_one_parser_that_acts_as_a_fresh_one(capsys):
    runs = [
        ["count", "--field", "8", "--m", "2", "--n", "3", "--r", "2", "--mode", "both"],
        ["census", "--field", "3", "--m", "1", "--n", "2", "--format", "csv"],
        ["count", "--field", "3", "--m", "1"],  # usage error: --n and --r missing
        ["rank", "--field", "2", "--m", "1", "--n", "1", "0,1,1"],
        ["count", "--field", "3", "--m", "1", "--n", "1", "--r", "1", "--mode", "nope"],
        ["count", "--field", "5", "--m", "1", "--n", "1", "--r", "1", "--mode", "mc",
         "--trials", "40", "--seed", "2"],
        ["count", "--field", "5", "--m", "1", "--n", "1", "--r", "1"],
        ["sample", "--field", "5", "--m", "1", "--n", "1", "--r", "1", "--trials", "50"],
        ["jt", "--field", "2", "--u", "2", "--v", "2", "--show-flip"],
        ["verify", "--suite", "jt", "--field", "2", "--max-n", "2", "--format", "csv"],
        ["census", "--help"],
        ["rank", "--field", "2", "--m", "0", "--n", "0", "2"],  # parse error: exit 2
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # verify's timing note on stderr differs from run to run
        return code, out, err if argv[0] != "verify" else ""

    cli._shared_parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert cli._shared_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._shared_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 2]
    # build_parser still makes a new parser on each call
    assert build_parser() is not build_parser()
    # importing the module builds none: the benchmark times that import
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import hankelcensus.cli as c; print(c._shared_parser.cache_info().currsize)"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_verify_negative_max_n_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--field", "3", "--max-n", "-1")
    assert code == 2 and out == ""
    assert "max_n >= 0" in err


def test_verify_witness_cap_counts_tail_vectors(capsys):
    # the sweeps test (q-1)*q^m tail vectors against every tuple, so a cap
    # charged only q^(m+n+1) let this run for more than 30 s; it now skips
    # before doing any work
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "witnesses", "--field", "11", "--max-n", "2",
        "--cap", "1000000",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SKIP witnesses field=GF(11) reason=enumeration needs ")
    assert "cap is 1000000" in lines[0]
    assert lines[-1] == "result: pass (1 checks, 0 failures)"


def test_verify_empty_family_is_skipped_not_passed(capsys):
    # at --max-n 0 no m >= 1 is swept, so four families check nothing
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "witnesses", "--field", "2", "--max-n", "0"
    )
    assert code == 0
    words = {line.split()[1]: line.split()[0] for line in out.splitlines()[:-1]}
    assert words == {
        "tail-solver-annihilation": "PASS",
        "tail-solver-count": "PASS",
        "truncation-bijection": "SKIP",
        "free-entry-bijection": "SKIP",
        "weak-strong-count-ratio": "SKIP",
        "free-entry-closure": "SKIP",
    }
    assert "SKIP truncation-bijection field=GF(2) max_m=0 instances=0 " in out
    assert out.splitlines()[-1] == "result: pass (6 checks, 0 failures)"


def test_verify_suite_with_no_report_is_skipped_not_passed(capsys):
    # the jt grid starts at weight 1, so --max-n 0 sweeps no family at all;
    # the suite gets one skip report instead of an empty pass
    code, out, _ = run_cli(capsys, "verify", "--suite", "jt", "--field", "2,3", "--max-n", "0")
    assert code == 0
    assert out.splitlines() == [
        "SKIP jt field=GF(2) reason=no instance in the grid formula=None observed=None",
        "SKIP jt field=GF(3) reason=no instance in the grid formula=None observed=None",
        "result: pass (2 checks, 0 failures)",
    ]


def test_cli_import_loads_no_thread_pool():
    # a fresh interpreter, since pytest itself may import concurrent.futures
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hankelcensus.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_all_stdout_matches_golden_file(capsys):
    # every instance count, formula and observed value of the full suite on
    # GF(2..5), pinned byte for byte; timing goes to stderr and is not pinned
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--field", "2,3,4,5", "--jobs", "1"
    )
    assert code == 0
    assert out.encode() == (GOLDEN / "verify_all_2_3_4_5.txt").read_bytes()


GF2_17 = "2^17:1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1"

# count --mode brute and census on a prime field, log-table fields and a
# field above 2^16, with empty, all-zero and nonzero prefixes; each runs at
# --jobs 1 and 3 in text and JSON, which pins that the ignored flag changes
# nothing.  Above 2^16 the nonzero heads leave no free entry: a head with
# two or more walks one block per value of its first free entry, each
# paying for an inverse
GOLDEN_RUNS = (
    "count --field 5 --m 3 --n 3 --r 3",
    "count --field 5 --m 3 --n 3 --r 2 --prefix 0,0",
    "count --field 5 --m 3 --n 4 --r 3 --prefix 2,0,4",
    "count --field 5 --m 2 --n 4 --r 4 --prefix 0",
    "census --field 5 --m 3 --n 3",
    "census --field 5 --m 3 --n 3 --prefix 0,0,0",
    "census --field 5 --m 2 --n 3 --prefix 0,1",
    "count --field 9 --m 2 --n 3 --r 2",
    "count --field 9 --m 2 --n 2 --r 2 --prefix 0,0",
    "count --field 9 --m 2 --n 3 --r 1 --prefix t,2*t+1",
    "census --field 9 --m 2 --n 2",
    "census --field 9 --m 2 --n 2 --prefix 0",
    "census --field 8 --m 2 --n 3 --prefix 0,0,t^2+1",
    f"count --field {GF2_17} --m 0 --n 0 --r 0 --prefix t",
    f"count --field {GF2_17} --m 1 --n 1 --r 0 --prefix t^3+1,t,1",
    f"census --field {GF2_17} --m 1 --n 1 --prefix 0,0",
    f"census --field {GF2_17} --m 1 --n 1 --prefix 0,0,0",
    f"census --field {GF2_17} --m 1 --n 2 --prefix 1,t,0,t^16+1",
)


def golden_stdout(capsys, runs, fmt: str, job_counts=()) -> str:
    """Every run's stdout under its command line, once per --jobs value if any."""
    parts = []
    for run in runs:
        argv = run.split()
        if argv[0] == "count" and "--mode" not in argv:
            argv += ["--mode", "brute"]
        for jobs in job_counts or (None,):
            full = argv + ["--format", fmt] + (["--jobs", jobs] if jobs else [])
            code, out, _ = run_cli(capsys, *full)
            assert code == 0, full
            # timing is the only field that may differ between runs
            out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
            parts.append(f"$ {' '.join(full)}\n{out}")
    return "".join(parts)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_census_stdout_matches_golden_file(capsys, fmt):
    golden = GOLDEN / f"count_census_{fmt}.txt"
    assert golden_stdout(capsys, GOLDEN_RUNS, fmt, ("1", "3")).encode() == golden.read_bytes()


# the witness suite's default grids on a prime field, GF(2^k) and GF(3^2)
# log-table fields and GF(16), whose grid is the one-column (1, 0), plus
# GF(4) on the larger (3, 2) grid; no family in them has zero instances
WITNESS_RUNS = (
    "verify --suite witnesses --field 7",
    "verify --suite witnesses --field 8",
    "verify --suite witnesses --field 9",
    "verify --suite witnesses --field 16",
    "verify --suite witnesses --field 4 --max-n 3",
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_witnesses_stdout_matches_golden_file(capsys, fmt):
    golden = GOLDEN / f"verify_witnesses_{fmt}.txt"
    assert golden_stdout(capsys, WITNESS_RUNS, fmt).encode() == golden.read_bytes()


GF256 = "2^8:1,0,1,1,1,0,0,0,1"
GF3_7 = "3^7:1,0,0,0,0,1,2,1"

# seeded Monte Carlo on prime, log-table (p = 2 and odd p) and code-operation
# fields: GF(2), GF(3) and GF(5) hit zero pivots often, and the runs cover
# r = 0, r = m = n, m != n, a nonempty prefix, the full-width regime (every
# trial counts) and count --mode mc
SAMPLE_RUNS = (
    "sample --field 101 --m 4 --n 4 --r 4 --trials 3000 --seed 1",
    "sample --field 2147483647 --m 3 --n 5 --r 3 --trials 2000 --seed 2",
    "sample --field 64 --m 4 --n 4 --r 4 --trials 3000 --seed 3",
    f"sample --field {GF256} --m 3 --n 3 --r 3 --trials 2000 --seed 4",
    f"sample --field {GF3_7} --m 2 --n 2 --r 2 --trials 5000 --seed 5",
    f"sample --field {GF2_17} --m 2 --n 2 --r 2 --trials 200 --seed 6",
    "sample --field 2 --m 4 --n 4 --r 3 --trials 3000 --seed 7",
    "sample --field 3 --m 2 --n 4 --r 2 --trials 3000 --seed 8",
    "sample --field 101 --m 2 --n 2 --r 2 --prefix 3 --trials 3000 --seed 9",
    "sample --field 5 --m 3 --n 3 --r 3 --prefix 2,0 --trials 2000 --seed 10",
    "sample --field 2 --m 2 --n 2 --r 0 --trials 3000 --seed 11",
    "sample --field 7 --m 3 --n 2 --r 3 --trials 500 --seed 12",
    "count --field 9 --m 2 --n 3 --r 2 --mode mc --trials 2000 --seed 13",
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sample_stdout_matches_golden_file(capsys, fmt):
    golden = GOLDEN / f"sample_{fmt}.txt"
    assert golden_stdout(capsys, SAMPLE_RUNS, fmt).encode() == golden.read_bytes()


# rank on a prime field, a log-table field and a field above 2^16, with
# negative, summed and zero-heavy literals and rank-deficient tuples (JSON
# prints the entries through format_element); jt by both brute paths on
# GF(5) and GF(9), u < v, u = v and u > v.  Above 2^16 jt runs the formula
# only: its brute paths at u = v = 1 take seconds
RANK_JT_RUNS = (
    "rank --field 7 --m 2 --n 3 3,0,-1,6,5,2",
    "rank --field 7 --m 2 --n 3 1,3,2,6,4,5",
    "rank --field 7 --m 2 --n 2 0,0,0,0,-2",
    "rank --field 9 --m 2 --n 2 t,2*t+1,1+t+t,0,2*t",
    "rank --field 9 --m 2 --n 3 1,t,t+1,2*t+1,2,2*t",
    "rank --field 9 --m 3 --n 3 0,0,-1*t,1,2*t+-1,t^1,0",
    f"rank --field {GF2_17} --m 2 --n 2 t^16+1,t,0,1,t^3+t^2",
    f"rank --field {GF2_17} --m 2 --n 2 1,t,t^2,t^3,t^4",
    f"rank --field {GF2_17} --m 3 --n 4 t^16+1,t,0,1,t^3+t^2,t^15,1,t^16",
    "jt --field 5 --u 2 --v 3 --mode both --path flip --show-flip",
    "jt --field 5 --u 2 --v 3 --mode both --path direct --show-flip",
    "jt --field 5 --u 3 --v 3 --mode both --path flip --show-flip",
    "jt --field 5 --u 3 --v 3 --mode both --path direct --show-flip",
    "jt --field 5 --u 3 --v 2 --mode both --path flip --show-flip",
    "jt --field 5 --u 3 --v 2 --mode both --path direct --show-flip",
    "jt --field 9 --u 2 --v 2 --mode both --path flip --show-flip",
    "jt --field 9 --u 2 --v 2 --mode both --path direct --show-flip",
    "jt --field 9 --u 2 --v 3 --mode both --path flip --show-flip",
    "jt --field 9 --u 2 --v 3 --mode both --path direct --show-flip",
    f"jt --field {GF2_17} --u 1 --v 1 --mode formula --show-flip",
    f"jt --field {GF2_17} --u 3 --v 2 --mode formula --show-flip",
    f"jt --field {GF2_17} --u 2 --v 4 --mode formula --show-flip",
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rank_jt_stdout_matches_golden_file(capsys, fmt):
    golden = GOLDEN / f"rank_jt_{fmt}.txt"
    assert golden_stdout(capsys, RANK_JT_RUNS, fmt).encode() == golden.read_bytes()


def test_verify_gadget_skip_names_the_grid_limit(capsys):
    # the gadget work limit is not the cap, so --cap cannot lift it
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "witnesses", "--field", "29", "--cap", "1000000000"
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "SKIP witnesses field=GF(29) reason=no default grid fits GF(29): the smallest "
        "needs 682892 steps, over the limit of 300000; --max-n picks one "
        "formula=None observed=None"
    )


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "jt", "--field", "2", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert records and all(r["schema"] == 1 for r in records)
    assert all(r["verdict"] == "match" for r in records)


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "jt", "--field", "2", "--max-n", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "check,field,params,formula,observed,verdict"


def test_sample_deterministic(capsys):
    argv = ["sample", "--field", "101", "--m", "4", "--n", "4", "--r", "4",
            "--trials", "500", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "target: 1/101" in out1


def test_sample_full_width_is_certain(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--field", "2", "--m", "2", "--n", "1", "--r", "2",
        "--trials", "50", "--seed", "0",
    )
    assert code == 0
    assert "estimate: 1 = 1" in out
    assert "verdict: estimate-within-tolerance" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "count", "--field", "2", "--m", "1", "--n", "1", "--r", "1",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    record = json.loads(target.read_text())
    assert record["observed"] == "4"


def test_output_to_unwritable_path_exits_2(tmp_path, capsys):
    # a usage error, not the exit 1 of a verification mismatch
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(
        capsys, "rank", "--field", "2", "--m", "1", "--n", "1", "--output", str(target), "0,1,1"
    )
    assert code == 2 and out == "" and err.startswith("error: cannot write --output")
    assert not target.parent.exists()


def test_integer_options_take_ascii_decimals_only(capsys, monkeypatch):
    # the rule of field specs: no '_', '+', spaces or digits of other scripts
    count = ["count", "--field", "2", "--m", "1", "--n", "1", "--r", "1", "--mode", "brute"]
    for flag, bad in (("--n", "1_0"), ("--m", "\u0663"), ("--r", "+1"), ("--cap", " 9"), ("--seed", "1_0")):
        argv = count + [flag, bad]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"invalid integer value: {bad!r}" in capsys.readouterr().err
    monkeypatch.setenv("HANKEL_CENSUS_CAP", "1_000")
    code, out, err = run_cli(capsys, *count)
    assert code == 2 and out == "" and "HANKEL_CENSUS_CAP must be an integer" in err
    monkeypatch.setenv("HANKEL_CENSUS_CAP", "-4")
    code, out, err = run_cli(capsys, *count)
    assert code == 2 and out == "" and "HANKEL_CENSUS_CAP must be >= 1" in err
    monkeypatch.delenv("HANKEL_CENSUS_CAP")
    # negative values still reach the range checks and their messages
    for flag, message in (("--jobs", "--jobs must be >= 1"), ("--cap", "--cap must be >= 1")):
        code, out, err = run_cli(capsys, *count, flag, "-1")
        assert code == 2 and out == "" and message in err


def test_sample_negative_seed(capsys):
    argv = ["sample", "--field", "5", "--m", "2", "--n", "2", "--r", "1", "--trials", "300"]
    code, out, _ = run_cli(capsys, *argv, "--seed", "-3")
    assert code == 0 and "seed=-3" in out
    assert run_cli(capsys, *argv, "--seed", "-3")[:2] == (code, out)


def test_jobs_defaults_to_one_and_rejects_zero(capsys):
    # the flag is accepted and ignored, but it is still validated
    parser = build_parser()
    for argv in (
        ["count", "--field", "2", "--m", "1", "--n", "1", "--r", "1"],
        ["census", "--field", "2", "--m", "1", "--n", "1"],
        ["verify"],
    ):
        assert parser.parse_args(argv).jobs == 1
    code, _, err = run_cli(capsys, "census", "--field", "2", "--m", "1", "--n", "1", "--jobs", "0")
    assert code == 2 and "--jobs must be >= 1" in err


def test_bad_field_spec(capsys):
    code, _, err = run_cli(capsys, "rank", "--field", "6", "--m", "0", "--n", "0", "1")
    assert code == 2
    assert "prime power" in err
    # a modulus of the wrong degree or with a coefficient outside -p < c < p
    for field, message in (("5:1,2,1", "degree 1"), ("2^2:3,1,1", "out of range")):
        code, out, err = run_cli(capsys, "rank", "--field", field, "--m", "0", "--n", "0", "1")
        assert code == 2 and out == "" and message in err
    code, out, _ = run_cli(capsys, "rank", "--field", "2^2:-1,1,1", "--m", "0", "--n", "0", "t")
    assert code == 0 and "rank: 1" in out
    # only ASCII decimal integers: no empty degree, no digits of other
    # scripts, no '_' or '+', in field specs and in element literals
    for field in ("2^:1,1", "\u0663", "5_0", "+5", "2^2:1,1,+1", "2^\u0662:1,1,1"):
        code, out, err = run_cli(capsys, "rank", "--field", field, "--m", "0", "--n", "0", "1")
        assert code == 2 and out == "" and "bad field spec" in err
    literals = (("11", "1_0"), ("11", "\u0663"), ("11", "+1"), ("9", "t^\u0661"), ("9", "0_1*t"))
    for field, entry in literals:
        code, out, err = run_cli(capsys, "rank", "--field", field, "--m", "0", "--n", "0", entry)
        assert code == 2 and out == "" and "element literal" in err


@pytest.mark.parametrize(
    "field, message",
    [
        # 2^61 - 1 as an order and as a characteristic: trial division up
        # to its square root once took 2^30 steps and ran for minutes
        ("2305843009213693951", "characteristic 2305843009213693951 exceeds 2^31"),
        ("2305843009213693951^2:1,0,1", "characteristic 2305843009213693951 exceeds 2^31"),
        # the smallest prime above 2^32, which always failed fast
        ("4294967311", "characteristic 4294967311 exceeds 2^31"),
        ("18446744202558570721", "no built-in modulus for GF(4294967311^2)"),
        ("4295229443", "4295229443 is not a prime power"),  # 65537 * 65539
    ],
)
def test_large_order_or_characteristic_exits_2_at_once(field, message):
    proc = subprocess.run(
        [sys.executable, "-m", "hankelcensus", "sample", "--field", field,
         "--m", "1", "--n", "1", "--r", "0", "--trials", "5"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hankelcensus", "count", "--field", "2",
         "--m", "1", "--n", "1", "--r", "1", "--mode", "both"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: match" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "hankelcensus", "count", "--field", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
