"""Probes for costs too fine to wrap: field operations and per-matrix rank.

Each probe calls public API (`parse_field`, the `FieldSpec` code
operations, `FieldElement` operators, `materialize_hankel`, `rank_gauss`)
on operands drawn from the workload seed, and reports the median of a few
repeats.  Field kinds are probed on fixed fields: GF(101) for `prime`,
GF(64) for `ext_table` and GF(2^11) for `ext_large`.
"""

from __future__ import annotations

import random
import statistics
import time

from workloads import GF256, GF2048

perf = time.perf_counter

KIND_FIELDS = {"prime": "101", "ext_table": "64", "ext_large": GF2048}
# operations per timed repeat: the large field's arithmetic is ~1000x slower
OPS = {"prime": 20_000, "ext_table": 20_000, "ext_large": 1_000}
INV_OPS = {"prime": 20_000, "ext_table": 20_000, "ext_large": 100}
RANK_MATRICES = {"prime": 2_000, "ext_table": 2_000, "ext_large": 20}
REPEATS = 5


def _median_ns(fn, operands, repeats=REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf()
        for a, b in operands:
            fn(a, b)
        samples.append((perf() - t0) / len(operands) * 1e9)
    return statistics.median(samples)


def build_s(spec_text: str) -> float:
    """Time to construct a field and force its lazy tables."""
    from hankelcensus.gf import parse_field

    t0 = perf()
    spec = parse_field(spec_text)
    getattr(spec, "tables", None)
    spec.mul_code(1, 1)
    return perf() - t0


def table_entries(spec) -> int:
    """Entries held in the field's operation tables (3q^2+q at q <= 1024)."""
    tab = getattr(spec, "tables", None)
    if tab is None:
        return 0
    total = 0
    for part in tab:
        total += sum(len(row) for row in part) if part and isinstance(part[0], list) else len(part)
    return total


def run(seed: int, workload_fields: list[str]) -> dict:
    from hankelcensus.gf import parse_field
    from hankelcensus.hankel import HankelShape, SeqTuple, materialize_hankel, rank_gauss

    rng = random.Random(seed)
    out: dict[str, float] = {}
    out["gf.table_build_s.gf64"] = statistics.median(build_s("64") for _ in range(3))
    out["gf.table_build_s.gf256"] = build_s(GF256)
    out["gf.table_entries"] = sum(table_entries(parse_field(s)) for s in workload_fields)

    shape = HankelShape(4, 4)
    for kind, text in KIND_FIELDS.items():
        spec = parse_field(text)
        q = spec.order
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(OPS[kind])]
        nonzero = [(rng.randrange(1, q), 0) for _ in range(INV_OPS[kind])]
        out[f"gf.mul_ns.{kind}"] = _median_ns(spec.mul_code, pairs)
        out[f"gf.add_ns.{kind}"] = _median_ns(spec.add_code, pairs)
        out[f"gf.inv_ns.{kind}"] = _median_ns(lambda a, _b: spec.inv_code(a), nonzero)
        mats = [
            materialize_hankel(SeqTuple.from_codes(spec, [rng.randrange(q) for _ in range(9)]), shape)
            for _ in range(RANK_MATRICES[kind])
        ]
        samples = []
        for _ in range(REPEATS):
            t0 = perf()
            for M in mats:
                rank_gauss(M)
            samples.append((perf() - t0) / len(mats) * 1e6)
        out[f"hankel.probe_rank_us.{kind}"] = statistics.median(samples)
        if kind == "ext_table":
            elems = spec.elements()
            epairs = [(elems[a], elems[b]) for a, b in pairs]
            out["gf.elem_op_ns.ext_table"] = (
                _median_ns(lambda a, b: a + b, epairs) + _median_ns(lambda a, b: a * b, epairs)
            ) / 2
    return out
