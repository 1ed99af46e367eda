"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import os
import re
import sys
from collections import Counter

import pytest

import gate
import run as bench
import spans

sys.path.insert(0, bench.SRC)

from cyclesat import run as cs_run  # noqa: E402
from cyclesat import symmetry  # noqa: E402

BENCHMARK = os.path.join(bench.ROOT, "BENCHMARK.json")


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    s = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # two pool workers running at the same time under one parent
    s = [span("root", 0.0, 10.0, -1), span("w1", 1.0, 6.0, 0), span("w2", 4.0, 8.0, 0)]
    assert spans.self_times(s) == pytest.approx([3.0, 5.0, 4.0])


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    layer = spans.layer_metrics([], Counter())
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(
        [(k, u) for k, (_, u) in layer.items()] + bench.TRACE_LEVEL)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_run_reports_every_layer(workers, tmp_path):
    tracer = spans.Tracer("test")
    uninstall = spans.install(cs_run, tracer)
    try:
        sols, stats = cs_run.run_enumerate(cs_run.RunConfig(n=4, backend="backtrack", workers=workers))
        cs_run.write_solutions(sols, str(tmp_path / "out.txt"))
    finally:
        uninstall()
    assert cs_run.run_enumerate.__name__ == "run_enumerate"
    tracer.absorb_workers(stats, parent=0)
    assert all(spans.WORKER_PAYLOAD not in st for st in stats.values())
    m = spans.layer_metrics(tracer.spans, tracer.counters)
    assert len(sols) == gate.KNOWN_COUNTS[4]
    assert m["solver.propagations"][0] == sum(st["engine"]["propagations"] for st in stats.values())
    assert m["mincheck.complete.calls"][0] == sum(st["complete_checks"] for st in stats.values())
    assert m["learning.blocking.calls"][0] == len(sols)
    assert m["solver.search_s"][0] > 0 and m["encoding.clauses"][0] > 0
    assert sorted(spans.diagonal_times(tracer.spans)) == sorted(
        gate.cycle_type_key(d.values()) for d in symmetry.representative_diagonals(4))


def test_seeded_diagonals_keep_cycle_types():
    reps = symmetry.representative_diagonals(6)
    assert bench.workload_diagonals(symmetry, 6, 0) == reps
    conj = bench.workload_diagonals(symmetry, 6, 11)
    assert conj == bench.workload_diagonals(symmetry, 6, 11)
    assert conj != reps and conj != bench.workload_diagonals(symmetry, 6, 12)
    assert [d.cycle_type() for d in conj] == [d.cycle_type() for d in reps]
    assert bench.labellings(0)[0] == 0 and set(bench.labellings(0)).isdisjoint(bench.labellings(1))


def _write_enumeration(path, n, seed):
    diagonals = bench.workload_diagonals(symmetry, n, seed)
    solutions = []
    for d in diagonals:
        solutions.extend(cs_run.enumerate_diagonal(cs_run.RunConfig(n=n, backend="backtrack"), d)[0])
    cs_run.write_solutions(sorted(solutions), str(path))
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("seed", [0, 7])
def test_gate_rejects_altered_or_removed_line(seed, tmp_path):
    reference = gate.load_reference()
    path = tmp_path / "sols.txt"
    lines = _write_enumeration(path, 5, seed)
    assert gate.check_file(str(path), 5, seed, reference) == []
    altered = lines[:]
    row = altered[10].split()
    row[-1], row[-2] = row[-2], row[-1]
    altered[10] = " ".join(row) + "\n"
    path.write_text("".join(altered))
    assert gate.check_file(str(path), 5, seed, reference)
    path.write_text("".join(lines[:20] + lines[21:]))
    assert gate.check_file(str(path), 5, seed, reference)


def test_gate_cycle_type_key():
    assert gate.cycle_type_key([2, 1, 4, 5, 3, 6]) == "3-2-1"


def test_median_sum_sums_each_pieces_median():
    pieces = {"a": [2.0, 1.0, 3.0], "b": [float(v) for v in range(20, 0, -1)]}
    assert bench.median_sum(pieces) == 2.0 + 10.5


def test_host_speed_scales_by_the_samples_near_a_span():
    ref = bench.CALIB_REF_S
    hs = bench.HostSpeed()
    hs.times, hs.loops = [0.0, 1.0, 2.0, 10.0], [ref, 2 * ref, 3 * ref, 100 * ref]
    start, end = (1.0, 5.0, 0.0, 0.0), (2.0, 7.0, 0.5, 0.25)
    assert hs.factor(start, end) == pytest.approx(1 / 2.5)
    assert hs.net(start, end) == pytest.approx((0.5, 1.75))
    assert hs.scaled(start, end) == pytest.approx((0.2, 0.7))
