"""Tests of the benchmark itself: every workload end to end at tiny sizes,
and each output check rejecting a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["attempted"] >= 1
    if workload == "newick-roundtrip":
        # the height-1e3 trees fail, the same share of every round
        trees = json.loads((gen.ensure(workload, 7, "tiny") / "inputs.json").read_text())["trees"]
        per_round = len(trees)
        assert result["attempted"] % per_round == 0
        assert 0 < result["failed"] <= result["attempted"] // 3
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("star-prob-n4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_clock_takes_inside_chunks_out_and_scales_by_the_reference():
    # work made of reference chunks reads as that many nominal chunks,
    # whatever the host's speed and however many chunks the timer added
    def work(k):
        for _ in range(k):
            calib.reference_chunk()
        return k

    clock = calib.Clock()
    for k in (20, 60):
        result, raw, norm, ref = clock.measure(work, k)
        assert result == k
        assert raw < k * 3 * ref
        assert 0.6 < norm / (k * calib.NOMINAL_REF_S) < 1.6
    plain = calib.Clock(plain=True).measure(work, 5)
    assert plain[1] == plain[2]


# --------------------------------------------------------------------------
# each check rejects a corrupted output
# --------------------------------------------------------------------------

def cli_output(argv) -> str:
    from troptree import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def segment_case():
    d = gen.ensure("segment-n80", 7, "tiny")
    pair = json.loads((d / "inputs.json").read_text())["pairs"][0]
    text = cli_output(["segment", str(d / pair["t1"]), str(d / pair["t2"]), "--format", "csv"])
    return text, gen.Tree.from_json(pair["tree1"]), gen.Tree.from_json(pair["tree2"])


def test_segment_check_accepts_the_program_output(segment_case):
    assert checks.check_segment(*segment_case) == []


def test_segment_check_rejects_a_perturbed_entry(segment_case):
    text, t1, t2 = segment_case
    lines = text.splitlines(keepends=True)
    k = len(lines) // 2
    cells = lines[k].split(",")
    cells[5] = repr(float(cells[5]) + 1e-4)
    lines[k] = ",".join(cells)
    assert checks.check_segment("".join(lines), t1, t2)


def test_segment_check_rejects_swapped_topology_cells(segment_case):
    text, t1, t2 = segment_case
    rows = list(csv.reader(io.StringIO(text)))
    a, b = 1, len(rows) - 1
    assert rows[a][-1] != rows[b][-1]
    rows[a][-1], rows[b][-1] = rows[b][-1], rows[a][-1]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    fails = checks.check_segment(buf.getvalue(), t1, t2)
    assert any("topology" in f for f in fails)


def simulate(kind: str, seed: int, samples: int) -> str:
    return cli_output(["simulate", kind, "--n", "4" if kind == "star-prob" else "6",
                       "--samples", str(samples), "--seed", str(seed)])


def test_star_check_rejects_a_hit_count_off_by_one():
    text = simulate("star-prob", 3, 300)
    fails, hits = checks.check_star(text, 3, 4, 1.0, 300)
    assert fails == []
    rep = json.loads(text)
    rep["hits"] += 1
    rep["rate"] = rep["hits"] / 300
    fails, _ = checks.check_star(json.dumps(rep), 3, 4, 1.0, 300)
    assert any("recounted" in f for f in fails)


def test_star_rate_check_rejects_a_rate_far_from_two_in_27():
    assert checks.check_star_rate(740, 10_000, 4) == []
    assert checks.check_star_rate(1100, 10_000, 4)


def test_nni_check_rejects_a_transition_total_off_by_one():
    text = simulate("nni-conjecture", 1, 30)
    assert checks.check_nni(text, 1, 6, 1.0, 30) == []
    rep = json.loads(text)
    rep["transitions_total"] += 1
    assert checks.check_nni(json.dumps(rep), 1, 6, 1.0, 30)


def test_roundtrip_check_rejects_a_distance_off_by_more_than_rounding():
    import troptree as tt
    rng = gen.input_stream(5, "newick-roundtrip", 0)
    tree = gen.draw_tree(12, 1.0, rng)
    u = tt.ultrametric_of(tt.parse_newick(tree.newick()))
    assert checks.check_roundtrip(u.labels, u.entries, tree) == []
    bad = u.entries.copy()
    bad[3] *= 1 + 1e-8
    assert checks.check_roundtrip(u.labels, bad, tree)


def test_recounts_reproduce_the_reference_runs():
    # figures from the program and the recount agreeing on these runs
    text = simulate("star-prob", 504, 20_000)
    assert checks.check_star(text, 504, 4, 1.0, 20_000) == ([], 1462)
    assert checks.nni_recount(1, 6, 1.0, 300)[0] == (1286, 1158)
