"""The benchmark's own tests: every workload at the tiny scale.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def bench(workload, state_dir, seed=3, trace=0, cwd=None, **kwargs):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny",
               "--state-dir", str(state_dir)],
        capture_output=True, text=True, timeout=300, cwd=cwd, **kwargs,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def assert_metrics(result, expected):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in expected}
    for name, unit in expected:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    code, result, done = bench(workload, tmp_path)
    assert code == 0, done.stdout + done.stderr
    assert_metrics(result, report.END_TO_END)
    for name, _ in report.END_TO_END:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    # the untraced run leaves its fingerprints; the traced one must match
    assert bench(workload, tmp_path)[0] == 0
    code, result, done = bench(workload, tmp_path, trace=1)
    assert code == 0, done.stdout + done.stderr
    assert_metrics(result, report.PER_LAYER)
    shares = [result["metrics"][f"share.{layer}"]["value"]
              for layer in report.LAYERS]
    assert sum(shares) >= 0.9  # the layers account for the job's time
    assert "where the time went" in done.stdout
    trace = tmp_path / "traces" / f"{workload}-tiny-3.json"
    assert json.loads(trace.read_text())["traceEvents"]


def corrupt_stored_digest(state_dir, workload, seed):
    """Overwrite the one stored fingerprint of ``workload`` and ``seed``;
    returns its file."""
    (stored,) = (state_dir / "digests").glob(f"{workload}-tiny-{seed}-*.json")
    record = json.loads(stored.read_text())
    record["digest"] = "0" * 64
    stored.write_text(json.dumps(record))
    return stored


def test_corrupted_digest_is_a_failure_not_a_number(tmp_path):
    assert bench("pipeline", tmp_path)[0] == 0
    corrupt_stored_digest(tmp_path, "pipeline", 3)
    code, result, done = bench("pipeline", tmp_path)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert "CHECK FAILED: digest differs" in done.stdout


def test_another_program_version_starts_fresh_fingerprints(tmp_path):
    # a fingerprint left by another source version (here: one that
    # differs in every output) must not fail a run of this version
    assert bench("pipeline", tmp_path)[0] == 0
    stored = corrupt_stored_digest(tmp_path, "pipeline", 3)
    stored.rename(stored.with_name("pipeline-tiny-3-0123456789abcdef.json"))
    code, result, done = bench("pipeline", tmp_path)
    assert code == 0, done.stdout
    assert result["correct"] is True
    assert len(list((tmp_path / "digests").glob("pipeline-tiny-3-*.json"))) == 2


def test_counters_repeat_exactly_across_runs(tmp_path):
    assert bench("mpp-ground", tmp_path, seed=5)[0] == 0
    (stored,) = (tmp_path / "digests").glob("mpp-ground-tiny-5-*.json")
    first = json.loads(stored.read_text())
    code, result, _ = bench("mpp-ground", tmp_path, seed=5, trace=1)
    assert code == 0
    counters = first["counters"]
    assert result["metrics"]["mpp.rows_shipped"]["value"] == counters["rows_shipped"]
    assert result["metrics"]["relational.rows_output"]["value"] == counters["rows_output"]
    assert result["metrics"]["core.facts_out"]["value"] == counters["facts_out"]


def test_samples_drop_the_readings_and_scale_to_the_reference_speed():
    from hostspeed import REFERENCE_LOOP_S, HostSpeed

    speed = HostSpeed()
    # readings at t = 0, 1, 2 and 3 s, each 0.01 s long; the host runs the
    # loop at the reference speed, then at half of it
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.ends = [0.01, 1.01, 2.01, 3.01]
    speed.loops = [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S,
                   2 * REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S]
    # a sample from 0.5 s to 2.5 s holds two readings; it is scaled by the
    # mean of those and of the readings on either side of it
    wall, scaled = speed.scale(0.5, 2.5)
    assert wall == pytest.approx(2.0 - 0.02)
    assert scaled == pytest.approx(wall / 1.75)
    # a sample between two readings is scaled by those two
    wall, scaled = speed.scale(1.2, 1.4)
    assert wall == pytest.approx(0.2)
    assert scaled == pytest.approx(0.1)


def test_other_seed_relabels_the_same_structure(tmp_path):
    from inputs import TINY, make_inputs

    one, two = (make_inputs(TINY.reverb(), seed, 10, 5) for seed in (1, 2))
    assert len(one.kb.facts) == len(two.kb.facts)
    assert len(one.kb.rules) == len(two.kb.rules)
    assert one.kb.entities != two.kb.entities
    assert [f.relation for f in one.held_out] == [f.relation for f in two.held_out]
    assert [p.get("relation") for p in one.queries] == [p.get("relation") for p in two.queries]
    assert [sorted(p) for p in one.queries] == [sorted(p) for p in two.queries]
    assert one.queries != two.queries


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare,
    )
    assert done.returncode != 0
    assert done.stdout == ""
