"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import answers  # noqa: E402
import jobs  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from semilat import cli  # noqa: E402

B3 = answers.Product("B3", (2, 2, 2), bits=True)
CHAIN_A = ["000", "100", "110", "111"]
CHAIN_B = ["000", "010", "110", "111"]


@pytest.fixture(scope="module")
def b3(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("inputs") / "b3.json")
    assert jobs.call(cli.run, ["gen", "boolean", "3", "-o", path])[0] == 0
    return path


@pytest.fixture(autouse=True)
def b3_family(monkeypatch):
    monkeypatch.setitem(jobs.LATTICES, "B3", (B3, ["boolean", "3"]))


def _job(kind, path, **extra):
    return jobs._lattice_job(kind, "B3", path, **extra)


def _answer(job):
    code, out, _ = jobs.call(cli.run, job["argv"])
    return code, out


class TestChecker:
    def test_accepts_the_programs_answers(self, b3):
        for job in (_job("validate", b3), _job("chains", b3),
                    _job("match", b3, chain_a=CHAIN_A, chain_b=CHAIN_B),
                    _job("export-dot", b3, chain_a=CHAIN_A, chain_b=CHAIN_B)):
            assert answers.check(job, *_answer(job)).ok, job["cls"]

    def test_rejects_a_wrong_permutation(self, b3):
        job = _job("match", b3, chain_a=CHAIN_A, chain_b=CHAIN_B)
        code, out = _answer(job)
        payload = json.loads(out)
        assert payload["pi"] == [2, 1, 3]
        payload["pi"] = [1, 2, 3]
        outcome = answers.check(job, code, json.dumps(payload))
        assert not outcome.ok and outcome.silent

    def test_rejects_a_wrong_witness(self, b3):
        job = _job("match", b3, chain_a=CHAIN_A, chain_b=CHAIN_B)
        code, out = _answer(job)
        payload = json.loads(out)
        payload["witnesses"][0] = ["000", "100"]
        assert not answers.check(job, code, json.dumps(payload)).ok

    def test_rejects_a_wrong_verdict(self, b3):
        job = _job("validate", b3)
        code, out = _answer(job)
        payload = json.loads(out)
        payload["semimodular"] = False
        assert not answers.check(job, code, json.dumps(payload)).ok

    def test_rejects_a_wrong_exit_code(self, b3):
        job = _job("chains", b3)
        code, out = _answer(job)
        assert code == 0
        outcome = answers.check(job, 1, out)
        assert not outcome.ok and not outcome.silent

    def test_a_wrong_verdict_under_exit_0_is_silent(self):
        job = {"kind": "validate", "exit": 1, "family": answers.N5()}
        assert answers.check(job, 0, "{}").silent

    def test_closed_forms(self):
        assert (B3.elements, B3.height, B3.covers, B3.chains) == (8, 3, 12, 6)
        pi6 = answers.Partitions("Pi6", 6, 1)
        assert (pi6.elements, pi6.height, pi6.chains) == (203, 5, 2700)
        assert answers.group_order("D4xZ2") == 16 and answers.prime_factors(60) == [2, 2, 3, 5]


class TestJobLists:
    PATHS = {name: f"{name}.json" for name in (*jobs.LATTICES, *jobs.GROUPS)}
    EXPECTED = json.loads(jobs.EXPECTED.read_text())

    def _argvs(self, workload, seed):
        rounds = jobs.job_rounds(workload, seed, self.PATHS, self.EXPECTED)
        return [[job["argv"] for job in r] for r in rounds]

    @pytest.mark.parametrize("workload", jobs.WORKLOADS)
    def test_same_seed_same_list_other_seed_other_list(self, workload):
        assert self._argvs(workload, 7) == self._argvs(workload, 7)
        assert self._argvs(workload, 7) != self._argvs(workload, 8)

    @pytest.mark.parametrize("workload", jobs.WORKLOADS)
    def test_every_round_has_the_same_mix(self, workload):
        rounds = jobs.job_rounds(workload, 3, self.PATHS, self.EXPECTED)
        classes = sorted(job["cls"] for job in rounds[0])
        assert all(sorted(job["cls"] for job in r) == classes for r in rounds)
        assert len(set(classes)) == {"oneshot": 26, "verify": 7, "groups": 16}[workload]


class TestSpans:
    def test_self_times_are_never_negative_and_bindings_restored(self, b3):
        tracer = spans.Tracer()
        original = cli.jh_match
        tracer.install()
        try:
            assert cli.jh_match is not original
            for k, job in enumerate([_job("match", b3, chain_a=CHAIN_A, chain_b=CHAIN_B),
                                     _job("export-dot", b3, chain_a=CHAIN_A, chain_b=CHAIN_B)]):
                assert run.run_job(cli, job, tracer, k)["ok"]
        finally:
            tracer.uninstall()
        assert cli.jh_match is original
        recorded = tracer.take_round()
        assert all(own >= 0 for own in spans.span_self_ns(recorded))
        assert tracer.totals["matching.jh_match"][0] == 2
        assert tracer.counts["semilattice.join.calls"] > 0

    def test_check_round_rejects_a_child_outside_its_parent(self):
        bad = [("job", 0, 10, -1, 0), ("cli.run", 5, 12, 0, 0)]
        with pytest.raises(spans.TraceError):
            spans.check_round(bad, spans.span_self_ns(bad))


def test_second_seed_fails_the_same_job_classes(tmp_path):
    failing = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        rounds = jobs.setup("oneshot", seed, cli.run, workdir)
        failing.append({r["cls"] for r in run.run_round(cli, rounds[0]) if not r["ok"]})
    assert failing[0] == failing[1]
    # Only the 300-element chain may fail (the uint8 closure overflow).
    assert failing[0] <= {"validate:C300", "chains:C300"}


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)



def test_pacing_divides_out_the_machine_speed():
    ms = 1_000_000
    quiet = pace.Pacer()
    quiet.starts = [0, 20 * ms, 40 * ms]
    quiet.ends = [start + ms for start in quiet.starts]
    quiet.refs = [ms] * 3
    # 25 ms, of which one measurement (1 ms) ran inside the interval.
    assert quiet.paced_ms(10 * ms, 35 * ms) == pytest.approx((24 * pace.REF_MS, 24))
    # A machine twice as slow doubles the job and the reference alike.
    slow = pace.Pacer()
    slow.starts = [0, 40 * ms, 80 * ms]
    slow.ends = [start + 2 * ms for start in slow.starts]
    slow.refs = [2 * ms] * 3
    assert slow.paced_ms(20 * ms, 70 * ms) == pytest.approx((24 * pace.REF_MS, 48))


def test_pacer_paces_real_jobs_and_restores_the_handler(b3):
    handler = signal.getsignal(signal.SIGALRM)
    job = _job("match", b3, chain_a=CHAIN_A, chain_b=CHAIN_B)
    with pace.Pacer() as pacer:
        records = run.run_round(cli, [job] * 3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(pacer.refs) >= 2
    for r in records:
        paced, raw = pacer.paced_ms(r["t0"], r["t0"] + r["ns"])
        assert r["ok"] and paced > 0 and 0 < raw <= r["ns"] / 1e6
