"""One test per numbered acceptance check, with a printed PASS/FAIL line."""

import time

import pytest

from critspde import acceptance


def _run(num):
    [(_, res)] = acceptance.run_checks([num])
    print(acceptance.format_result(num, res))
    assert res.passed, f"criterion {num}: {res.detail}"


def test_criterion_01_exponent_calculus():
    _run(1)


def test_criterion_02_critical_weight_formula():
    _run(2)


def test_criterion_03_identity_suites():
    _run(3)


def test_criterion_04_interpolation_estimate():
    _run(4)


def test_criterion_05_bootstrap_chain():
    _run(5)


def test_criterion_06_heat_exactness():
    _run(6)


def test_criterion_07_noise_calibration():
    _run(7)


def test_criterion_08_energy_bound():
    _run(8)


def test_criterion_09_drift_conservation():
    _run(9)


def test_criterion_10_regularity_bands():
    _run(10)


def test_criterion_11_determinism():
    _run(11)


def test_criterion_12_decision_table():
    _run(12)


def test_suites_cover_every_criterion():
    assert acceptance.SUITES["all"] == tuple(range(1, 13))
    named = set()
    for name, nums in acceptance.SUITES.items():
        if name != "all":
            named.update(nums)
    assert named == set(range(1, 13))


def test_failures_are_reported_not_raised():
    results = acceptance.run_checks([12])
    assert len(results) == 1 and results[0][0] == 12
    assert results[0][1].passed


def check_broken_config():
    raise ValueError("no such preset")


def test_raising_check_is_a_named_failure(monkeypatch):
    # run_checks reports the raise and goes on to the next check
    monkeypatch.setitem(acceptance.CHECKS, 99, check_broken_config)
    [(num, res), (_, after)] = acceptance.run_checks([99, 12])
    assert num == 99 and not res.passed
    assert res.name == "broken-config"
    assert res.detail == "raised ValueError('no such preset')"
    assert after.name == "decision-table" and after.passed


def test_elapsed_spans_the_whole_check(monkeypatch):
    # a fake clock that ticks once per reading: elapsed must run from
    # run_checks' reading before the check to its reading after it, so it
    # covers every reading the check takes in between
    reads = []

    def tick():
        reads.append(float(len(reads)))
        return reads[-1]

    def check_reads_the_clock():
        for _ in range(3):
            acceptance.time.perf_counter()
        return [], "read the clock three times"

    monkeypatch.setattr(acceptance.time, "perf_counter", tick)
    monkeypatch.setitem(acceptance.CHECKS, 99, check_reads_the_clock)
    [(_, res)] = acceptance.run_checks([99])
    assert res.passed and res.detail == "read the clock three times"
    assert len(reads) == 5 and res.elapsed == reads[-1] - reads[0]


@pytest.mark.parametrize("num", [1, 5, 6])
def test_elapsed_spans_the_timed_call(num, monkeypatch):
    # the same ticking clock on real criteria: elapsed runs from the first
    # reading to the last, so it covers every timed call inside the check
    reads = []

    def tick():
        reads.append(float(len(reads)))
        return reads[-1]

    monkeypatch.setattr(acceptance.time, "perf_counter", tick)
    [(_, res)] = acceptance.run_checks([num])
    assert res.passed, res.detail
    assert len(reads) >= 2 and res.elapsed == reads[-1] - reads[0]


def test_criterion_2_budget_is_cpu_time(monkeypatch):
    # a wall clock that jumps 10 s per reading, as on a host where the
    # check waits for its core: the 1 s budget reads the thread's CPU time
    reads = []

    def jump():
        reads.append(10.0 * len(reads))
        return reads[-1]

    monkeypatch.setattr(acceptance.time, "perf_counter", jump)
    [(_, res)] = acceptance.run_checks([2])
    assert res.passed, res.detail
    assert res.detail.endswith(" ms CPU")


def test_criterion_6_budget_is_cpu_time(monkeypatch):
    # heat runs that each wait 0.15 s, past the 0.1 s budget, as runs that
    # lose their core to another process do: the budget reads CPU time
    run = acceptance.simulate_path

    def waiting(cfg):
        time.sleep(0.15)
        return run(cfg)

    monkeypatch.setattr(acceptance, "simulate_path", waiting)
    [(_, res)] = acceptance.run_checks([6])
    assert res.passed, res.detail
    assert res.elapsed >= 8 * 0.15


def test_timed_calls_are_charged_cpu_not_waiting():
    # a call that waits 20 ms, as one that loses its core to another
    # process does, is charged the little CPU time it used; the gates of
    # criteria 1 and 5 (1 ms and 10 ms) read these times
    result, median, slowest = acceptance._timed(lambda: time.sleep(0.02))
    assert result is None
    assert median <= slowest < 0.005
