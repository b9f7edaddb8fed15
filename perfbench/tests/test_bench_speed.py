"""The speed probe: its slowness estimate, its signal handling and the probe time it takes out."""

import signal
import time

import run
import speed


def _with_samples(samples):
    probe = speed.Speed()
    probe.samples = samples
    return probe


def test_slowness_is_the_mean_of_each_kernels_median_over_nominal():
    factors = range(1, len(speed.NOMINAL_S) + 1)
    samples = []
    for t in (0.0, 0.1, 0.2):
        samples += [(t, name, f * nominal) for (name, nominal), f in zip(speed.NOMINAL_S.items(), factors)]
    # one slow outlier per kernel moves no median
    samples += [(0.15, name, 100 * nominal) for name, nominal in speed.NOMINAL_S.items()]
    expected = sum(factors) / len(factors)
    assert abs(_with_samples(samples).slowness(0.05, 0.15) - expected) < 1e-12


def test_slowness_falls_back_to_the_nearest_probes():
    far = [(t, name, nominal) for t in (10.0, 11.0, 12.0, 50.0) for name, nominal in speed.NOMINAL_S.items()]
    far += [(50.0 + t, name, 9 * nominal) for t in (1, 2, 3) for name, nominal in speed.NOMINAL_S.items()]
    assert abs(_with_samples(far).slowness(0.0, 1.0) - 1.0) < 1e-12


def test_probing_stops_and_restores_the_default_handler():
    probe = speed.Speed()
    with probe:
        deadline = time.perf_counter() + 3 * speed.PROBE_EVERY_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(probe.samples) >= 3 * len(speed.NOMINAL_S)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


class _Task:
    label = "fake"
    planted = False

    def __init__(self, probe):
        self.probe = probe

    def call(self):
        time.sleep(0.05)
        self.probe.probe_s += 0.04  # as if the handler had run for 40 ms

    def check(self, outcome):
        return None

    def found(self, outcome):
        return False

    def report_bytes(self, outcome):
        return 0


def test_task_time_leaves_out_the_time_spent_probing():
    probe = speed.Speed()
    timed = []
    rec = run._run_task(_Task(probe), timed, speed=probe)
    assert 0.005 < rec["latency_s"] < 0.04
    assert timed == [rec["latency_s"]]
