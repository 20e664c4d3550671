import numpy as np
import pytest

from layers import conv_flops
from oracles import conv2d_oracle
from run import measure
from workloads import Tally, same_results


def test_tally_counts_each_failed_operation():
    tally = Tally()
    assert tally.record("a", None)
    assert not tally.record("b", "wrong")
    assert tally.record("c", None)
    assert not tally.record("d", "also wrong")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.problems == ["b: wrong", "d: also wrong"]


class Flaky:
    """Each call takes one second of ``clock``. Raises on its second call;
    returns a result flagged as wrong on its fourth."""

    def __init__(self):
        self.n = 0
        self.clock = 0.0

    def setup(self):
        self.clock += 0.25

    def call(self):
        self.n += 1
        self.clock += 1.0
        if self.n == 2:
            raise RuntimeError("boom")
        return 1.0, 10, self.n

    def problem(self, result):
        return "bad result" if result == 4 else None


def test_measure_counts_raised_and_wrong_calls_as_failed():
    tally = Tally()
    w = Flaky()
    setups = []
    samples = measure(w, seconds=6.5, min_calls=1, tally=tally, clock=lambda: w.clock,
                      setup_times=setups)
    # five rounds of set-up and call (1.25 s each) fit in 6.5 s, a sixth would not
    assert [s[2] for s in samples] == [1, 3, 5]
    assert (tally.attempted, tally.failed) == (5, 2)
    assert "boom" in tally.problems[0]
    assert setups == [0.25] * 5


def test_measure_makes_min_calls_even_with_no_time():
    tally = Tally()
    w = Flaky()
    samples = measure(w, seconds=0, min_calls=3, tally=tally, clock=lambda: w.clock,
                      setup_times=[])
    assert len(samples) == 2 and tally.attempted == 3


def test_measure_reads_each_round_at_the_mean_speed_sampled_during_it():
    tally = Tally()
    w = Flaky()
    w.n = 4  # past the raising and the wrong call
    readings = []
    during = iter([[2.0, 2.0], [], [1.0, 4.0]])  # slowdowns sampled in each round
    call = w.call

    def sampled_call():
        readings.extend(next(during))
        return call()

    w.call = sampled_call
    setups = []
    samples = measure(w, seconds=0, min_calls=3, tally=tally, clock=lambda: w.clock,
                      setup_times=setups, readings=readings)
    # speeds 0.5, 0.5 again (no reading: the last one holds), mean of 1 and 0.25
    assert [(s[0], s[3]) for s in samples] == [(0.5, 1.0), (0.5, 1.0), (0.625, 1.0)]
    assert setups == [0.125, 0.125, 0.15625]


def test_sampler_clock_leaves_probe_seconds_out():
    from speed import NOMINAL_S, Sampler

    ticks = iter([10.0, 10.0, 10.0 + 2 * NOMINAL_S, 11.0 + 2 * NOMINAL_S])
    sampler = Sampler(wall=lambda: next(ticks))
    assert sampler.clock() == 10.0
    sampler.probe()
    assert sampler.readings == [pytest.approx(2.0)]
    assert sampler.clock() == pytest.approx(11.0)


def test_sampler_probes_on_its_timer_and_restores_the_handler():
    import signal
    import time

    from speed import Sampler

    before = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(interval=0.01)
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end and not sampler.readings:
            pass
    assert sampler.readings and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_results():
    assert same_results([1.5, 1.5, 1.5]) is None
    assert same_results([1.5, 1.5000001]) is not None


ORACLE_SHAPES = [
    # (b, c, h, w, f, kh, kw, stride, padding)
    (1, 1, 3, 3, 1, 1, 1, 1, 0),
    (2, 3, 5, 4, 2, 3, 2, 1, 1),
    (2, 2, 7, 6, 3, 3, 3, 2, 1),
    (3, 1, 8, 8, 2, 4, 4, 2, 0),
    (1, 3, 8, 8, 4, 3, 3, 1, 1),
    (2, 4, 6, 6, 2, 1, 1, 2, 0),
]


@pytest.mark.parametrize("b,c,h,w,f,kh,kw,stride,padding", ORACLE_SHAPES)
def test_conv_flops_match_oracle_multiply_adds(b, c, h, w, f, kh, kw, stride, padding):
    # With all-ones operands on a pre-padded input, each oracle output equals
    # the number of multiply-adds behind it, padded taps included (the GEMM
    # does them too).
    x = np.ones((b, c, h + 2 * padding, w + 2 * padding))
    weight = np.ones((f, c, kh, kw))
    out = conv2d_oracle(x, weight, stride=stride, padding=0)
    assert conv_flops(weight.shape, out.shape) == 2 * out.sum()

