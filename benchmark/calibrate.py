"""Time measured against a calibration loop, for a host whose speed drifts.

On a shared host a core's speed can change by up to two times within
seconds, and by a third between runs minutes apart, for the program and for
any other code on that core alike.  So the benchmark times a fixed
pure-Python loop that calls no gridsplines code right before a measured
stretch, every PERIOD_S during it (from a SIGALRM handler, which Python runs
between bytecodes of the main thread) and right after it.  Each piece of
the program's own time between two samples is divided by the mean of their
loop durations; the sum is the stretch's work in loops, which follows the
program far more closely than its seconds do.  ``REFERENCE_LOOP_S`` turns
loops into seconds on a reference core: one on which the loop takes 1 ms.

This module imports only the standard library, so the worker can start
sampling before it imports numpy and gridsplines.
"""

import math
import signal
import time

ROUNDS = 8_000  # about 1 ms on a 2.1 GHz Xeon core
PERIOD_S = 0.02  # so the loop takes about 5% of a measured stretch
REFERENCE_LOOP_S = 1e-3


def calibration_loop() -> None:
    """A fixed pure-Python loop that calls no gridsplines code."""
    total = 0.0
    for i in range(ROUNDS):
        total += math.sqrt(i) * 1.0001


class Calibrator:
    """Measures stretches of the program in loops as well as in nanoseconds."""

    def __init__(self):
        self.spent_ns = 0  # time spent in the loop while a stretch was measured
        self.samples = []  # per sample: loop start, loop duration, when the program resumed (ns)
        self.loop_ns = []  # every loop duration, for the report
        signal.signal(signal.SIGALRM, self.on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the alarm interrupts

    def time_loop(self) -> int:
        start = time.perf_counter_ns()
        calibration_loop()
        took = time.perf_counter_ns() - start
        self.loop_ns.append(took)
        return took

    def on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        took = self.time_loop()
        self.samples.append((start, took, start + took))
        self.spent_ns += took

    def clock(self) -> int:
        """perf_counter_ns without the time spent in the loop during measured stretches."""
        return time.perf_counter_ns() - self.spent_ns

    def start(self) -> int:
        """Start a measured stretch; return the first sample's loop duration."""
        calibration_loop()  # warm the loop
        took = self.time_loop()
        now = time.perf_counter_ns()
        self.samples = [(now, took, now)]
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return took

    def stop(self) -> tuple:
        """End the stretch; return the program's own ns in it and its work in loops."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter_ns()
        self.samples.append((end, self.time_loop(), end))
        program_ns = 0
        loops = 0.0
        for (_, took0, resumed), (next_start, took1, _) in zip(self.samples, self.samples[1:]):
            piece = next_start - resumed
            program_ns += piece
            loops += piece / ((took0 + took1) / 2)
        self.samples = []
        return program_ns, loops

    def measure(self, fn):
        """Call ``fn`` as one measured stretch; return its result, ns and loops."""
        self.start()
        try:
            result = fn()
        finally:
            program_ns, loops = self.stop()
        return result, program_ns, loops
