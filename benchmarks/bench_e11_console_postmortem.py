"""E11 — serial console capture for post-mortem analysis (§3.3).

Paper: "the ICE Box also provides logging and buffering (up to 16k) of
the output on each serial device.  This capability allows even
post-mortem analysis on what has happened to a specific node."

Regenerated: a crash drill across a rack — nodes die with a diagnostic
line that appears once, followed by varying amounts of console noise; we
measure the fraction of crashes whose root cause is still recoverable
from the buffer, for the ICE Box's 16 KiB vs smaller ablation sizes.
"""

import numpy as np
import pytest

from _harness import print_table
from repro.hardware import SimulatedNode
from repro.icebox.serial_console import SerialPort
from repro.sim import RandomStreams, SimKernel

BUFFER_SIZES = (512, 2048, 16 * 1024, 64 * 1024)
N_CRASHES = 200


def _drill(buffer_size: int, rng) -> float:
    """Fraction of crashes diagnosable from a ``buffer_size`` capture."""
    kernel = SimKernel()
    recovered = 0
    for i in range(N_CRASHES):
        node = SimulatedNode(kernel, f"c{i:03d}", node_id=i + 1)
        port = SerialPort(0)
        port.buffer.capacity = buffer_size
        port.attach(node)
        node.power_on()
        # Boot chatter before the fault.
        node.serial_write("INIT: Entering runlevel: 3\n" * 5)
        cause = f"MCE: CPU0 bank {i % 8}: b200000000070f0f"
        node.serial_write(f"kernel: {cause}\n")
        # Post-fault log spew before the node finally dies (OOM dumps,
        # soft lockup traces): 0 .. ~40 KiB, long-tailed.
        noise_lines = int(rng.exponential(80))
        for line_no in range(noise_lines):
            node.serial_write(
                f"kernel: soft lockup trace frame {line_no:05d} "
                f"c01a{line_no:04x} c01b{line_no:04x}\n")
        node.crash("machine check exception")
        if cause in port.capture():
            recovered += 1
        port.detach()
    return recovered / N_CRASHES


def test_postmortem_recovery_vs_buffer_size(benchmark):
    def run():
        streams = RandomStreams(77)
        return {size: _drill(size, streams(f"noise{size}"))
                for size in BUFFER_SIZES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f"{size // 1024} KiB" if size >= 1024 else f"{size} B",
             f"{frac * 100:.0f}%",
             "ICE Box" if size == 16 * 1024 else ""]
            for size, frac in results.items()]
    print_table(
        f"E11: crash cause recoverable from console capture "
        f"({N_CRASHES} crash drill)",
        ["capture buffer", "recovered", ""], rows)

    # Monotone in buffer size; the ICE Box's 16 KiB recovers the large
    # majority; a tiny terminal-server-era buffer does not.
    sizes = sorted(results)
    fractions = [results[s] for s in sizes]
    assert fractions == sorted(fractions)
    assert results[16 * 1024] > 0.75
    assert results[512] < 0.35
    assert results[16 * 1024] - results[512] > 0.4


def test_panic_always_in_tail(benchmark):
    """The kernel panic banner itself is the last thing written, so it
    survives in *any* buffer — what a bigger buffer buys is the history
    leading up to it."""

    def run():
        kernel = SimKernel()
        node = SimulatedNode(kernel, "tail", node_id=1)
        port = SerialPort(0)
        port.buffer.capacity = 512
        port.attach(node)
        node.power_on()
        node.serial_write("x" * 100000)  # drown the buffer
        node.crash("NULL pointer dereference")
        return port.capture()

    capture = benchmark.pedantic(run, rounds=1, iterations=1)
    assert "NULL pointer dereference" in capture
