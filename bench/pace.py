"""Pace probe: fixed work beside the measured children, to gauge the machine's speed.

    python3 bench/pace.py MARKS

bench/run.py starts it on the one CPU it pins the benchmark to, and runs the
measured children beside it.  It lowers its own priority by 10, so it takes
about a tenth of the CPU while a child runs, in slices spread over the
child's whole run.  It prints "ready", then repeats a small fixed unit of
work until it is stopped: a numpy complex exponential over a small grid, a
pass over a slice of an array larger than the caches, and a pure-Python
loop, the kinds of work a cltflow CLI call does, none of it with cltflow.  On
SIGUSR1 it notes the units it has done and its own CPU time; on SIGTERM it
writes the notes to MARKS as a JSON list of [units, cpu_s] pairs and exits
with 0.  Units per CPU second between two notes is the speed the machine ran
at in between.
"""

import json
import os
import signal
import sys
import time

import numpy as np

NICE = 10

x = np.linspace(-3.0, 3.0, 2000)
# 64 MB, more than the caches hold, written in full here so that no page is
# first touched while measuring; a unit streams through 800 KB of it
big = np.ones(8_000_000)
STEP = 100_000
units = 0
marks = []


def mark(signum, frame) -> None:
    marks.append((units, time.process_time()))


def stop(signum, frame) -> None:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    sys.exit(0)


os.nice(NICE)
signal.signal(signal.SIGUSR1, mark)
signal.signal(signal.SIGTERM, stop)
print("ready", flush=True)
while True:
    np.exp(1j * x).sum()
    pos = units * STEP % big.size
    big[pos:pos + STEP] += 1.0
    s = 0
    for i in range(300):
        s += i * i
    units += 1
