"""Fixed calibration work, timed next to every measurement, so that the
benchmark can give its times at one reference CPU speed.

The host's CPU speed moves by 25-80% in phases of seconds to minutes with
nothing else running in the machine, and a run of the benchmark cannot
choose its phase.  The loop below does the kind of work the engine does
(small-integer arithmetic modulo a prime over lists, Fraction sums) and
never calls qrank, so an engine change cannot move it; its time measures
the host's speed at that moment.  A time t measured while the loop took
c seconds is reported as t * REF_S / c: the time it would have taken at
the speed where the loop takes REF_S.

The loop follows the speed of pure-Python work but not that of a fresh
interpreter's imports, which slow less.  Set-up times are scaled instead by
a reference import: a fresh interpreter importing REF_MODULES, standard
modules that load the way qrank's imports do (Python sources, C
extensions), in a process of their own so that no change to qrank can
move them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# seconds the loop takes at the reference speed: about its median in a fast
# phase of a 2-vCPU virtual machine (2.0 GHz), Python 3.11.7
REF_S = 0.001

# seconds a fresh interpreter takes to import REF_MODULES at the reference
# speed: about its median on that machine
REF_IMPORT_S = 0.1
REF_MODULES = "asyncio, unittest, email.parser, http.client, xml.dom.minidom, sqlite3, tarfile, json, decimal, argparse, csv, difflib, configparser"
REF_IMPORT = f"import time; t = time.perf_counter(); import {REF_MODULES}; print(time.perf_counter() - t)"

_P = 1000003
_A = [(i * 7919 + 13) % _P for i in range(56)]
_B = [(i * 104729 + 7) % _P for i in range(56)]

# calibration samples on each side of a task that its speed is taken from
WINDOW = 5


def _loop():
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = (out[i + j] + x * y) % _P
    s = Fraction(0)
    for k in range(1, 200):
        s += Fraction(k, k * k + 1)
    return out, s


def seconds() -> float:
    """One timed run of the loop."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def scale(times: list[float], cals: list[float]) -> list[float]:
    """times[i] at the reference speed, cals[i] being the loop's time taken
    just before times[i]; the speed for each time is the median of the
    loop's times over the 2 * WINDOW + 1 nearest samples, which steps over
    a single interrupted sample."""
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(t * REF_S / statistics.median(near))
    return out


def scale_setup(times: list[float], refs: list[float]) -> list[float]:
    """times[i] at the reference speed, the reference import having taken
    refs[i] just before times[i] and refs[i + 1] just after."""
    return [t * REF_IMPORT_S * 2 / (a + b) for t, a, b in zip(times, refs, refs[1:])]
