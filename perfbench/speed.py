"""Host speed probe, so timings can be read at one fixed CPU speed.

The host the benchmark runs on is shared: the same pure-Python work can
take 1.5 times longer for a minute or two, and CPU time slows with it (no
steal time is accounted).  A run therefore times a fixed reference loop
before each pass and rescales the pass's CPU seconds to the speed at which
that loop takes ``REFERENCE_S``.  Time spent off the CPU, such as the fake
endpoint's sleeps, is kept as measured.  The loop uses only the standard
library, so no change to fewner can move it.
"""

from __future__ import annotations

import hashlib
import json
import re
import time

REFERENCE_S = 0.35  # the loop's typical duration on a 2-vCPU x86-64 VM, Python 3.11
REFERENCE_ROUNDS = 30000

_WORD = re.compile(r"\w+")


def reference_s() -> float:
    """Seconds a fixed mix of string, regex, json, hashing and dict work
    takes now, like the work fewner does per prompt."""
    started = time.perf_counter()
    seen: dict[str, int] = {}
    for i in range(REFERENCE_ROUNDS):
        text = f"Input: patient r{i:05d} reported dyspnea after aspirin {i % 17} and {i % 5}\nOutput:"
        words = _WORD.findall(text)
        seen[text[-20:]] = len(words) + len(json.dumps({"p": text, "t": words}, sort_keys=True))
        hashlib.sha256(text.encode()).hexdigest()
        sorted(words)
    return time.perf_counter() - started


def at_reference_speed(wall_s: float, cpu_s: float, reference: float) -> float:
    """wall_s with its CPU seconds rescaled from the speed at which the
    reference loop took reference seconds to the speed at which it takes
    REFERENCE_S."""
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s * REFERENCE_S / reference
