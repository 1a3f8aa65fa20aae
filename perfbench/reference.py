"""Fixed machine-speed reference for the f2lab benchmark.

It starts an interpreter, imports the standard-library modules f2lab loads
and runs a pure-Python Walsh-Hadamard butterfly, so its wall time follows the
machine's current speed the way an f2lab command does. It does not depend on
the tree under test. run.py runs it between passes and divides f2lab times by
its time, which cancels the slow swings in speed of a shared machine.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import hashlib  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401


def butterfly(n: int) -> list[int]:
    vals = list(range(n))
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            for j in range(i, i + h):
                a, b = vals[j], vals[j + h]
                vals[j], vals[j + h] = a + b, a - b
        h *= 2
    return vals


if __name__ == "__main__":
    butterfly(1 << 13)
