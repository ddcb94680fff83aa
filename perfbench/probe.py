"""Host-speed probe helper: times a fixed pure-Python loop on one CPU.

Started by :class:`common.HostProbe` as ``python3 perfbench/probe.py
CPU``; pins itself to ``CPU``, then answers each line on stdin with the
seconds the loop took, one line on stdout.  Exits at end of input.
"""

import os
import sys

from common import probe_seconds


def main() -> int:
    cpu = int(sys.argv[1])
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass
    for _ in sys.stdin:
        print(repr(probe_seconds()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
