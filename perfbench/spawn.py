"""Run one command; report its wall time, exit status and peak RSS.

Linux carries a process's peak RSS (``ru_maxrss``) over into a child
across fork and exec, so a command started straight from the harness
would report the harness's own peak whenever that is the larger one.
This process stays small and starts the command itself, so the peak
``os.wait4`` returns for the command is the command's own.

Usage::

    python3 perfbench/spawn.py <report fd> <command> [<arg> ...]

The command inherits stdin, stdout and stderr.  Once it has exited, one
JSON object ``{"wall_s", "code", "peak_rss_mb"}`` is written to the
report file descriptor; wall time runs from spawn to exit.
"""

import json
import os
import sys
from time import perf_counter

report_fd, argv = int(sys.argv[1]), sys.argv[2:]
os.set_inheritable(report_fd, False)
t0 = perf_counter()
pid = os.posix_spawnp(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = perf_counter() - t0
with os.fdopen(report_fd, "w") as report:
    json.dump({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
               "peak_rss_mb": usage.ru_maxrss / 1024}, report)
