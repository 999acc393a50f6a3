"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python bench/setup_probe.py WORKLOAD SEED

Set-up is generating the workload's inputs and importing ``onedatom.cli``
(with ``src`` on PYTHONPATH).
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
import onedatom.cli  # noqa: E402,F401

print(f"{time.perf_counter() - t0!r}")
