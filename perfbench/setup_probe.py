"""Set-up as a fresh ``betapoly`` process pays it: import the package, build the config.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED

Prints the import time in milliseconds once the configuration is built; the
caller times from process start to that line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import betapoly  # noqa: E402,F401

import_ms = (time.perf_counter() - t0) * 1e3

from campaign import build_config, workload_spec  # noqa: E402

build_config(workload_spec(sys.argv[2]), int(sys.argv[3]))
print(f"{import_ms!r}", flush=True)
