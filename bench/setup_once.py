"""Time one benchmark set-up in a fresh interpreter, with its references.

Set-up is the import of the program, input generation and one warm-up call,
the cost every CLI invocation pays before useful work. Prints one JSON object:
``import_s`` (imports, numpy's included, and input generation), ``warmup_s``
(the warm-up call) and the references each part is scaled by, taken in this
same process (``hostspeed.py``): ``numpy_s``, the import of numpy alone, and
``kernel_s``, one run of the reference kernel after the warm-up.

    python3 bench/setup_once.py <workload> <seed> <workdir>
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import numpy  # noqa: E402, F401  (the import is part of what is timed)

numpy_s = perf_counter() - start
import workloads  # noqa: E402

workload = workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
imported = perf_counter()
workload.warmup.reset()
workload.warmup.call()
warmup_s = perf_counter() - imported

import hostspeed  # noqa: E402

print(json.dumps({"import_s": imported - start, "numpy_s": numpy_s,
                  "warmup_s": warmup_s, "kernel_s": hostspeed.kernel_seconds()}))
