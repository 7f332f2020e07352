"""Time one set-up in a fresh interpreter and print it as one JSON line.

Set-up is what a user waits for before the first operation: importing the
package (with numpy and scipy), ``build_config``, ``build_context`` and the
generator-only baseline.  Interpreter start-up is not counted.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from paths import check_imported, package_root  # noqa: E402

ROOT = package_root()

from workloads import WORKLOADS  # noqa: E402

check_imported(ROOT)
T_IMPORT = perf_counter()
workload = WORKLOADS[sys.argv[1]]
workload.setup(workload.inputs(int(sys.argv[2])))
T_END = perf_counter()
print(json.dumps({"setup_s": T_END - T0, "import_s": T_IMPORT - T0}))
