"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 [--cache-dir DIR]
    python3 bench/worker.py --setup-only

The package is imported first, before this program's own modules, so that
``setup_s`` counts every module ``shintani.cli`` pulls in: the standard
library ones, numpy, sympy and the package itself.  ``passes.py`` then runs
and checks the ops and prints one JSON object on stdout.
"""

import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_package():
    """Import shintani.cli from the checkout's src/; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "shintani", "cli.py")):
        raise SystemExit(f"error: no package source at {SRC}")
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import shintani.cli  # noqa: F401
    setup_s = perf_counter() - t0
    origin = os.path.realpath(sys.modules["shintani"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: shintani imported from {origin}, not {SRC}")
    return setup_s


if __name__ == "__main__":
    setup_s = import_package()
    import passes

    raise SystemExit(passes.main(setup_s))
