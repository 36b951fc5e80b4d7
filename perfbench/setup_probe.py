"""Set-up cost of one workload: import the modules it uses plus one warm-up call.

Run as ``python3 perfbench/setup_probe.py <workload>`` in a fresh process; it
prints the seconds spent.  The worker calls ``set_up`` itself before it times
anything, so caches are filled and lazy set-up is done.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time


def set_up(workload: str) -> None:
    if workload == "density":
        from kinklab import density

        density.density_trajectory(64, 8, 2, 0)
    elif workload == "oracles":
        from kinklab import oracles

        oracles.verify_figure_iterates()
    elif workload == "preimage":
        from kinklab import preimage

        preimage.preimages("1101001")
    elif workload == "cli":
        from kinklab import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["classify", "1101001"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    set_up(sys.argv[1])
    print(repr(time.perf_counter() - t0))
