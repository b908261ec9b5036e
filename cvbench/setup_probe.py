"""Time one cold set-up in a fresh interpreter and print the seconds,
then the seconds of one speed probe (see ``speed``) made just after it.

Set-up is what a user pays before the first useful call: importing cvmc,
loading the scenario through ``cvmc.cli.load_scenario`` and one small
warm-up call. Usage: ``python3 cvbench/setup_probe.py WORKLOAD SCENARIO``.
"""

import sys
import time

started = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from cvbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].set_up(sys.argv[2])
    seconds = time.perf_counter() - started
    from cvbench import speed

    print(seconds, speed.probe())
