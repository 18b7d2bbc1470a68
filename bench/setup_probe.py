"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED SIZE

Times importing ``hyperlip.cli`` and building the workload's sets, spaces,
members and files from the seed, up to the point where the first timed op
could start.  Then runs the calibration kernel of ``run.py`` a few times, so
that the set-up time can be scaled by this moment's slowdown of the machine,
and prints the seconds and the slowdown as its last line.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

CALIBRATION_SAMPLES = 9


def main(argv):
    name, seed, size = argv[0], int(argv[1]), argv[2]
    env.require_checkout_hyperlip()
    import hyperlip.cli  # noqa: F401
    import workloads

    workdir = env.WORK / f"probe-{os.getpid()}"
    try:
        workloads.build(name, seed, size, workdir)
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from run import Calibration

    calibration = Calibration()
    for _ in range(CALIBRATION_SAMPLES):
        calibration.sample()
    print(repr(elapsed), repr(calibration.slowdown()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
