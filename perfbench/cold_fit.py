"""The first CubeLSI fit of a fresh process, as a refit process pays it.

Usage: ``python3 perfbench/cold_fit.py CORPUS.tsv`` with a tab-separated
``user, tag, resource`` assignment log.  It imports the program, reads the
log, fits it once and prints ``time.monotonic()`` at the end of the fit.
``run.py`` reads the clock just before it starts this process, so the
difference covers interpreter start, the first-use imports of numpy, scipy
and the program, the log read and the fit.
"""

import sys
import time


def main() -> int:
    import common
    from repro.tagging.folksonomy import Folksonomy
    from repro.tagging.io import read_assignments_tsv

    common.quiet_warnings()
    folksonomy = Folksonomy(read_assignments_tsv(sys.argv[1]), name="cold-fit")
    common.pipeline().fit(folksonomy)
    print(time.monotonic())
    return 0


if __name__ == "__main__":
    sys.exit(main())
