"""`python -m catbundle` and the `catbundle` script: `gc.freeze()` after `cli.main`, so exit
neither collects nor frees the live heap; atexit hooks and flushes run; `cli.main` never freezes."""

import gc
import sys

from . import cli


def run() -> None:
    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
