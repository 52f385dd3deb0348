"""``python -m hxkit`` and the ``hx`` script: :func:`run`."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit code, with
    every object it made frozen out of the collector.  Every file ``hx``
    writes is closed before its command returns, so the collections at
    interpreter exit would find nothing to finish; frozen, they sweep
    nothing."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
