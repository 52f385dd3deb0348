"""Run the hx command line with spans at its layer boundaries.

    python3 perfbench/hx_traced.py SPANFILE HX-ARGS...

Behaves as ``python -m hxkit HX-ARGS...`` and exits with its code, after
writing the spans it recorded (cli -> sigio, cli -> hilbert, hilbert -> dft)
to SPANFILE as JSON.  hxkit is imported from PYTHONPATH, as for the
untraced command.
"""

import sys
from pathlib import Path

import hxkit.cli

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install(spans.CLI_CHILD)
    with tracer.span("cli.main"):
        code = hxkit.cli.main(argv)
    tracer.dump_child(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
