#!/usr/bin/env python3
"""Run the identity/cross-check suites and print every finding.

Thin wrapper over `hx verify`; any `hx verify` flag passes through.

    python3 scripts/run_verify.py                 # all suites
    python3 scripts/run_verify.py --suite core --seed 7
"""

import sys

from hxkit.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["verify", *sys.argv[1:]]))
