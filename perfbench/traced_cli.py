"""One polysample CLI call with layer spans recorded.

Usage: python perfbench/traced_cli.py SPANS_FILE CALL_ID -- CLI_ARGS...

Installs the wrappers of ``tracer.TARGETS``, calls ``polysample.cli.main``
with CLI_ARGS, removes the wrappers, writes the spans to SPANS_FILE and exits
with the CLI's own exit code. ``polysample`` must be importable (the
benchmark runs this with PYTHONPATH=src).
"""

import sys

import polysample.cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, call_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = polysample.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.save(spans_path, call_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
