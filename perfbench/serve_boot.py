"""Start ``repro serve`` for the serve-mixed workload.

Usage: ``python3 perfbench/serve_boot.py OUT.json TRACE serve ARGS...``

With TRACE=1 the span wrappers of :mod:`layers` are installed before
the server starts.  The server runs until interrupted (SIGINT); then
this process writes its spans and peak memory to OUT.json.
"""

from __future__ import annotations

import json
import pathlib
import sys

import common
import layers
from spans import Recorder, install

from repro import cli


def main(argv: list[str]) -> int:
    out_path, trace, serve_args = argv[0], argv[1] == "1", argv[2:]
    recorder = Recorder()
    if trace:
        install(recorder, layers.TARGETS)
    try:
        code = cli.main(serve_args)
    finally:
        pathlib.Path(out_path).write_text(json.dumps({
            "spans": recorder.spans,
            "facts": recorder.facts,
            "peak_rss_mb": common.peak_rss_mb(),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
