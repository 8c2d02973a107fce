#!/usr/bin/env python3
"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --summary S.json --chrome T.json \\
        --reset-file R -- --port 0 --port-file P --jobs ...

Run from the repository root.  SIGUSR1 forgets every span recorded so
far (the client sends it once the warm cells are prefilled) and then
creates ``--reset-file``.  When ``serve`` returns (SIGTERM drains it),
the span totals and the store's hit/miss counts since the reset go to
``--summary`` and the kept spans to ``--chrome`` as a Chrome-trace JSON.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

from tracing import Tracer, install_miss_counter, store_counts  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--chrome", required=True)
    parser.add_argument("--reset-file", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    tracer = Tracer()
    tracer.install()
    install_miss_counter(tracer)

    baseline = store_counts()

    def on_reset(signum, frame) -> None:
        tracer.reset()
        baseline.update(store_counts())
        with open(args.reset_file, "w") as handle:
            handle.write("reset\n")

    signal.signal(signal.SIGUSR1, on_reset)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    tracer.write(args.chrome, args.summary, store={
        name: int(value - baseline[name]) for name, value in store_counts().items()
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
