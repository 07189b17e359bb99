"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/serve_traced.py --spans OUT.json -- serve --port 0 ...

Installs the serve-path wrappers (:func:`spans.install_serve`), runs
``repro.cli.main`` with the arguments after ``--``, and writes the spans to
``OUT.json`` once the server has drained (SIGTERM/SIGINT).
"""

from __future__ import annotations

import sys

from spans import Recorder, install_serve


def main(argv: "list[str]") -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: serve_traced.py --spans OUT.json -- serve ARGS...",
              file=sys.stderr)
        return 2
    recorder = Recorder()
    install_serve(recorder)
    import repro.cli

    code = repro.cli.main(argv[3:])
    recorder.dump(argv[1])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
