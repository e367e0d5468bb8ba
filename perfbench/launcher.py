"""Start the ingestion server for the benchmark, optionally traced.

    python3 perfbench/launcher.py [--spans FILE] -- <repro.service args>

Runs ``python -m repro.service`` from the checkout's ``src/`` in this
process.  With ``--spans`` it first wraps the server-side public entry
points (``spans.install_server_spans``) and, once the server has
drained and returned, writes the spans it kept in memory to FILE.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    from repro.service.__main__ import main as serve

    if spans_path is None:
        return serve(argv)
    from spans import Tracer, install_server_spans

    tracer = Tracer()
    install_server_spans(tracer)
    code = serve(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
