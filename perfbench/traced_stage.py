"""Run one evoquery CLI stage in this fresh interpreter with spans recorded.

Usage: python3 perfbench/traced_stage.py SPANS_OUT STAGE -- CLI_ARGS...

Times the import of ``evoquery.cli``, wraps the package's public
functions (see ``spans.TARGETS``), runs ``evoquery.cli.main`` on the
arguments after ``--`` and writes the spans to SPANS_OUT as JSON. The
exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path

from spans import SpanRecorder, install


def main() -> int:
    spans_out, stage, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    recorder = SpanRecorder()
    start = time.perf_counter()
    import evoquery.cli

    recorder.add("cli.import", start, time.perf_counter())
    missing = install(recorder)
    for target in missing:
        print(f"trace: evoquery.{target} not found; not traced", file=sys.stderr)
    index = recorder.open("cli.main")
    try:
        code = evoquery.cli.main(cli_args)
    finally:
        recorder.close(index)
        Path(spans_out).write_text(
            json.dumps({"stage": stage, "spans": recorder.spans, "untraced": missing}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
