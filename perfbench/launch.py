"""Traced launcher for one ``gibbs-series`` command line.

Times the ``gibbs_series`` import, installs the span tracer and calls
``gibbs_series.cli.main(argv)``, the function behind the console
script.  The command's output goes to stdout as usual; the raw span sums
go to the file named by ``--raw``.  Untraced runs use the console entry
point directly, never this launcher.

    python3 perfbench/launch.py --raw OUT.json -- [global options] COMMAND ...
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    split = sys.argv.index("--")
    opts, argv = sys.argv[1:split], sys.argv[split + 1 :]
    raw_path = opts[opts.index("--raw") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    t0 = time.perf_counter()
    import gibbs_series.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gibbs_series.cli.main(argv)
    text = out.getvalue()
    sys.stdout.write(text)
    raw = tracer.finish()
    raw.update(cli_processes=1, cli_import_s=import_s, cli_stdout_bytes=len(text.encode()))
    with open(raw_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    if spans_path:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
