"""One benchmark request: a fresh interpreter that runs the permhomology CLI.

    python3 bench/child.py REPORT [--trace ID | --setup-only] -- CLI ARGS...

This is what the ``permhomology`` console script does, with clocks
around it.  Set-up is timed apart from the request: importing
``permhomology.cli`` and running ``homology.ce_convention()``, which
every invocation pays.  The CLI's stdout and stderr pass through
untouched; timings, peak RSS and (with --trace) spans go to the JSON
file REPORT.  ID is the request id recorded in every span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    report = argv[0]
    sep = argv.index("--")
    flags, cli_args = argv[1:sep], argv[sep + 1:]
    t0 = time.perf_counter()
    from permhomology import cli, homology

    t1 = time.perf_counter()
    homology.ce_convention()
    t2 = time.perf_counter()
    rec = {"import_s": t1 - t0, "convention_s": t2 - t1}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer(int(flags[flags.index("--trace") + 1]))
            tracer.install()
        t3 = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        except Exception as exc:  # a crash is a failed request, not a dead run
            import traceback

            traceback.print_exc()
            rec["crash"] = repr(exc)
            rc = 1
        sys.stdout.flush()
        rec["solve_s"] = time.perf_counter() - t3
        rec["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            rec["spans"] = tracer.spans
            rec["counters"] = tracer.counters
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
