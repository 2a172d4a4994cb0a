"""Runs one scoff CLI command in this process and writes a JSON report.

    python3 runner.py REPORT TRACE -- <scoff command and options>

TRACE is 1 to record spans with ``tracer.Tracer``. The report holds the exit
code, the CLOCK_MONOTONIC time at which the first ``build_model`` returned,
the process's peak RSS in KiB, and the trace. The benchmark reads spawn and
exit times itself.
scoff must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak RSS. ru_maxrss is not: exec carries over the
    high-water mark of the process that spawned it."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: runner.py REPORT TRACE -- ARGS...")
    argv = sys.argv[4:]

    import scoff.cli
    import scoff.training

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    build = scoff.training.build_model

    def build_model(*args, **kwargs):
        model = build(*args, **kwargs)
        marks.setdefault("setup_done", time.monotonic())
        return model

    scoff.training.build_model = build_model
    rc = scoff.cli.main(argv)
    report = {"rc": rc, "marks": marks, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
