"""Run one permfiber CLI operation in this fresh process and report it.

Usage: python3 perfbench/shim.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory holding the ``permfiber``
package), ``argv`` (the CLI arguments), ``inputs`` (files the operation
reads), ``record`` (where to write this report), ``probe`` (stop once
ready, without running the CLI), ``trace`` (a JSON-lines span file,
or null to run untraced) and ``calibrate`` (sample the host's speed
while the CLI runs; see ``calibrate.py``).

The process is "ready" once the interpreter is up, ``permfiber`` is
imported and the input files are read; the parent takes the spawn time,
so set-up is ``ready`` minus spawn on the shared monotonic clock.  Wall
time is the time inside ``permfiber.cli.main``, less the time the
calibration samples took; peak RSS is the process's VmHWM (see
``tracer.peak_rss_kib``).  The CLI's stdout is this process's stdout,
untouched.
"""

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from permfiber import cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    for path in spec["inputs"]:
        with open(path, "rb") as handle:
            handle.read()
    ready = time.perf_counter()
    record = {"ready": ready}
    code = 0
    if not spec["probe"]:
        sampler = None
        if spec["calibrate"]:
            import calibrate
            sampler = calibrate.Sampler()
        start = time.perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:          # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if sampler is not None:
                sampler.stop()
        end = time.perf_counter()
        sys.stdout.flush()
        from tracer import peak_rss_kib
        record.update(code=code, wall_s=end - start, peak_rss_kib=peak_rss_kib())
        if sampler is not None:
            record.update(wall_s=end - start - sampler.spent_s,
                          calibration=sampler.samples, calibration_wrong=sampler.wrong)
    if tracer is not None:
        tracer.uninstall()
        record["restored"] = tracer.restored()
        if not spec["probe"]:
            record["raw"] = tracer.raw_counters(record["wall_s"])
            tracer.write_spans(spec["trace"], spec["op"])
    with open(spec["record"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
