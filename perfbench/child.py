"""One CLI call in a fresh interpreter, timed from the inside.

Usage: python3 perfbench/child.py JOB_JSON

JOB_JSON holds `src` (the directory that contains the hardyframes
package), `argv` (the `hardyframes` arguments, or null to import only),
`trace` (wrap the layers in spans) and `result` (where to write the
timings).  The result records the monotonic clock just before and just
after `hardyframes.cli.main(argv)`, its return code, the process's CPU
time and peak RSS, the file the package was imported from, and the
spans when traced.  The parent launched this process, so its launch time
is on the same clock and the difference is the CLI's cold start.
"""

import json
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import tracing

        import hardyframes.cli  # noqa: F401  (load every layer before wrapping)

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import hardyframes
    import hardyframes.cli as cli

    result = {"package": hardyframes.__file__, "rc": None, "error": None}
    t_first = _now()
    if job["argv"] is not None:
        try:
            result["rc"] = cli.main(job["argv"])
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception:
            result["error"] = traceback.format_exc()
    else:
        result["rc"] = 0
    t_end = _now()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        t_first=t_first,
        t_end=t_end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        trace=tracer.dump() if tracer is not None else None,
    )
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
