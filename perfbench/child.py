"""Run operations in this fresh interpreter and print one JSON result line.

Usage: python3 perfbench/child.py REQUEST_JSON

The request names the repository root, the time (``time.monotonic``, a
system-wide clock) at which the parent started this process, whether to
trace, and either one operation or the steps of one capacity probe.  Set-up
runs from interpreter start until ``gowers.cli`` is imported and its parser
built (and the script module loaded, for a script).  An operation's time
runs from the end of set-up until its report is written, with stdout and
stderr captured.  A probe runs its steps one after another and stops at the
first step that does not exit 0.

A calibration loop runs before the import (its time is left out of set-up)
and again after the operation; run.py uses it to take the machine's
momentary speed out of the timings.
"""

import io
import json
import sys
import time
import traceback


def _run(entry, argv: list[str], tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    crashed = False
    if tracer is not None:
        root = tracer.enter("cli.op")
    start = time.perf_counter()
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        # What a user would see: a traceback and exit status 1.
        crashed = True
        code = 1
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.leave(root)
            end = tracer.spans[root][2]
            start = tracer.spans[root][1]
        sys.stdout, sys.stderr = saved
    return {
        "exit": code,
        "crashed": crashed,
        "op_s": end - start,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-4000:],
    }


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast this machine runs
    right now.  No program code runs inside it."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    return time.perf_counter() - start


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, f"{req['root']}/src")
    before = time.monotonic()
    cal_pre = calibrate()
    cal_s = time.monotonic() - before
    import gowers.cli

    gowers.cli.build_parser()
    modules = []
    entry = gowers.cli.main
    argv = req.get("op")
    if argv and argv[0].endswith(".py"):
        import importlib.util

        path = f"{req['root']}/{argv[0]}"
        name = argv[0].rsplit("/", 1)[-1][:-3]
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        modules.append(module)
        entry, argv = module.main, argv[1:]
    setup_s = time.monotonic() - req["spawned"] - cal_s

    import resource

    result = {"setup_s": setup_s, "cal_pre": cal_pre}
    if req.get("steps"):
        steps = []
        for step in req["steps"]:
            steps.append(_run(gowers.cli.main, step))
            if steps[-1]["exit"] != 0:
                break
        result["steps"] = steps
    elif req["trace"]:
        from tracer import Tracer

        tracer = Tracer(modules)
        result["patched"] = tracer.install()
        result.update(_run(entry, argv, tracer))
        result["restored"] = tracer.restore()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters()
    else:
        result.update(_run(entry, argv))
    result["cal_post"] = calibrate()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
