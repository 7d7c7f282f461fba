"""One siglink invocation in a fresh process, timed from the inside.

    python3 perfbench/child.py MODE CONFIG OUT_DIR RESULT_JSON T0 TRACE

MODE is ``setup`` (start and load the config only), ``resolve`` or
``tune``. T0 is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so
``setup_s`` covers interpreter start, imports and config validation.
With TRACE 1 the layer functions are wrapped (see tracer.py) after the
config is loaded, so set-up is never traced. The result is written to
RESULT_JSON.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This program's peak resident set (VmHWM). ``ru_maxrss`` is not
    used: it keeps the benchmark parent's resident set from before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, cfg_path, out_dir, result_path, t0, trace = argv
    from siglink import pipeline
    from siglink.config import load_config

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(pipeline.__file__).resolve().parent.parent != src:
        print(f"siglink imported from {pipeline.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = load_config(cfg_path)
    t_cfg = time.monotonic()
    result: dict = {"setup_s": t_cfg - float(t0)}
    if mode != "setup":
        run = pipeline.run_resolve if mode == "resolve" else pipeline.run_tune
        tracer = None
        if trace == "1":
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
            run = tracer.span(f"pipeline.{run.__name__}", run)
            t_cfg = time.monotonic()
        outcome = run(config, Path(out_dir), threads=1)  # held: freeing it is not timed
        result["run_s"] = time.monotonic() - t_cfg
        if tracer is not None:
            result["trace"] = tracer.to_json()
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
