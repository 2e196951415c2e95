"""One timed CLI invocation, run as a fresh process by run.py.

    python3 child.py <src> <command> <config> <out> <result.json> [<spans.json>]

Mirrors ``idslab.cli.main`` (config errors exit 2, named numerical
failures exit 1) but takes a clock reading once the config is validated,
so set-up (interpreter start, imports, ``load_config``) and the command
body are timed apart.  With a spans path the layer tracer is installed
around the command body and its spans are written there at the end.
"""

import contextlib
import json
import resource
import sys
import threading
import time
from pathlib import Path


def main() -> int:
    src, command, config, out, result = sys.argv[1:6]
    spans_path = sys.argv[6] if len(sys.argv) > 6 else None
    sys.path.insert(0, src)
    from idslab import cli
    from idslab.config import ConfigError, load_config

    try:
        cfg = load_config(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    ready = time.monotonic()
    tracer = None
    root_span = contextlib.nullcontext()
    if spans_path:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        root_span = tracer.span(ROOT)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        with root_span:
            status = cli.COMMANDS[command](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        status = 2
    except cli.NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        status = 1
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path, run_s)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    Path(result).write_text(json.dumps({
        "status": status,
        "ready": ready,
        "run_s": run_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "python_threads": threading.active_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
