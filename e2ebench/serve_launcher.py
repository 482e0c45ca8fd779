"""Start ``repro serve`` with spans recorded around each layer.

The traced twin of ``python -m repro.cli serve ...``: same arguments,
same single daemon process, but :func:`tracing.install` wraps the
layer boundaries first.  When the daemon exits (SIGINT drains it), one
line starting with ``E2EBENCH-LAYERS`` carries the per-layer metrics
as JSON on standard output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from serve_workload import LAYERS_PREFIX  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main
    from repro.serve import ServeApp

    start = ServeApp.start

    async def start_then_reset(self, *args, **kwargs):
        # Tenants are built and trained before the port is bound; the
        # metrics cover serving only.
        await start(self, *args, **kwargs)
        tracer.reset()

    ServeApp.start = start_then_reset

    code = cli_main(argv)
    submit = tracer.summary().get("serve.dispatch")
    calls = submit["calls"] if submit else 0
    print(LAYERS_PREFIX + json.dumps({
        "requests": calls,
        "submit_ms": submit["total_s"] * 1e3 / calls if calls else 0.0,
        "layers": layer_metrics(tracer, calls),
    }), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
