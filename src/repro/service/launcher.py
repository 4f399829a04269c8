"""The daemon's flags and serve loop, behind ``python -m repro serve``::

    python -m repro serve --host 0.0.0.0 --port 8008 \\
        --cache-dir ~/.cache/repro-service

``REPRO_CACHE_HMAC_KEY`` signs/verifies on-disk cache artifacts
(resolved by :meth:`repro.CompileOptions.resolved_cache_hmac_key`);
combine it with ``--strict-cache`` to make a tampered shared cache a
hard, health-visible failure instead of a recompile.
"""

from __future__ import annotations

import argparse

from ..obs import metrics as obs_metrics
from ..pipeline import CompileOptions
from .server import create_server
from .state import DEFAULT_MEMO_SIZE

__all__ = ["add_serve_arguments", "run"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8008


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon flags of ``python -m repro serve``."""
    parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"bind address (default: {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 = ephemeral (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared on-disk artifact cache behind the in-process memo "
        "(default: disabled); set REPRO_CACHE_HMAC_KEY to sign/verify "
        "entries",
    )
    parser.add_argument(
        "--strict-cache", action="store_true",
        help="escalate cache integrity rejections to hard errors "
        "(surfaced by /health as non-200)",
    )
    parser.add_argument(
        "--memo-size", type=int, default=DEFAULT_MEMO_SIZE, metavar="N",
        help=f"in-process compiled-pipeline LRU capacity "
        f"(default: {DEFAULT_MEMO_SIZE})",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log one line per handled request to stderr",
    )


def run(args: argparse.Namespace) -> int:
    """Build the server from parsed flags and serve until interrupted."""
    # Install the process-wide metrics registry before the server state
    # is built: the state adopts it as its store, so GET /metrics covers
    # the pipeline/cache/executor instrumentation beside the service's
    # own series.  (Idempotent when already installed — e.g. a
    # supervising process that installed its own registry first.)
    try:
        obs_metrics.install()
    except RuntimeError:
        pass  # a different registry is already installed; adopt it
    options = CompileOptions(
        cache_dir=args.cache_dir,
        strict_cache=args.strict_cache,
    )
    server = create_server(
        host=args.host,
        port=args.port,
        options=options,
        memo_size=args.memo_size,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    cache = args.cache_dir if args.cache_dir else "disabled"
    print(
        f"repro compilation service listening on http://{host}:{port} "
        f"(cache: {cache}, memo: {args.memo_size} pipelines)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.server_close()
    return 0
