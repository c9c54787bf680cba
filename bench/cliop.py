"""Run one fisherlab CLI operation in-process and capture what it produced.

Run as a script, it is the probe: a fresh interpreter times
``import fisherlab`` plus the first, cold operation, runs the other
operations it is given, and prints one JSON line with that time, each
operation's digest and the process's peak resident memory. It imports
nothing heavy before the clock starts.

    python3 bench/cliop.py SRC_DIR OPS_JSON

``OPS_JSON`` is a list of ``[argv, out_path or null]`` pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback


def run_op(main, argv, out_path=None):
    """Call ``main(argv)`` with stdout captured.

    Returns ``(exit_code, stdout, out_bytes, seconds)``. An exception that
    escapes ``main`` gives exit code ``None`` and its traceback as stdout.
    ``seconds`` covers the call only, not reading the output file.
    """
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception:
        code = None
        buffer.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    out_bytes = b""
    if out_path is not None and code == 0:
        with open(out_path, "rb") as handle:
            out_bytes = handle.read()
    return code, buffer.getvalue(), out_bytes, seconds


def digest(code, stdout: str, out_bytes: bytes) -> str:
    """Fingerprint of everything an operation produced."""
    hasher = hashlib.sha256(repr(code).encode())
    hasher.update(stdout.encode())
    hasher.update(out_bytes)
    return hasher.hexdigest()


def _peak_rss_mb() -> float:
    """This process's peak resident memory, from Linux's ``VmHWM``.

    Not ``ru_maxrss``: a process started by exec keeps its parent's peak
    there, so it would report the harness's memory, not the probe's.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _probe() -> None:
    src, ops = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import fisherlab.cli

    digests = []
    for argv, out_path in ops:
        code, stdout, out_bytes, _ = run_op(fisherlab.cli.main, argv, out_path)
        if not digests:
            seconds = time.perf_counter() - start
        digests.append(digest(code, stdout, out_bytes))
    print(json.dumps({"seconds": seconds, "digests": digests, "peak_rss_mb": _peak_rss_mb()}))


if __name__ == "__main__":
    _probe()
