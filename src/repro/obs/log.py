"""The progress/status logging channel for CLI and harness output.

The CLI used to ``print`` progress lines ("wrote trace to ..."), which
left benchmark runs no way to silence the pipeline without losing their
own output.  All progress/status text now flows through one stdlib
``logging`` channel rooted at the ``repro`` logger:

* *Results* (tables, summaries, reports) stay on stdout via ``print`` --
  they are the program's output, and pipelines depend on them.
* *Progress* ("wrote metrics to ...", "running scenario ...") goes to
  ``log.info`` and lands on stderr, where ``--quiet`` can drop it and
  ``--verbose`` can widen it to debug detail without touching results.

:func:`configure_logging` is idempotent and owns exactly one stderr
handler; library code only ever calls :func:`get_logger` and logs --
per the usual library discipline, it never configures handlers itself,
so embedding applications keep full control.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["LOGGER_NAME", "configure_logging", "get_logger"]

#: Root of the package's logger hierarchy.
LOGGER_NAME = "repro"

#: Marks the handler :func:`configure_logging` owns (so repeated calls
#: reconfigure it instead of stacking duplicates).
_HANDLER_FLAG = "_repro_obs_handler"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` logger, or a dotted child like ``repro.tools.cli``."""
    if name is None or name == LOGGER_NAME:
        return logging.getLogger(LOGGER_NAME)
    if name.startswith(f"{LOGGER_NAME}."):
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure_logging(verbosity: int = 0) -> logging.Logger:
    """Install/retune the single stderr handler for CLI-style runs.

    ``verbosity``: negative = quiet (warnings and errors only), 0 =
    progress (info), positive = debug.  Returns the root ``repro``
    logger.  Safe to call repeatedly (once per CLI invocation): every
    call re-binds the handler to whatever ``sys.stderr`` is *now* --
    never to the stream of the first call, which a ``redirect_stderr``
    or a test harness has since replaced.
    """
    if verbosity < 0:
        level = logging.WARNING
    elif verbosity == 0:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(level)
    handler = next(
        (h for h in logger.handlers if getattr(h, _HANDLER_FLAG, False)), None)
    if handler is None:
        handler = logging.StreamHandler(sys.stderr)
        setattr(handler, _HANDLER_FLAG, True)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        # The one handler is the channel; don't echo into the root logger.
        logger.propagate = False
    else:
        # Not setStream(): it flushes the old stream first, which may be
        # a capture buffer closed since (every emit already flushed it).
        handler.stream = sys.stderr
    handler.setLevel(level)
    return logger
