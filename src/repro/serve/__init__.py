"""Serving layer: the analysis daemon and its wire protocol.

``python -m repro serve`` boots :class:`AnalysisDaemon`, an asyncio
HTTP daemon that runs each analysis request in its own fresh engine
context with bounded concurrency, per-request correlation IDs and
telemetry, and graceful drain on shutdown.  See
:mod:`repro.serve.daemon` for the concurrency story and
:mod:`repro.serve.requests` for the request schema.
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import AnalysisDaemon, ServeConfig, run_daemon
from repro.serve.requests import AnalysisRequest, RequestError, parse_request

__all__ = [
    "AnalysisDaemon",
    "AnalysisRequest",
    "RequestError",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "parse_request",
    "run_daemon",
]
