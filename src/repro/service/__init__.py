"""repro.service — async solver-as-a-service over the ``repro`` engine.

The service tier turns the batch-shaped engine into a request-shaped one:
independent ``POST /v1/solve`` submissions are **coalesced** into
``solve_many`` waves (window + max-wave policy, single-flight dedup)
without changing any result — explicit per-request seeds plus single-item
shards make every coalesced solve bit-identical to the direct facade
call.  See ``docs/service.md`` for the architecture and the HTTP API.

Programmatic entry points::

    from repro.service import SolverService, ServiceServer, load_config

    service = SolverService(load_config("service.toml"))
    server = ServiceServer(service)
    await server.start(); ...; await server.shutdown()

or ``python -m repro.service [--config service.toml] [--host H] [--port P]``.
"""

from repro.service.admission import (
    DEFAULT_LANE_WEIGHTS,
    PRIORITIES,
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionShed,
    TenantBudget,
)
from repro.service.app import ServiceDraining, SolverService
from repro.service.coalesce import CoalescingQueue, QueueClosed, QueueFull
from repro.service.config import ServiceConfig, load_config
from repro.service.http import ServiceServer
from repro.service.jobs import Job, JobBook
from repro.service.metrics import MetricsRegistry
from repro.service.problems import list_kinds, problem_from_spec

__all__ = [
    "SolverService",
    "ServiceDraining",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionShed",
    "TenantBudget",
    "PRIORITIES",
    "DEFAULT_LANE_WEIGHTS",
    "ServiceServer",
    "ServiceConfig",
    "load_config",
    "CoalescingQueue",
    "QueueFull",
    "QueueClosed",
    "Job",
    "JobBook",
    "MetricsRegistry",
    "problem_from_spec",
    "list_kinds",
]
