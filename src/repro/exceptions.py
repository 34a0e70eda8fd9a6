"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single except clause while
still being able to distinguish individual failure modes.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """A quantum simulation was asked to do something physically invalid.

    Examples: applying a gate to an out-of-range qubit, normalising a zero
    vector, or measuring an empty register.
    """


class NoCloningError(ReproError):
    """An operation attempted to copy an unknown quantum state.

    Raised by :mod:`repro.dqdm.data` and :mod:`repro.qnet.nocloning` when
    client code tries to duplicate a quantum payload, which the no-cloning
    theorem forbids.
    """


class EmbeddingError(ReproError):
    """Minor embedding of a logical QUBO onto a hardware graph failed."""


class InfeasibleError(ReproError):
    """An optimization problem has no feasible solution.

    Raised e.g. when a decoded QUBO sample violates hard constraints and no
    repair is possible, or a MILP is proven infeasible.
    """


class ParseError(ReproError):
    """A query string (SQL or QQL) could not be parsed."""


class ProtocolError(ReproError):
    """A distributed/quantum-network protocol was used out of order.

    Examples: teleporting over a link with no entangled pair available, or
    committing a distributed transaction that was never prepared.
    """


def require_count(name: str, value, minimum: int = 1) -> int:
    """Return ``value`` as an int, or raise :class:`ReproError` unless it is
    an integer (not a bool) of at least ``minimum``; samplers check their
    read, sweep and restart counts with it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ReproError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
