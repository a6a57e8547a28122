"""Request/response vocabulary of the serving front end.

A client POSTs a JSON body describing one simulation -- the same
(kernel, controller key, SimConfig) triple the engine's job vocabulary
uses -- and the server *normalizes* it to the engine's content digest
(:func:`repro.engine.fingerprint.job_digest`).  Everything downstream
(cache lookup, coalescing, the durable ledger, ``/result`` polling) is
keyed on that digest, so two requests that mean the same simulation
are the same request no matter how they were spelled.

Request body fields::

    kernel    required  Table II kernel name
    key       required  controller key as a JSON list,
                        e.g. ["equalizer", "performance"]
    client    optional  rate-limit identity (default: peer address)
    wait      optional  bool; true (default) holds the connection for
                        a run-now admission, false always returns 202
    scale     optional  must equal the server's pinned scale
    seed      optional  must equal the server's pinned workload seed

``scale`` and ``seed`` are part of the request contract from day one
(they are inputs to the digest), but one server process is pinned to
one (SimConfig, scale) pair -- the engine's invariant -- so a
mismatching value is a loud 400, never a silently different run.

Every result body carries a ``provenance`` field saying where the
bytes came from:

``"cache"``
    recalled from the content-addressed store;
``"simulated"``
    produced by an engine run this request caused or joined.

Result bodies are *canonical*: :func:`canonical_json` (sorted keys,
minimal separators) over ``{"digest", "provenance", "result"}`` with
no per-client fields, which is what makes the coalescing guarantee
"byte-identical responses" rather than "equal after parsing".
"""

from dataclasses import dataclass, replace
from typing import Dict, Tuple

import json

from ..config import SimConfig
from ..engine.fingerprint import job_digest
from ..engine.jobs import Job, make_controller
from ..errors import ReproError
from ..sim.results import RunResult, encode_controller_key
from ..workloads import kernel_by_name

#: Result provenance values (see module docstring).
PROVENANCE_CACHE = "cache"
PROVENANCE_SIMULATED = "simulated"

_REQUEST_FIELDS = ("kernel", "key", "client", "wait", "scale", "seed")


class BadRequest(ReproError):
    """A request body that cannot be normalized (HTTP 400)."""


@dataclass(frozen=True)
class SimRequest:
    """One normalized simulation request."""

    kernel: str
    key: Tuple
    client: str
    wait: bool
    #: The engine content digest this request normalizes to.
    digest: str

    def job(self) -> Job:
        """The engine job this request denotes."""
        return Job(kernel=self.kernel, key=self.key,
                   digest=self.digest)


def normalize_request(body: Dict, sim: SimConfig, scale: float,
                      default_client: str) -> SimRequest:
    """Validate a decoded POST body and fold it onto a content digest.

    Raises :class:`BadRequest` for anything malformed: unknown fields
    (typos must not silently select defaults), unknown kernels,
    controller keys the engine vocabulary rejects, or a ``scale`` /
    ``seed`` that differs from the server's pinned configuration.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    unknown = sorted(set(body) - set(_REQUEST_FIELDS))
    if unknown:
        raise BadRequest(
            f"unknown request field(s) {', '.join(unknown)} "
            f"(known: {', '.join(_REQUEST_FIELDS)})")
    kernel = body.get("kernel")
    if not isinstance(kernel, str):
        raise BadRequest("'kernel' must be a kernel name string")
    raw_key = body.get("key")
    if not isinstance(raw_key, list):
        raise BadRequest("'key' must be a controller key list, e.g. "
                         "[\"equalizer\", \"performance\"]")
    key = tuple(raw_key)
    client = body.get("client", default_client)
    if not isinstance(client, str) or not client:
        raise BadRequest("'client' must be a non-empty string")
    wait = body.get("wait", True)
    if not isinstance(wait, bool):
        raise BadRequest("'wait' must be a boolean")
    if "scale" in body and body["scale"] != scale:
        raise BadRequest(
            f"this server is pinned to scale={scale}; got "
            f"{body['scale']!r} (start another server for other "
            f"scales)")
    if "seed" in body and body["seed"] != sim.seed:
        raise BadRequest(
            f"this server is pinned to seed={sim.seed}; got "
            f"{body['seed']!r}")
    try:
        spec = kernel_by_name(kernel)
        encode_controller_key(key)
        # Instantiating the controller is the engine's own validation
        # of the key vocabulary (VF states, block counts, budgets);
        # the instance is discarded, the worker builds its own.
        make_controller(key, replace(sim.equalizer))
    except ReproError as exc:
        raise BadRequest(str(exc)) from exc
    digest = job_digest(Job(kernel=kernel, key=key), spec, sim, scale)
    return SimRequest(kernel=kernel, key=key, client=client,
                      wait=wait, digest=digest)


def canonical_json(data: Dict) -> bytes:
    """The one byte encoding of a response body (sorted, compact)."""
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode()


def result_body(digest: str, provenance: str,
                result: RunResult) -> bytes:
    """Canonical 200 body for a finished simulation."""
    return canonical_json({
        "digest": digest,
        "provenance": provenance,
        "result": result.to_dict(),
    })


def accepted_body(digest: str, state: str) -> bytes:
    """202 body: the job is admitted but not finished; poll for it."""
    return canonical_json({"digest": digest, "state": state,
                           "poll": f"/result/{digest}"})


def error_body(error: str, message: str, **extra) -> bytes:
    """Body of a non-2xx response."""
    data = {"error": error, "message": message}
    data.update(extra)
    return canonical_json(data)
