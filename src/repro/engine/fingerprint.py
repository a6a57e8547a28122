"""Content-addressed identity of a simulation run.

A cache entry is valid only while everything that determines the run's
output is unchanged: the kernel specification, the controller key, the
full :class:`~repro.config.SimConfig`, the workload scale, and the
simulator code itself.  :func:`job_digest` folds all of these into one
SHA-256 hex digest.

Code changes are covered by :func:`code_salt`: a hash over the source
text of every package that can influence a simulation's result
(``config``, ``sim``, ``workloads``, ``core``, ``baselines``,
``power``).  Editing any of those files invalidates the whole cache;
editing the engine, the experiment harnesses, or the docs does not.
Kernel ``variant`` callables (per-invocation behaviour) are hashed by
qualified name only -- their *behaviour* is covered by the code salt.
"""

import hashlib
import json
import os
from dataclasses import asdict, fields
from typing import Dict, Tuple

from ..config import SimConfig
from ..sim.results import encode_controller_key
from ..workloads import KernelSpec
from .jobs import Job

#: Bump when the cache entry layout changes incompatibly.
CACHE_FORMAT = 1

#: Sub-packages (and modules) of ``repro`` whose source text determines
#: simulation output.  Deliberately excludes ``engine`` and
#: ``experiments``: they orchestrate runs but never change run results.
_BEHAVIOR_SOURCES = ("config.py", "errors.py", "sim", "workloads",
                     "core", "baselines", "power")

_code_salt_cache = None


def code_salt() -> str:
    """Hash of the behaviour-determining source files (memoised)."""
    global _code_salt_cache
    if _code_salt_cache is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for entry in _BEHAVIOR_SOURCES:
            path = os.path.join(root, entry)
            for file_path in sorted(_python_files(path)):
                digest.update(os.path.relpath(file_path, root).encode())
                with open(file_path, "rb") as f:
                    digest.update(f.read())
        _code_salt_cache = digest.hexdigest()
    return _code_salt_cache


def _python_files(path):
    if os.path.isfile(path):
        yield path
        return
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def sim_config_fingerprint(sim: SimConfig) -> Dict:
    """JSON-safe dict capturing every field of a SimConfig."""
    return asdict(sim)


def kernel_spec_fingerprint(spec: KernelSpec) -> Dict:
    """JSON-safe dict capturing a kernel spec.

    The ``variant`` callable is represented by its qualified name; the
    code salt covers what the callable actually does.
    """
    data = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name == "phases":
            data[f.name] = [asdict(p) for p in value]
        elif f.name == "variant":
            data[f.name] = (None if value is None else
                            f"{getattr(value, '__module__', '?')}."
                            f"{getattr(value, '__qualname__', repr(value))}")
        else:
            data[f.name] = value
    return data


#: The one canonical encoding of a digest frame (sorted, compact).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Stands in for the controller key while a frame is encoded; the
#: frame is split around its encoding.
_KEY_SLOT = "\x00controller-key\x00"

#: (id(spec), id(sim), repr(scale)) -> (spec, sim, head hash, tail).
#: Each entry holds its spec and sim, so their ids cannot be reused
#: while it lives; ``repr`` tells ``1`` from ``1.0``, whose JSON
#: differs although they compare equal.  Keys are identities, not
#: values, for the same reason: equal configs may encode differently,
#: and ``KernelSpec`` equality ignores ``variant``.  Two threads may
#: both build a missing frame; the frames are equal, so either wins.
_frames: Dict[Tuple[int, int, str], Tuple] = {}


def _digest_frame(spec: KernelSpec, sim: SimConfig, scale: float):
    """(hash of the bytes before the key, bytes after it), memoised.

    The frame is everything in a digest but the controller key, so on
    a process pinned to one (SimConfig, scale) there is one frame per
    kernel.  The memo is cleared when it reaches 64 frames (oracle
    runs mint many SimConfigs).
    """
    ident = (id(spec), id(sim), repr(scale))
    frame = _frames.get(ident)
    if frame is None:
        blob = _CANONICAL.encode({
            "format": CACHE_FORMAT,
            "code": code_salt(),
            "kernel": kernel_spec_fingerprint(spec),
            "key": _KEY_SLOT,
            "sim": sim_config_fingerprint(sim),
            "scale": scale,
        })
        head, tail = blob.split(_CANONICAL.encode(_KEY_SLOT))
        if len(_frames) >= 64:
            _frames.clear()
        frame = _frames[ident] = (spec, sim,
                                  hashlib.sha256(head.encode()),
                                  tail.encode())
    return frame[2], frame[3]


def job_digest(job: Job, spec: KernelSpec, sim: SimConfig,
               scale: float) -> str:
    """The content address of one run.

    SHA-256 of the canonical JSON of ``{"format", "code", "kernel",
    "key", "sim", "scale"}``; only the key is encoded per call, the
    rest is hashed once per (spec, sim, scale).
    """
    head, tail = _digest_frame(spec, sim, scale)
    digest = head.copy()
    digest.update(_CANONICAL.encode(
        encode_controller_key(job.key)).encode())
    digest.update(tail)
    return digest.hexdigest()
