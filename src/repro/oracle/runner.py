"""Orchestration of oracle sweeps: fan-out, diffing, shrinking, dumps.

One sweep generates ``n`` seeded cases, runs every applicable
(case, path) pair through the experiment engine -- reusing its
supervised process-pool fan-out, retry semantics, and two-level run
cache -- then diffs each path's full :class:`RunResult` payload
against its family's fused reference.  Divergences are shrunk to
minimal reproducers and dumped as committed-format JSON files that
``tests/test_oracle.py`` can replay.

Cache correctness: oracle jobs carry a precomputed digest (the engine
cannot derive one -- oracle kernels are synthetic, not Table II
names).  The digest covers the case payload, the path id, the
behaviour code salt, and a hash of this package's own sources, so
editing either the simulator or the oracle addresses fresh cache
entries while leaving the experiment cache untouched.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..engine.cache import DEFAULT_CACHE_DIR
from ..engine.executor import Engine
from ..engine.fingerprint import code_salt
from ..engine.jobs import Job
from ..errors import OracleError
from ..sim.multikernel import digest_payload
from ..sim.results import RunResult
from .diff import diff_payloads
from .generate import OracleCase, case_seeds, generate_case
from .paths import REFERENCE_VARIANT, all_paths, run_case_path, split_path
from .shrink import shrink_case

#: Schema version of dumped reproducer files.
REPRODUCER_FORMAT = 1

#: Default directory divergence reproducers are dumped into.
DEFAULT_DUMP_DIR = "oracle-reproducers"

_oracle_salt_cache = None


def _oracle_salt() -> str:
    """Hash of this package's sources (memoised).

    The engine's :func:`code_salt` deliberately excludes orchestration
    packages, so the oracle adds its own: an edit to path wiring or
    case generation must address fresh cache entries.
    """
    global _oracle_salt_cache
    if _oracle_salt_cache is None:
        root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(root, name), "rb") as f:
                    digest.update(f.read())
        _oracle_salt_cache = digest.hexdigest()
    return _oracle_salt_cache


def oracle_job(case: OracleCase, path_id: str) -> Job:
    """The engine job for one (case, path) pair."""
    case_json = json.dumps(case.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    digest = digest_payload({
        "oracle_format": REPRODUCER_FORMAT,
        "case": case_json,
        "path": path_id,
        "code": code_salt(),
        "oracle": _oracle_salt(),
    })
    return Job(kernel=f"oracle-{case.seed}", key=(case_json, path_id),
               digest=digest)


def oracle_worker(kernel: str, key: Tuple, scale: float,
                  sim: SimConfig) -> Tuple[RunResult, float]:
    """Process-pool worker: decode the case from the job key and run.

    Signature matches the engine's worker contract; ``scale`` and
    ``sim`` are the engine's own config and are ignored -- an oracle
    case carries its full SimConfig itself.
    """
    case_json, path_id = key
    case = OracleCase.from_dict(json.loads(case_json))
    start = time.perf_counter()
    result = run_case_path(case, path_id)
    return result, time.perf_counter() - start


@dataclass
class Finding:
    """One confirmed divergence (or path error) of a sweep."""

    case: Dict
    path: str
    ref_path: str
    #: "diff" (payload mismatch) or "error" (the path raised).
    kind: str
    detail: List[str] = field(default_factory=list)
    shrunk_case: Optional[Dict] = None
    reproducer_path: Optional[str] = None

    def label(self) -> str:
        return (f"{self.path} vs {self.ref_path} "
                f"(case seed {self.case.get('seed')}, {self.kind})")


@dataclass
class OracleReport:
    """Aggregate of one oracle sweep."""

    seed: int
    planned_cases: int
    cases_run: int = 0
    pairs_checked: int = 0
    findings: List[Finding] = field(default_factory=list)
    wall_seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        line = (f"oracle: seed {self.seed}, {self.cases_run}/"
                f"{self.planned_cases} cases, {self.pairs_checked} "
                f"path pairs checked in {self.wall_seconds:.1f}s -> "
                f"{len(self.findings)} divergence(s)")
        if self.budget_exhausted:
            line += (f" [budget exhausted after {self.cases_run}/"
                     f"{self.planned_cases} cases]")
        return line


def write_reproducer(finding: Finding, dump_dir: str) -> str:
    """Dump a finding in the committed regression-case format."""
    os.makedirs(dump_dir, exist_ok=True)
    case = finding.shrunk_case or finding.case
    payload = {
        "format": REPRODUCER_FORMAT,
        "case": case,
        "paths": [finding.ref_path, finding.path],
        "kind": finding.kind,
        "diff": finding.detail,
        "note": ("Replay with: PYTHONPATH=src python -m repro.oracle "
                 "--replay <this file>.  tests/test_oracle.py replays "
                 "every file under tests/data/oracle/ and asserts the "
                 "paths now agree; commit the file there once the bug "
                 "is fixed."),
    }
    name = (f"{finding.path.replace(':', '-')}"
            f"-seed{case.get('seed')}.json")
    path = os.path.join(dump_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_reproducer(path: str) -> Tuple[OracleCase, List[str]]:
    """(case, [ref_path, path]) from a dumped reproducer file."""
    with open(path, "r") as f:
        payload = json.load(f)
    if payload.get("format") != REPRODUCER_FORMAT:
        raise OracleError(
            f"unsupported reproducer format in {path}: "
            f"{payload.get('format')!r}")
    case = OracleCase.from_dict(payload["case"])
    paths = payload["paths"]
    if len(paths) != 2:
        raise OracleError(f"reproducer {path} names {len(paths)} paths")
    for p in paths:
        split_path(p)
    return case, paths


def check_pair(case: OracleCase, ref_path: str, path: str
               ) -> List[str]:
    """Inline agreement check of one path pair (no engine, no cache)."""
    ref = run_case_path(case, ref_path).to_dict()
    other = run_case_path(case, path).to_dict()
    return diff_payloads(ref, other)


def applicable_paths(selected: Optional[List[str]] = None) -> List[str]:
    """The validated path ids a sweep runs (every family applies to
    every case, so the matrix is global rather than per-case).

    Entries in ``selected`` may be shell-style patterns (``vector:*``,
    ``*:method``); each pattern expands against :func:`all_paths` and
    must match at least one path.  Literal ids are validated as before.
    """
    if selected is None:
        return list(all_paths())
    import fnmatch
    known = all_paths()
    paths: List[str] = []
    for entry in selected:
        if any(ch in entry for ch in "*?["):
            matches = [p for p in known if fnmatch.fnmatch(p, entry)]
            if not matches:
                raise OracleError(
                    f"path pattern {entry!r} matches nothing; "
                    f"known: {known}")
            for p in matches:
                if p not in paths:
                    paths.append(p)
            continue
        split_path(entry)
        if entry not in paths:
            paths.append(entry)
    return paths


def _family_groups(paths: List[str]) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = {}
    for p in paths:
        family, _ = split_path(p)
        groups.setdefault(family, []).append(p)
    return groups


def run_oracle(seed: int = 0, n: int = 50,
               paths: Optional[List[str]] = None,
               budget_s: Optional[float] = None, jobs: int = 1,
               dump_dir: str = DEFAULT_DUMP_DIR,
               cache_dir: str = DEFAULT_CACHE_DIR,
               use_cache: bool = True, do_shrink: bool = True,
               log: Callable[[str], None] = lambda line: None
               ) -> OracleReport:
    """One oracle sweep; see the module docstring.

    ``budget_s`` bounds wall time: the sweep processes cases in
    chunks and stops (reporting how many of the planned cases it
    covered -- never silently) once the budget is spent.  Findings are
    shrunk (sharing the remaining budget) and dumped to ``dump_dir``.
    """
    start = time.perf_counter()
    selected = applicable_paths(paths)
    groups = _family_groups(selected)
    report = OracleReport(seed=seed, planned_cases=n)
    engine = Engine(sim=SimConfig(), scale=1.0, jobs=jobs,
                    cache_dir=cache_dir, use_cache=use_cache,
                    worker=oracle_worker)
    seeds = case_seeds(seed, n)
    chunk = max(4, jobs * 2)
    elapsed = 0.0
    for lo in range(0, n, chunk):
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed > budget_s:
            report.budget_exhausted = True
            break
        cases = [generate_case(s) for s in seeds[lo:lo + chunk]]
        plan = []
        job_index: Dict[Tuple[int, str], Job] = {}
        for case in cases:
            for path_id in selected:
                job = oracle_job(case, path_id)
                job_index[(case.seed, path_id)] = job
                plan.append(job)
        exec_report = engine.execute(plan, workers=jobs)
        errors = {o.job: o.error for o in exec_report.outcomes
                  if not o.ok}
        for case in cases:
            report.cases_run += 1
            _evaluate_case(case, groups, engine, job_index, errors,
                           report, log)
        log(f"oracle: {report.cases_run}/{n} cases, "
            f"{len(report.findings)} finding(s) "
            f"[{time.perf_counter() - start:.1f}s]")
    if do_shrink and report.findings:
        for finding in report.findings:
            if finding.kind != "diff":
                continue
            remaining = (None if budget_s is None
                         else budget_s - (time.perf_counter() - start))
            case = OracleCase.from_dict(finding.case)
            log(f"oracle: shrinking {finding.label()}")
            shrunk = shrink_case(
                case,
                lambda c: bool(check_pair(c, finding.ref_path,
                                          finding.path)),
                budget_s=remaining, log=log)
            finding.shrunk_case = shrunk.to_dict()
            finding.detail = check_pair(shrunk, finding.ref_path,
                                        finding.path)
    for finding in report.findings:
        finding.reproducer_path = write_reproducer(finding, dump_dir)
        log(f"oracle: reproducer dumped to {finding.reproducer_path}")
    report.wall_seconds = time.perf_counter() - start
    return report


def _evaluate_case(case: OracleCase, groups: Dict[str, List[str]],
                   engine: Engine,
                   job_index: Dict[Tuple[int, str], Job],
                   errors: Dict[Job, str], report: OracleReport,
                   log: Callable[[str], None]) -> None:
    case_dict = case.to_dict()
    for family, family_paths in groups.items():
        ref_path = f"{family}:{REFERENCE_VARIANT}"
        if ref_path not in family_paths:
            # A pruned --paths selection without the reference: pick
            # the first listed path as the comparison anchor.
            ref_path = family_paths[0]
        ref_job = job_index[(case.seed, ref_path)]
        ref_error = errors.get(ref_job)
        ref_result, _ = engine.lookup(ref_job)
        for path_id in family_paths:
            if path_id == ref_path:
                if ref_error is not None:
                    report.findings.append(Finding(
                        case=case_dict, path=path_id,
                        ref_path=ref_path, kind="error",
                        detail=ref_error.strip().splitlines()[-3:]))
                continue
            report.pairs_checked += 1
            job = job_index[(case.seed, path_id)]
            error = errors.get(job)
            if error is not None:
                report.findings.append(Finding(
                    case=case_dict, path=path_id, ref_path=ref_path,
                    kind="error",
                    detail=error.strip().splitlines()[-3:]))
                continue
            if ref_error is not None or ref_result is None:
                continue  # reference already reported above
            result, _ = engine.lookup(job)
            diffs = diff_payloads(ref_result.to_dict(),
                                  result.to_dict())
            if diffs:
                log(f"oracle: DIVERGENCE {path_id} vs {ref_path} "
                    f"(case seed {case.seed})")
                report.findings.append(Finding(
                    case=case_dict, path=path_id, ref_path=ref_path,
                    kind="diff", detail=diffs))
