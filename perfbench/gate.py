"""Correctness gate for one finished CLI job.

A job passes only if it exited 0, its output says what is known to be
true, and, for jobs of the default seeds, its stdout is byte-identical to
the digest recorded from the seed commit in golden.json.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from workloads import Job


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(job: Job, returncode: int, stdout: bytes,
          golden: Optional[Dict[str, str]], key: str) -> Optional[str]:
    """None when the job passes, else the reason it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        text = stdout.decode()
        reason = _check_catalog(job, text) if job.kind == "catalog" else _check_reports(text)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {exc}"
    if reason is None and golden is not None:
        want = golden.get(key)
        if want is None:
            reason = "no golden digest recorded for this job"
        elif digest(stdout) != want:
            reason = "stdout differs from the golden output"
    return reason


def _check_reports(text: str) -> Optional[str]:
    """verify and examples: every report is a theorem, so must pass."""
    doc = json.loads(text)
    reports = doc["reports"]
    if doc["schema"] != 1 or not reports:
        return "empty or unversioned report"
    failed = [r["check_name"] for r in reports if r["status"] != "pass"]
    return f"checks not passing: {failed}" if failed else None


def _cell(value) -> str:
    if value is True:
        return "T"
    if value is False:
        return "F"
    return "-" if value is None else str(value)


def _check_catalog(job: Job, text: str) -> Optional[str]:
    """obstructions: every verdict must equal the generator's answer."""
    expected = job.expected
    if job.fmt == "json":
        got = json.loads(text)
        if got != {"schema": 1, "obstructions": expected}:
            return "obstruction verdicts differ from the generator's answers"
        return None
    lines = text.splitlines()
    header = list(expected[0])
    rows = [line.split() for line in lines[2:]]
    want = [[_cell(row[h]) for h in header] for row in expected]
    if lines[0].split() != header or rows != want:
        return "obstruction table differs from the generator's answers"
    return None
