"""Seeded job lists for the three benchmark workloads.

Everything here is a pure function of the benchmark seed: the same seed
gives the same job list and byte-identical catalog files.  Nothing here
imports spinweave; catalog verdicts are known by construction.

A job list is one pass of a workload.  Its composition (how many jobs of
each size class) is fixed and only the draws inside each class depend on
the seed, so passes drawn from different seeds cost about the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("verify-sweep", "bundle-samples", "catalog-scan")

# Benchmark seeds whose jobs have recorded stdout digests in golden.json.
DEFAULT_SEEDS = tuple(range(1, 11))


@dataclass
class Job:
    """One CLI invocation.  ``argv`` excludes the interpreter and module;
    a catalog job names its file as ``{catalog}`` until the run writes it."""

    argv: List[str]
    kind: str  # "verify" | "examples" | "catalog"
    catalog: Optional[str] = None  # catalog file text for catalog jobs
    expected: Optional[List[Dict[str, object]]] = None  # obstruction rows
    fmt: str = "json"

    def key(self, catalog_digest: Optional[str] = None) -> str:
        """Stable identifier of the invocation, used for golden digests."""
        return " ".join(catalog_digest if a == "{catalog}" else a for a in self.argv)


def cli_seed(rng: random.Random) -> int:
    """CLI --seed drawn from the benchmark seed, always >= 1."""
    return rng.randint(1, 2**31 - 1)


def jobs_for(workload: str, seed: int) -> List[Job]:
    if workload == "verify-sweep":
        return verify_sweep(seed)
    if workload == "bundle-samples":
        return bundle_samples(seed)
    if workload == "catalog-scan":
        return catalog_scan(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

# (m, form) slots of one pass.  The m = 3 and m = 4 jobs cost about the
# same and hold three quarters of the list, so the median and the tail
# percentile fall among them on every seed.  Odd m samples kappa with the
# CLI seed, which makes its cost vary with that seed; even m does not.
_VERIFY_SLOTS = (
    (3, "definite"), (3, "mixed"),
    (4, "definite"), (4, "mixed"), (4, "mixed"), (4, "any"),
    (5, "any"),
    (6, "any"),
)


def verify_sweep(seed: int) -> List[Job]:
    rng = random.Random(f"verify-sweep/{seed}")
    jobs = []
    for m, form in _VERIFY_SLOTS:
        if form == "definite":
            k = rng.choice((0, m))
        elif form == "mixed":
            k = rng.randint(1, m - 1)
        else:
            k = rng.randint(0, m)
        argv = ["verify", "--sig", f"{k},{m - k}", "--seed", str(cli_seed(rng))]
        jobs.append(Job(argv, "verify"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# bundle-samples
# ---------------------------------------------------------------------------

# (example, m, base sample count): counts are sized so each job takes about
# half a second at the seed code, which keeps the median among many job
# types; the seed jitters them by +-5 %.
_BUNDLE_SLOTS = (
    ("sphere", 4, 90), ("sphere", 5, 17), ("sphere", 6, 13),
    ("projective", 4, 37), ("projective", 5, 7), ("projective", 6, 6),
    ("quadric", 2, 37),
    ("hermitean", 6, 78), ("hermitean", 8, 24),
    ("exterior", 8, 1), ("exterior", 9, 1),
)


def bundle_samples(seed: int) -> List[Job]:
    rng = random.Random(f"bundle-samples/{seed}")
    jobs = []
    for name, m, base in _BUNDLE_SLOTS:
        samples = max(1, round(base * rng.uniform(0.95, 1.05)))
        argv = ["examples", name, "--m", str(m), "--samples", str(samples),
                "--seed", str(cli_seed(rng))]
        jobs.append(Job(argv, "examples"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# catalog-scan
# ---------------------------------------------------------------------------

# b1 of the records in one catalog file; each file is scanned twice,
# once per output format.
_CATALOG_B1 = (10, 11, 12, 12)
_CATALOG_FILES = 6
TRIVIAL_RANK2 = "trivial-rank-2"


def catalog_scan(seed: int) -> List[Job]:
    rng = random.Random(f"catalog-scan/{seed}")
    jobs = []
    for f in range(_CATALOG_FILES):
        records, expected = [], []
        b1s = list(_CATALOG_B1)
        rng.shuffle(b1s)
        for r, b1 in enumerate(b1s):
            record, row = _catalog_record(rng, f"m{seed}-{f}-{r}", b1)
            records.append(record)
            expected.append(row)
        text = json.dumps({"schema": 1, "manifolds": records}, indent=1)
        for fmt in ("json", "table"):
            argv = ["obstructions", "--catalog", "{catalog}", "--format", fmt]
            jobs.append(Job(argv, "catalog", catalog=text, expected=expected, fmt=fmt))
    rng.shuffle(jobs)
    return jobs


def _bits(mask: int, n: int) -> List[int]:
    return [(mask >> i) & 1 for i in range(n)]


def _invertible(rng: random.Random, n: int) -> List[int]:
    """Columns (as bitmasks) of a random invertible F2 matrix L*U."""
    lower = [(1 << j) | (rng.getrandbits(n) & ~((2 << j) - 1)) for j in range(n)]
    upper = [(1 << j) | (rng.getrandbits(j) if j else 0) for j in range(n)]
    # column j of L*U is the XOR of the L columns picked by U's column j
    cols = []
    for j in range(n):
        acc = 0
        for i in range(n):
            if (upper[j] >> i) & 1:
                acc ^= lower[i]
        cols.append(acc)
    return cols


class _Basis:
    """H^2 coordinates x = A u.  A class is liftable exactly when u has no
    bit at or above ``rank``, because the liftable span is A(low bits)."""

    def __init__(self, rng: random.Random, b2: int, rank: int):
        self.b2, self.rank, self.cols = b2, rank, _invertible(rng, b2)

    def apply(self, u: int) -> List[int]:
        x = 0
        for j in range(self.b2):
            if (u >> j) & 1:
                x ^= self.cols[j]
        return _bits(x, self.b2)

    def liftable(self, u: int) -> bool:
        return u >> self.rank == 0

    def draw(self, rng: random.Random, liftable: bool) -> int:
        low = rng.getrandbits(self.rank)
        if liftable:
            return low
        return low | (rng.randint(1, (1 << (self.b2 - self.rank)) - 1) << self.rank)


def _catalog_record(rng: random.Random, name: str, b1: int) -> Tuple[dict, Dict[str, object]]:
    """One valid catalog record and the obstruction row the CLI must print."""
    b2 = 16
    basis = _Basis(rng, b2, rng.randint(7, 9))
    h1 = [f"x{i + 1}" for i in range(b1)]
    h2 = [f"y{i + 1}" for i in range(b2)]
    # squares of basis classes are liftable, so every degree-1 square is
    sq_u = [basis.draw(rng, True) for _ in range(b1)]
    liftable2 = [basis.apply(1 << j) for j in range(basis.rank)] + [basis.apply(0b11)]
    rng.shuffle(liftable2)
    cup = {}
    for _ in range(3):
        i, j = sorted(rng.sample(range(b1), 2))
        cup[f"{h1[i]},{h1[j]}"] = _bits(rng.getrandbits(b2), b2)

    dim = rng.randint(4, 11)
    w1 = 0 if rng.random() < 0.5 else rng.randint(1, (1 << b1) - 1)
    sq_w1 = 0
    for i in range(b1):
        if (w1 >> i) & 1:
            sq_w1 ^= sq_u[i]
    profile = rng.choice(("zero", "square", "liftable", "obstructed"))
    if profile == "zero":
        w2 = 0
    elif profile == "square":
        w2 = sq_w1
    else:
        w2 = basis.draw(rng, profile == "liftable")

    bundles, witness = [], None
    for b in range(rng.randint(0, 3)):
        rank = 2 if rng.random() < 0.8 else 3
        sum_liftable = rng.random() < 0.4
        u = w2 ^ basis.draw(rng, sum_liftable)  # w2(TM) + w2(E) liftable iff sum_liftable
        bw1 = 0 if rng.random() < 0.5 else rng.randint(1, (1 << b1) - 1)
        bundles.append({
            "name": f"E{b + 1}",
            "rank": rank,
            "w1": _bits(bw1, b1),
            "w2": basis.apply(u),
            "oriented": bw1 == 0 and rng.random() < 0.5,
        })
        if rank == 2 and sum_liftable and witness is None:
            witness = f"E{b + 1}"

    record = {
        "name": name,
        "dim": dim,
        "h1": h1,
        "h2": h2,
        "sq": {h1[i]: basis.apply(sq_u[i]) for i in range(b1)},
        "cup": cup,
        "tangent": {"w1": _bits(w1, b1), "w2": basis.apply(w2)},
        "liftable2": liftable2,
        "bundles": bundles,
    }
    pin_c = basis.liftable(w2)
    if dim % 2 == 0:
        lpin: object = pin_c
    elif witness is not None:
        lpin = f"T:{witness}"
    elif pin_c:
        lpin = f"T:{TRIVIAL_RANK2}"
    else:
        lpin = False
    row = {
        "manifold": name,
        "dim": dim,
        "orientable": w1 == 0,
        "spin": w1 == 0 and w2 == 0,
        "pin+": w2 == 0,
        "pin-": w2 == sq_w1,
        "spin_c": w1 == 0 and pin_c,
        "pin_c": pin_c,
        "lpin": lpin,
    }
    return record, row
