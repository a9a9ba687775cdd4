"""F2 characteristic-class arithmetic over a manifold catalog.

Cohomology rings are truncated at degree 2: every obstruction tested
here lives in H^1 or H^2 with Z2 coefficients.  The image of the
integral reduction map on H^2 ("liftable2") is catalog input, validated
on ingestion against the constraint that every square of a degree-1
class must be liftable.

Decided structures per manifold: spin, pin+, pin-, spin^c, pin^c, and
lpin (with a rank-2 witness bundle for odd dimension).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .reports import Record, to_json_text

F2Vector = Tuple[int, ...]


def _vec(bits: Sequence[int]) -> F2Vector:
    out = tuple(int(b) & 1 for b in bits)
    return out


def f2_add(x: F2Vector, y: F2Vector) -> F2Vector:
    if len(x) != len(y):
        raise ValueError("length mismatch in F2 arithmetic")
    return tuple(a ^ b for a, b in zip(x, y))


def f2_zero(n: int) -> F2Vector:
    return (0,) * n


def f2_is_zero(x: F2Vector) -> bool:
    return not any(x)


def f2_in_span(x: F2Vector, generators: Sequence[F2Vector]) -> bool:
    """Membership of x in the F2 span of the generators (bitmask elimination)."""
    m = _mask(x)
    for b in _echelon(tuple(generators)):
        m = min(m, m ^ b)
    return m == 0


def _mask(v: F2Vector) -> int:
    return sum(1 << i for i, b in enumerate(v) if b)


@lru_cache(maxsize=256)
def _echelon(generators: Tuple[F2Vector, ...]) -> Tuple[int, ...]:
    """Reduced bitmask basis of the span, highest leading bit first; a
    catalog record's liftable2 is reduced once, not once per span test."""
    basis: List[int] = []
    for g in generators:
        m = _mask(g)
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
    return tuple(basis)


def _bad(name: Optional[str], key: str, problem: str) -> ValueError:
    """`key '<key>' <problem>`, prefixed with the record name where it is known."""
    where = "" if name is None else f"malformed catalog record {name!r}: "
    return ValueError(f"{where}key {key!r} {problem}")


def _check_lengths(name: Optional[str], length: int, vectors: Sequence[tuple]) -> None:
    for key, vec in vectors:
        if len(vec) != length:
            raise _bad(name, key, f"has length {len(vec)}, expected {length}")


class CohoClass(Record):
    """Degree 1 or 2 class given by F2 coordinates in the declared basis."""

    __slots__ = ("degree", "coords")

    def __init__(self, degree: int, coords: F2Vector):
        if degree not in (1, 2):
            raise ValueError("only degrees 1 and 2 are modelled")
        self._assign(degree, _vec(coords))

    def is_zero(self) -> bool:
        return f2_is_zero(self.coords)

    def __add__(self, other: "CohoClass") -> "CohoClass":
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degree")
        return CohoClass(self.degree, f2_add(self.coords, other.coords))


class CohoRing(Record):
    """Named bases of H^1 and H^2 with the squaring map and cup products."""

    __slots__ = ("basis1", "basis2", "sq", "cup")

    def __init__(self, basis1: Tuple[str, ...], basis2: Tuple[str, ...],
                 sq: Tuple[F2Vector, ...], cup: Optional[Dict[Tuple[int, int], F2Vector]] = None):
        for key, basis in (("h1", basis1), ("h2", basis2)):
            if len(set(basis)) != len(basis):
                raise _bad(None, key, "must list distinct basis names")
        if any("," in x for x in basis1):
            raise _bad(None, "h1", "must not contain ',', which joins the classes of a cup key")
        _check_lengths(None, len(basis1), [("sq", sq)])
        full_cup = dict(cup) if cup else {}
        if not {i for pair in full_cup for i in pair} <= set(range(len(basis1))):
            raise _bad(None, "cup", f"must index pairs of the {len(basis1)} h1 classes")
        _check_lengths(None, len(basis2), [(f"sq.{x}", row) for x, row in zip(basis1, sq)] + [
            (f"cup.{basis1[i]},{basis1[j]}", v) for (i, j), v in full_cup.items()])
        for (i, j), v in list(full_cup.items()):
            if full_cup.setdefault((j, i), v) != v:
                raise ValueError("cup table is not symmetric")
        for i, row in enumerate(sq):
            if full_cup.setdefault((i, i), row) != _vec(row):
                raise ValueError("cup(b,b) disagrees with sq(b)")
        self._assign(basis1, basis2, sq, full_cup)

    def zero1(self) -> CohoClass:
        return CohoClass(1, f2_zero(len(self.basis1)))

    def zero2(self) -> CohoClass:
        return CohoClass(2, f2_zero(len(self.basis2)))

    def square(self, x: CohoClass) -> CohoClass:
        """Cup square H^1 -> H^2 (additive over F2 by symmetry of the cup)."""
        if x.degree != 1:
            raise ValueError("square expects a degree-1 class")
        acc = f2_zero(len(self.basis2))
        for i, bit in enumerate(x.coords):
            if bit:
                acc = f2_add(acc, self.sq[i])
        return CohoClass(2, acc)


class BundleData(Record):
    """Real vector bundle described by its first two Stiefel-Whitney classes."""

    __slots__ = ("name", "rank", "w1", "w2", "oriented")

    def __init__(self, name: str, rank: int, w1: CohoClass, w2: CohoClass,
                 oriented: bool = False):
        if rank < 1:
            raise ValueError("bundle rank must be positive")
        if oriented and not w1.is_zero():
            raise ValueError(f"oriented bundle {name} must have w1 = 0")
        self._assign(name, rank, w1, w2, oriented)


TRIVIAL_RANK2 = "trivial-rank-2"


class ManifoldData(Record):
    """Catalog record: everything the degree-2 obstruction checks consume."""

    __slots__ = ("name", "dim", "ring", "tangent", "liftable2", "bundles")

    def __init__(self, name: str, dim: int, ring: CohoRing, tangent: BundleData,
                 liftable2: Tuple[F2Vector, ...], bundles: Tuple[BundleData, ...] = ()):
        if tangent.rank != dim:
            raise ValueError(f"{name}: tangent rank must equal the dimension")
        b1, b2 = len(ring.basis1), len(ring.basis2)
        named = [("tangent", tangent)] + [(f"bundles[{i}]", b) for i, b in enumerate(bundles)]
        _check_lengths(name, b1, [(f"{key}.w1", b.w1.coords) for key, b in named])
        _check_lengths(name, b2, [(f"{key}.w2", b.w2.coords) for key, b in named]
                       + [(f"liftable2[{i}]", g) for i, g in enumerate(liftable2)])
        # Every square of a degree-1 class must be liftable.  Squaring is
        # F2-linear on H^1: (x+y)^2 = x^2 + xy + yx + y^2 and xy = yx with F2
        # coefficients, so (x+y)^2 = x^2 + y^2 (CohoRing.square sums sq rows).
        # The liftable classes form a subspace, the span of liftable2.  A
        # linear map lands in a subspace exactly when it does on a basis, so
        # the b1 rows of sq decide the constraint for all 2^b1 classes.
        for cls, row in zip(ring.basis1, ring.sq):
            if not f2_in_span(row, liftable2):
                raise _bad(name, f"sq.{cls}",
                           "is not liftable (every square of a degree-1 class must be)")
        self._assign(name, dim, ring, tangent, liftable2, bundles)

    def is_liftable(self, x: CohoClass) -> bool:
        return f2_in_span(x.coords, self.liftable2)


# -- structure checks ---------------------------------------------------------


def is_orientable(m: ManifoldData) -> bool:
    return m.tangent.w1.is_zero()


def check_spin(m: ManifoldData) -> bool:
    return m.tangent.w1.is_zero() and m.tangent.w2.is_zero()


def check_pin_plus(m: ManifoldData) -> bool:
    return m.tangent.w2.is_zero()


def check_pin_minus(m: ManifoldData) -> bool:
    return (m.ring.square(m.tangent.w1) + m.tangent.w2).is_zero()


def check_spin_c(m: ManifoldData) -> bool:
    return m.tangent.w1.is_zero() and m.is_liftable(m.tangent.w2)


def check_pin_c(m: ManifoldData) -> bool:
    return m.is_liftable(m.tangent.w2)


def check_lpin(m: ManifoldData) -> Tuple[bool, Optional[str]]:
    """Existence of an lpin structure, with the witness bundle for odd dim.

    Even dimension reduces to pin^c.  Odd dimension searches the declared rank-2 bundles in
    declaration order, then the trivial rank-2 bundle, for E with w2(TM) + w2(E) liftable.
    """
    if m.dim % 2 == 0:
        return check_pin_c(m), None
    candidates = [b for b in m.bundles if b.rank == 2]
    candidates.append(BundleData(TRIVIAL_RANK2, 2, m.ring.zero1(), m.ring.zero2(), oriented=True))
    for bundle in candidates:
        if m.is_liftable(m.tangent.w2 + bundle.w2):
            return True, bundle.name
    return False, None


def structure_summary(m: ManifoldData) -> Dict[str, object]:
    lpin, witness = check_lpin(m)
    return {
        "manifold": m.name,
        "dim": m.dim,
        "orientable": is_orientable(m),
        "spin": check_spin(m),
        "pin+": check_pin_plus(m),
        "pin-": check_pin_minus(m),
        "spin_c": check_spin_c(m),
        "pin_c": check_pin_c(m),
        "lpin": lpin,
        "lpin_witness": witness,
    }


# -- catalog builders ---------------------------------------------------------


def sphere_data(m: int) -> ManifoldData:
    """S^m with its honest low-degree Z2 cohomology."""
    if m < 1:
        raise ValueError("sphere dimension must be positive")
    if m == 1:
        ring = CohoRing(("t",), (), ((),))
    elif m == 2:
        ring = CohoRing((), ("s",), ())
    else:
        ring = CohoRing((), (), ())
    zero1, zero2 = ring.zero1(), ring.zero2()
    liftable = ((1,),) if m == 2 else ()
    tangent = BundleData("TS", m, zero1, zero2)
    return ManifoldData(f"s{m}", m, ring, tangent, liftable)


def projective_space_data(m: int) -> ManifoldData:
    """RP^m with classes from the binomial expansion of (1+a)^(m+1)."""
    if m < 1:
        raise ValueError("projective dimension must be positive")
    if m == 1:
        ring = CohoRing(("a",), (), ((),))
        tangent = BundleData("T", 1, CohoClass(1, (comb(m + 1, 1) % 2,)), ring.zero2())
        return ManifoldData("rp1", 1, ring, tangent, ())
    ring = CohoRing(("a",), ("a^2",), ((1,),))
    w1 = CohoClass(1, (comb(m + 1, 1) % 2,))
    w2 = CohoClass(2, (comb(m + 1, 2) % 2,))
    tangent = BundleData("T", m, w1, w2)
    # H^2(RP^m; Z) -> H^2(RP^m; Z2) is onto for m >= 2
    return ManifoldData(f"rp{m}", m, ring, tangent, ((1,),))


def complex_projective_data(n: int) -> ManifoldData:
    """CP^n; w = (1+h)^(n+1) mod 2 with h integral, so w2 always lifts."""
    if n < 1:
        raise ValueError("complex dimension must be positive")
    ring = CohoRing((), ("h",), ())
    w2 = CohoClass(2, ((n + 1) % 2,))
    tangent = BundleData("T", 2 * n, ring.zero1(), w2)
    return ManifoldData(f"cp{n}", 2 * n, ring, tangent, ((1,),))


def grassmann_g52_data() -> ManifoldData:
    """Unoriented 2-planes in R^5 with the canonical rank-2 bundle."""
    ring = CohoRing(("w1g",), ("w1g^2", "w2g"), ((1, 0),))
    tangent = BundleData("T", 6, CohoClass(1, (1,)), CohoClass(2, (1, 1)))
    gamma = BundleData("gamma", 2, CohoClass(1, (1,)), CohoClass(2, (0, 1)))
    return ManifoldData("g52", 6, ring, tangent, ((1, 0),), (gamma,))


def product_with_parallelizable(m: ManifoldData, factor: str) -> ManifoldData:
    """M x R or M x S^1: classes and liftability pull back, dimension grows.

    The projection admits a section, so a pulled-back class lifts in the
    product exactly when it lifts downstairs; all tangent classes of the
    product are pullbacks since the added factor is parallelizable.
    """
    if factor not in ("line", "circle"):
        raise ValueError("factor must be 'line' or 'circle'")
    suffix = "xR" if factor == "line" else "xS1"
    tangent = BundleData(m.tangent.name, m.dim + 1, m.tangent.w1, m.tangent.w2)
    return ManifoldData(m.name + suffix, m.dim + 1, m.ring, tangent, m.liftable2, m.bundles)


def codim2_submanifold_demo() -> ManifoldData:
    """Synthetic odd-dimensional entry with a declared rank-2 normal bundle.

    The normal bundle satisfies the Whitney relations w1(E) = w1(TM) and
    w2(E) = w2(TM) + w1(TM)^2, so w2(TM) + w2(E) collapses to the square
    of a degree-1 class, which is liftable by the ingestion constraint.
    """
    ring = CohoRing(("x",), ("x^2", "y"), ((1, 0),))
    tangent = BundleData("T", 5, CohoClass(1, (1,)), CohoClass(2, (0, 1)))
    normal = BundleData("normal", 2, CohoClass(1, (1,)), CohoClass(2, (1, 1)))
    return ManifoldData("codim2-demo", 5, ring, tangent, ((1, 0),), (normal,))


def torus_data(n: int) -> ManifoldData:
    """T^n: parallelizable, everything liftable."""
    if n < 1:
        raise ValueError("torus dimension must be positive")
    basis1 = tuple(f"t{i + 1}" for i in range(n))
    basis2 = tuple(f"t{i + 1}t{j + 1}" for i in range(n) for j in range(i + 1, n))
    n2 = len(basis2)
    sq = tuple(f2_zero(n2) for _ in range(n))
    cup = {}
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            coords = [0] * n2
            coords[idx] = 1
            cup[(i, j)] = tuple(coords)
            idx += 1
    ring = CohoRing(basis1, basis2, sq, cup)
    tangent = BundleData("T", n, ring.zero1(), ring.zero2())
    liftable = tuple(tuple(1 if k == i else 0 for k in range(n2)) for i in range(n2))
    return ManifoldData(f"t{n}", n, ring, tangent, liftable)


def builtin_catalog() -> List[ManifoldData]:
    catalog: List[ManifoldData] = []
    catalog.extend(sphere_data(m) for m in range(1, 8))
    catalog.extend(projective_space_data(m) for m in range(1, 17))
    catalog.append(complex_projective_data(1))
    catalog.append(complex_projective_data(2))
    catalog.append(complex_projective_data(3))
    catalog.append(torus_data(2))
    g52 = grassmann_g52_data()
    catalog.append(g52)
    catalog.append(product_with_parallelizable(g52, "circle"))
    catalog.append(product_with_parallelizable(g52, "line"))
    catalog.append(product_with_parallelizable(projective_space_data(2), "circle"))
    catalog.append(product_with_parallelizable(sphere_data(2), "circle"))
    catalog.append(codim2_submanifold_demo())
    return catalog


# -- catalog file format (JSON) -----------------------------------------------


def manifold_to_json(m: ManifoldData) -> dict:
    return {
        "name": m.name,
        "dim": m.dim,
        "h1": list(m.ring.basis1),
        "h2": list(m.ring.basis2),
        "sq": {m.ring.basis1[i]: list(row) for i, row in enumerate(m.ring.sq)},
        "cup": {
            f"{m.ring.basis1[i]},{m.ring.basis1[j]}": list(v)
            for (i, j), v in sorted(m.ring.cup.items())
            if i < j
        },
        "tangent": {"w1": list(m.tangent.w1.coords), "w2": list(m.tangent.w2.coords)},
        "liftable2": [list(g) for g in m.liftable2],
        "bundles": [
            {
                "name": b.name,
                "rank": b.rank,
                "w1": list(b.w1.coords),
                "w2": list(b.w2.coords),
                "oriented": b.oriented,
            }
            for b in m.bundles
        ],
    }


_SHAPE = {"dim": int, "h1": list, "h2": list, "sq": dict, "tangent": dict,
          "cup": dict, "liftable2": list, "bundles": list}
_REQUIRED = ("dim", "h1", "h2", "sq", "tangent")


def manifold_from_json(data: dict) -> ManifoldData:
    """One catalog record, read once: the reader converts JSON (types, required keys, 0/1
    entries); the record constructors hold every rule on names, vector lengths and classes."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed catalog record: expected a JSON object, got {type(data).__name__}")
    name = data.get("name")
    if not isinstance(name, str):
        raise ValueError("malformed catalog record: key 'name' must be a string")

    def field(key: str):
        kind = _SHAPE[key]
        if key in _REQUIRED and key not in data:
            raise _bad(name, key, "is missing")
        value = data.get(key, kind())
        if not isinstance(value, kind) or isinstance(value, bool):
            raise _bad(name, key, f"must be a JSON {'integer' if kind is int else kind.__name__}")
        return value

    def bits(value, key: str) -> F2Vector:
        if value is None:
            raise _bad(name, key, "is missing")
        if not isinstance(value, list) or any(type(b) is not int or b not in (0, 1) for b in value):
            raise _bad(name, key, "must be a list of 0/1 entries")
        return tuple(value)

    dim = field("dim")
    if dim < 1:
        raise _bad(name, "dim", "must be positive")
    basis1, basis2 = tuple(field("h1")), tuple(field("h2"))
    for key, basis in (("h1", basis1), ("h2", basis2)):
        if not all(isinstance(x, str) for x in basis):
            raise _bad(name, key, "must list distinct basis names")
    rows = field("sq")
    if set(rows) != set(basis1):
        raise _bad(name, "sq", "must have exactly one row per h1 class")
    sq = tuple(bits(rows[x], f"sq.{x}") for x in basis1)
    pairs = {f"{x},{y}": (i, j) for i, x in enumerate(basis1) for j, y in enumerate(basis1)}
    cup = {}
    for pair, row in field("cup").items():
        if pair not in pairs:
            raise _bad(name, f"cup.{pair}", "must name two h1 classes")
        cup[pairs[pair]] = bits(row, f"cup.{pair}")
    sw = field("tangent")
    w1, w2 = bits(sw.get("w1"), "tangent.w1"), bits(sw.get("w2"), "tangent.w2")
    liftable = tuple(bits(g, f"liftable2[{i}]") for i, g in enumerate(field("liftable2")))
    declared = []
    for i, bundle in enumerate(field("bundles")):
        key = f"bundles[{i}]"
        if not isinstance(bundle, dict):
            raise _bad(name, key, "must be a JSON object")
        if not isinstance(bundle.get("name"), str):
            raise _bad(name, f"{key}.name", "must be a string")
        rank = bundle.get("rank")
        if type(rank) is not int or rank < 1:
            raise _bad(name, f"{key}.rank", "must be a positive integer")
        bw1, bw2 = bits(bundle.get("w1"), f"{key}.w1"), bits(bundle.get("w2"), f"{key}.w2")
        oriented = bundle.get("oriented", False)
        if type(oriented) is not bool:
            raise _bad(name, f"{key}.oriented", "must be true or false")
        declared.append((bundle["name"], rank, CohoClass(1, bw1), CohoClass(2, bw2), oriented))
    try:
        ring = CohoRing(basis1, basis2, sq, cup)
        tangent = BundleData("T", dim, CohoClass(1, w1), CohoClass(2, w2))
        bundles = tuple(BundleData(*b) for b in declared)
    except ValueError as exc:
        raise ValueError(f"malformed catalog record {name!r}: {exc}") from exc
    return ManifoldData(name, dim, ring, tangent, liftable, bundles)


def dump_catalog(manifolds: Sequence[ManifoldData]) -> str:
    doc = {"schema": 1, "manifolds": [manifold_to_json(m) for m in manifolds]}
    return to_json_text(doc)


def load_catalog(text: str) -> List[ManifoldData]:
    """Parse and validate a catalog file; raises ValueError naming the bad record."""
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValueError("unsupported catalog schema")
    records = doc.get("manifolds")
    if not isinstance(records, list):
        raise ValueError("catalog key 'manifolds' must be a list of records")
    out: List[ManifoldData] = []
    seen = set()
    for record in records:
        m = manifold_from_json(record)
        if m.name in seen:
            raise ValueError(f"duplicate catalog record {m.name!r}")
        seen.add(m.name)
        out.append(m)
    return out
