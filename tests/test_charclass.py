import json

import pytest
from hypothesis import example, given, strategies as st

from spinweave.charclass import (
    BundleData,
    CohoClass,
    CohoRing,
    ManifoldData,
    TRIVIAL_RANK2,
    builtin_catalog,
    check_lpin,
    check_pin_c,
    check_pin_minus,
    check_pin_plus,
    check_spin,
    check_spin_c,
    codim2_submanifold_demo,
    complex_projective_data,
    dump_catalog,
    f2_in_span,
    grassmann_g52_data,
    is_orientable,
    load_catalog,
    product_with_parallelizable,
    projective_space_data,
    sphere_data,
    structure_summary,
    torus_data,
)


def all_degree1(ring):
    """All 2^b1 classes of H^1, enumerated for small rings (b1 <= 12)."""
    n = len(ring.basis1)
    if n > 12:
        raise ValueError("degree-1 group too large to enumerate")
    return [CohoClass(1, tuple((mask >> i) & 1 for i in range(n))) for mask in range(1 << n)]


class TestF2:
    def test_span_membership(self):
        gens = [(1, 0), (1, 1)]
        assert f2_in_span((0, 1), gens)
        assert f2_in_span((0, 0), [])
        assert not f2_in_span((1,), [])

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            CohoRing(("a",), ("b",), ())  # missing sq row
        with pytest.raises(ValueError):
            CohoRing(("a",), ("b",), ((1,),), {(0, 0): (0,)})  # cup vs sq clash

    def test_square_additive(self):
        ring = CohoRing(("a", "b"), ("s",), ((1,), (0,)), {(0, 1): (0,)})
        x = CohoClass(1, (1, 1))
        assert ring.square(x).coords == (1,)


class TestIngestionValidation:
    def test_oriented_bundle_needs_trivial_w1(self):
        ring = CohoRing(("a",), ("s",), ((1,),))
        with pytest.raises(ValueError):
            BundleData("bad", 2, CohoClass(1, (1,)), CohoClass(2, (0,)), oriented=True)

    def test_lemma_constraint_rejected(self):
        ring = CohoRing(("a",), ("s",), ((1,),))
        tangent = BundleData("T", 3, CohoClass(1, (1,)), CohoClass(2, (0,)))
        with pytest.raises(ValueError):
            ManifoldData("bad", 3, ring, tangent, ())  # sq(a) = s not liftable

    def test_unliftable_square_names_record_and_key(self):
        ring = CohoRing(("a", "b"), ("s",), ((0,), (1,)))
        tangent = BundleData("T", 3, ring.zero1(), ring.zero2())
        with pytest.raises(ValueError, match=r"'bad'.*'sq\.b'.*not liftable"):
            ManifoldData("bad", 3, ring, tangent, ())

    def test_tangent_rank_must_match(self):
        ring = CohoRing((), (), ())
        tangent = BundleData("T", 2, ring.zero1(), ring.zero2())
        with pytest.raises(ValueError):
            ManifoldData("bad", 3, ring, tangent, ())


class TestSpheres:
    def test_all_structures(self):
        for m in range(1, 8):
            s = sphere_data(m)
            assert check_spin(s) and check_pin_plus(s) and check_pin_minus(s)
            assert check_spin_c(s) and check_pin_c(s)
            ok, witness = check_lpin(s)
            assert ok
            if m % 2 == 1:
                assert witness == TRIVIAL_RANK2

    def test_s3_row_all_true(self):
        row = structure_summary(sphere_data(3))
        assert all(row[k] for k in ("spin", "pin+", "pin-", "spin_c", "pin_c", "lpin"))


class TestProjectiveSpaces:
    def test_orientability_iff_odd(self):
        for m in range(1, 17):
            assert is_orientable(projective_space_data(m)) == (m % 2 == 1)

    def test_rp2_classes(self):
        rp2 = projective_space_data(2)
        assert rp2.tangent.w1.coords == (1,)  # non-orientable
        assert rp2.tangent.w2.coords == (1,)  # (1+a)^3 = 1 + a + a^2

    def test_rp2_pin_minus_only(self):
        rp2 = projective_space_data(2)
        assert check_pin_minus(rp2)
        assert not check_pin_plus(rp2)
        assert check_pin_c(rp2)

    def test_rp3_spin(self):
        assert check_spin(projective_space_data(3))

    def test_rp5_not_spin(self):
        rp5 = projective_space_data(5)
        assert is_orientable(rp5)
        assert not check_spin(rp5)

    def test_rp7_spin(self):
        assert check_spin(projective_space_data(7))

    def test_spin_iff_3_mod_4(self):
        for m in range(2, 17):
            assert check_spin(projective_space_data(m)) == (m % 4 == 3)

    def test_rp1_is_circle(self):
        assert check_spin(projective_space_data(1))


class TestGrassmannian:
    def test_paper_row(self):
        g = grassmann_g52_data()
        assert not is_orientable(g)
        assert not check_spin(g)
        assert not check_pin_plus(g)
        assert not check_pin_minus(g)
        assert not check_spin_c(g)
        assert not check_pin_c(g)
        ok, _ = check_lpin(g)
        assert not ok  # even-dimensional: lpin reduces to pin^c

    def test_pin_minus_obstruction_value(self):
        g = grassmann_g52_data()
        # w1^2 + w2 = w2(gamma), the second basis vector
        total = g.ring.square(g.tangent.w1) + g.tangent.w2
        assert total.coords == (0, 1)

    def test_products_admit_lpin_with_gamma(self):
        g = grassmann_g52_data()
        for factor in ("circle", "line"):
            prod = product_with_parallelizable(g, factor)
            assert prod.dim == 7
            assert not check_pin_c(prod)
            ok, witness = check_lpin(prod)
            assert ok and witness == "gamma"


class TestProducts:
    def test_s2_x_s1_trivial_classes(self):
        prod = product_with_parallelizable(sphere_data(2), "circle")
        assert prod.dim == 3
        assert check_spin(prod)
        ok, witness = check_lpin(prod)
        assert ok and witness == TRIVIAL_RANK2

    def test_rp2_x_s1_pulls_back(self):
        prod = product_with_parallelizable(projective_space_data(2), "circle")
        assert prod.dim == 3
        assert prod.tangent.w1.coords == (1,)
        assert check_pin_minus(prod) and not check_pin_plus(prod)
        ok, witness = check_lpin(prod)
        assert ok and witness == TRIVIAL_RANK2  # w2 itself is liftable here

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            product_with_parallelizable(sphere_data(2), "plane")


class TestComplexProjective:
    def test_spin_c_always(self):
        for n in (1, 2, 3):
            assert check_spin_c(complex_projective_data(n))

    def test_cp2_not_spin(self):
        assert not check_spin(complex_projective_data(2))
        assert check_spin(complex_projective_data(1))  # CP^1 = S^2
        assert check_spin(complex_projective_data(3))


class TestCodim2Demo:
    def test_lpin_with_normal_witness(self):
        m = codim2_submanifold_demo()
        assert m.dim % 2 == 1
        assert not check_pin_c(m)
        ok, witness = check_lpin(m)
        assert ok and witness == "normal"


def _cup(ring, x, y):
    """The cup product of two degree-1 classes, bilinear in the ring's cup table."""
    acc = ring.zero2()
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            if a and b:
                acc = acc + CohoClass(2, ring.cup.get((i, j), ring.zero2().coords))
    return acc


def _times(ring, u, v):
    """(1 + u1 + u2)(1 + v1 + v2) in degrees <= 2, a total class written as its pair (u1, u2)."""
    return u[0] + v[0], u[1] + v[1] + _cup(ring, u[0], v[0])


def _inverse(ring, u):
    """(1 + u1 + u2)^-1 = 1 + u1 + (u1^2 + u2) in degrees <= 2: every sign is 1 over F2."""
    return u[0], ring.square(u[0]) + u[1]


class TestTypedClassesMatchFormulas:
    """The rows whose Stiefel-Whitney classes are typed in, against the formulas they come from."""

    def test_g52_tangent_from_the_tautological_bundle(self):
        # TG + (gamma (x) gamma) = 5 gamma and w(gamma (x) gamma) = (1 + w1)^2 = 1 + w1^2, so
        # w(TG) = (1 + w1 + w2)^5 / (1 + w1^2): w1(TG) = w1g and w2(TG) = w1g^2 + w2g
        g = grassmann_g52_data()
        (gamma,) = g.bundles
        assert gamma.name == "gamma"
        assert gamma.w1.coords == (1,) and g.ring.basis1 == ("w1g",)
        assert [g.ring.basis2[i] for i, bit in enumerate(gamma.w2.coords) if bit] == ["w2g"]
        w = (gamma.w1, gamma.w2)
        total = w
        for _ in range(4):
            total = _times(g.ring, total, w)
        total = _times(g.ring, total, _inverse(g.ring, (g.ring.zero1(), g.ring.square(gamma.w1))))
        assert (g.tangent.w1, g.tangent.w2) == total

    def test_codim2_normal_bundle_by_the_whitney_relation(self):
        m = codim2_submanifold_demo()
        (normal,) = m.bundles
        assert normal.w1 == m.tangent.w1
        assert normal.w2 == m.tangent.w2 + m.ring.square(m.tangent.w1)

    def test_products_keep_the_classes_of_their_factor(self):
        catalog = {m.name: m for m in builtin_catalog()}
        products = [name for name in catalog if name.endswith(("xR", "xS1"))]
        assert len(products) == 4
        for name in products:
            prod, base = catalog[name], catalog[name.rsplit("x", 1)[0]]
            assert prod.dim == base.dim + 1 and prod.ring == base.ring
            assert (prod.tangent.w1, prod.tangent.w2) == (base.tangent.w1, base.tangent.w2)
            assert prod.liftable2 == base.liftable2 and prod.bundles == base.bundles


class TestWuManifold:
    """SU(3)/SO(3): orientable with w2 = x, the generator of H^2(M; Z2) = Z2, and H^2(M; Z) = 0,
    so no class lifts.  A test record, not a builtin row, so ``obstructions`` prints as before."""

    def test_orientable_without_any_other_structure(self):
        (wu,) = _load({"name": "wu", "dim": 5, "h1": [], "h2": ["x"], "sq": {},
                       "tangent": {"w1": [], "w2": [1]}, "liftable2": []})
        assert structure_summary(wu) == {
            "manifold": "wu", "dim": 5, "orientable": True, "spin": False, "pin+": False,
            "pin-": False, "spin_c": False, "pin_c": False, "lpin": False, "lpin_witness": None}


class TestImplicationChain:
    def test_chain_on_catalog(self):
        for m in builtin_catalog():
            spin = check_spin(m)
            pin_p, pin_m = check_pin_plus(m), check_pin_minus(m)
            spin_c, pin_c = check_spin_c(m), check_pin_c(m)
            if spin:
                assert pin_p and pin_m and spin_c
            if spin_c:
                assert pin_c
            if pin_p or pin_m:
                assert pin_c
            lpin, _ = check_lpin(m)
            if pin_c:
                assert lpin

    def test_lemma_holds_on_catalog(self):
        for m in builtin_catalog():
            for x in all_degree1(m.ring):
                assert m.is_liftable(m.ring.square(x))

    def test_lpin_degenerates_to_pin_c_without_bundles(self):
        for m in builtin_catalog():
            if m.dim % 2 == 0 or m.bundles:
                continue
            ok, _ = check_lpin(m)
            assert ok == check_pin_c(m)


class TestTorus:
    def test_parallelizable(self):
        t2 = torus_data(2)
        assert check_spin(t2)
        assert check_pin_c(t2)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_higher_tori(self, n):
        t = torus_data(n)
        assert len(t.ring.basis1) == n
        assert check_spin(t)
        assert check_pin_c(t)


def _bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)


@st.composite
def _ring_and_liftable(draw):
    b1, b2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    sq = tuple(draw(_bits(b2)) for _ in range(b1))
    liftable = draw(st.lists(_bits(b2), max_size=3))
    # some squares among the generators, so that both verdicts are common
    liftable += [row for row in sq if draw(st.booleans())]
    ring = CohoRing(tuple(f"x{i}" for i in range(b1)), tuple(f"y{j}" for j in range(b2)), sq)
    return ring, tuple(liftable)


@st.composite
def _span_case(draw):
    b2 = draw(st.integers(0, 8))
    gens = draw(st.lists(_bits(b2), max_size=4))
    # duplicates and sums of drawn generators make dependent sets
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        picked = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
        gens.append(tuple(sum(col) % 2 for col in zip(*picked)))
    return draw(_bits(b2)), draw(st.permutations(gens))


class TestSpanByEnumeration:
    @given(_span_case())
    def test_membership_matches_every_subset_sum(self, case):
        x, gens = case
        n = len(x)
        span = {tuple(sum(g[i] for j, g in enumerate(gens) if (subset >> j) & 1) % 2
                      for i in range(n))
                for subset in range(1 << len(gens))}
        assert f2_in_span(x, gens) == (x in span)
        # the reduced basis is cached per generator tuple: lists, tuples and
        # repeated tests see the same span
        assert f2_in_span(x, tuple(gens)) == (x in span)
        assert all(f2_in_span(y, gens) for y in span)


class TestSquaresByLinearity:
    @given(_ring_and_liftable())
    def test_basis_rows_decide_every_square(self, case):
        ring, liftable = case
        brute = all(f2_in_span(ring.square(x).coords, liftable) for x in all_degree1(ring))
        tangent = BundleData("T", 3, ring.zero1(), ring.zero2())
        try:
            ManifoldData("r", 3, ring, tangent, liftable)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute


class TestCatalogSerialisation:
    def test_roundtrip(self):
        catalog = builtin_catalog()
        text = dump_catalog(catalog)
        loaded = load_catalog(text)
        assert [m.name for m in loaded] == [m.name for m in catalog]
        for a, b in zip(loaded, catalog):
            assert structure_summary(a) == structure_summary(b)

    def test_malformed_record_named(self):
        text = dump_catalog([sphere_data(3)]).replace('"dim": 3', '"dim": "three"')
        with pytest.raises(ValueError):
            load_catalog(text)

    def test_schema_checked(self):
        with pytest.raises(ValueError):
            load_catalog('{"schema": 2, "manifolds": []}')


def _record(**overrides):
    """A tiny valid record: b1 = 2, b2 = 1, everything liftable."""
    record = {
        "name": "tiny",
        "dim": 3,
        "h1": ["x", "y"],
        "h2": ["z"],
        "sq": {"x": [1], "y": [0]},
        "cup": {"x,y": [1]},
        "tangent": {"w1": [1, 0], "w2": [0]},
        "liftable2": [[1]],
        "bundles": [{"name": "E", "rank": 2, "w1": [0, 1], "w2": [1]}],
    }
    record.update(overrides)
    return record


def _load(*records):
    return load_catalog(json.dumps({"schema": 1, "manifolds": list(records)}))


class TestCatalogValidation:
    def test_tiny_record_loads(self):
        (m,) = _load(_record())
        assert m.name == "tiny" and len(m.bundles) == 1

    def test_missing_manifolds_key(self):
        with pytest.raises(ValueError, match="manifolds"):
            load_catalog('{"schema": 1}')

    def test_record_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            _load([1, 2])

    def test_missing_required_key(self):
        record = _record()
        del record["tangent"]
        with pytest.raises(ValueError, match="'tiny'.*'tangent'"):
            _load(record)

    def test_wrong_key_type(self):
        with pytest.raises(ValueError, match="'tiny'.*'h1'"):
            _load(_record(h1="x"))

    def test_tangent_w1_length(self):
        with pytest.raises(ValueError, match="'tiny'.*'tangent.w1'.*length 3, expected 2"):
            _load(_record(tangent={"w1": [1, 0, 0], "w2": [0]}))

    def test_tangent_w2_length(self):
        with pytest.raises(ValueError, match="'tiny'.*'tangent.w2'"):
            _load(_record(tangent={"w1": [1, 0], "w2": [0, 0]}))

    def test_sq_length(self):
        with pytest.raises(ValueError, match="'tiny'.*'sq.x'"):
            _load(_record(sq={"x": [1, 1], "y": [0]}))

    def test_sq_rows_match_h1(self):
        with pytest.raises(ValueError, match="'tiny'.*'sq'"):
            _load(_record(sq={"x": [1]}))

    def test_cup_length(self):
        with pytest.raises(ValueError, match="'tiny'.*'cup.x,y'"):
            _load(_record(cup={"x,y": []}))

    def test_cup_names_h1_classes(self):
        with pytest.raises(ValueError, match="'tiny'.*'cup.x,q'"):
            _load(_record(cup={"x,q": [1]}))

    def test_liftable2_length(self):
        with pytest.raises(ValueError, match=r"'tiny'.*'liftable2\[0\]'"):
            _load(_record(liftable2=[[1, 0]]))

    def test_bundle_vector_length(self):
        bundle = {"name": "E", "rank": 2, "w1": [0], "w2": [1]}
        with pytest.raises(ValueError, match=r"'tiny'.*'bundles\[0\].w1'"):
            _load(_record(bundles=[bundle]))

    def test_bundle_rank(self):
        bundle = {"name": "E", "rank": 0, "w1": [0, 0], "w2": [1]}
        with pytest.raises(ValueError, match=r"'tiny'.*'bundles\[0\].rank'"):
            _load(_record(bundles=[bundle]))

    def test_non_binary_entry(self):
        with pytest.raises(ValueError, match="'tiny'.*'tangent.w1'.*0/1"):
            _load(_record(tangent={"w1": [2, 0], "w2": [0]}))

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate catalog record 'tiny'"):
            _load(_record(), _record())


def _args(**overrides):
    """Record constructor inputs, by default a sound record with b1 = 2 and b2 = 1."""
    args = {"h1": ["a", "b"], "h2": ["s"], "sq": [[1], [0]], "cup": {}, "w1": [0, 0],
            "w2": [0], "liftable2": [[1]], "bw1": [0, 0], "bw2": [0]}
    args.update(overrides)
    return args


def _build(args):
    ring = CohoRing(tuple(args["h1"]), tuple(args["h2"]), tuple(map(tuple, args["sq"])),
                    {pair: tuple(v) for pair, v in args["cup"].items()})
    tangent = BundleData("T", 3, CohoClass(1, args["w1"]), CohoClass(2, args["w2"]))
    bundle = BundleData("E", 2, CohoClass(1, args["bw1"]), CohoClass(2, args["bw2"]))
    return ManifoldData("r", 3, ring, tangent, tuple(map(tuple, args["liftable2"])), (bundle,))


@st.composite
def _record_args(draw):
    """Constructor inputs of a small record with at most one fault of shape: a duplicate H^1 or
    H^2 name, a ',' in an H^1 name, a cup index outside H^1, or a vector one entry long or short."""
    b1, b2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def bits(n):
        return list(draw(_bits(n)))
    sq = [bits(b2) for _ in range(b1)]
    args = _args(h1=[f"x{i}" for i in range(b1)], h2=[f"y{j}" for j in range(b2)], sq=sq,
                 cup={(i, j): bits(b2) for i in range(b1) for j in range(i + 1, b1)
                      if draw(st.booleans())},
                 w1=bits(b1), w2=bits(b2), bw1=bits(b1), bw2=bits(b2),
                 # every square among the generators, so that only a drawn fault can refuse it
                 liftable2=[list(row) for row in sq]
                 + [bits(b2) for _ in range(draw(st.integers(0, 2)))])
    fault = draw(st.sampled_from(("none", "h1", "h2", ",", "cup index", "long", "short")))
    if fault in ("h1", "h2") and len(args[fault]) >= 2:
        args[fault][1] = args[fault][0]
    elif fault == "," and b1:
        args["h1"][0] += ",z"
    elif fault == "cup index":
        args["cup"][draw(st.sampled_from([(0, b1), (b1, 0), (-1, 0)]))] = bits(b2)
    elif fault in ("long", "short"):
        vectors = [args[k] for k in ("w1", "w2", "bw1", "bw2")] + args["sq"] + args["liftable2"]
        vec = draw(st.sampled_from(vectors + list(args["cup"].values())))
        if fault == "short" and vec:
            vec.pop()
        else:
            vec.append(draw(st.integers(0, 1)))
    return args


# a ring with two classes of one name; a tangent w1 longer, and one shorter, than H^1
REPROS = [pytest.param(_args(h1=["a", "a"]), "'h1'", id="duplicate-h1"),
          pytest.param(_args(w1=[1, 0, 0]), "'tangent.w1'", id="long-w1"),
          pytest.param(_args(w1=[1]), "'tangent.w1'", id="short-w1")]


class TestCatalogRoundTrip:
    """``dump_catalog`` writes only records that ``load_catalog`` reads back."""

    @pytest.mark.parametrize("args, key", REPROS)
    def test_malformed_record_is_refused_at_construction(self, args, key):
        with pytest.raises(ValueError, match=key):
            _build(args)

    @given(_record_args())
    @example(_args(h1=["a", "a"]))
    @example(_args(w1=[1, 0, 0]))
    @example(_args(w1=[1]))
    def test_every_record_built_reads_back(self, args):
        try:
            m = _build(args)
        except ValueError:
            return
        assert load_catalog(dump_catalog([m])) == [m]

    def test_comma_in_an_h1_name_is_refused_by_the_ring(self):
        # the cup key of (a,b) and c would be written "a,b,c", which names no two classes
        with pytest.raises(ValueError, match="','"):
            CohoRing(("a,b", "c"), ("z",), ((1,), (0,)), {(0, 1): (1,)})

    def test_comma_in_an_h1_name_is_refused_before_the_cup(self):
        record = _record(h1=["a,b", "c"], sq={"a,b": [1], "c": [0]}, cup={"a,b,c": [1]})
        with pytest.raises(ValueError, match=r"'tiny'.*'h1'.*','"):
            _load(record)

    @given(_ring_and_liftable(), st.data())
    def test_dump_then_load_keeps_the_record(self, case, data):
        ring, liftable = case
        b1, b2 = len(ring.basis1), len(ring.basis2)

        def bundle(name, rank):
            return BundleData(name, rank, CohoClass(1, data.draw(_bits(b1))),
                              CohoClass(2, data.draw(_bits(b2))))
        dim = data.draw(st.integers(1, 8))
        # every square among the generators, so that the record is valid
        m = ManifoldData("r", dim, ring, bundle("T", dim), liftable + ring.sq, (bundle("E", 2),))
        (loaded,) = load_catalog(dump_catalog([m]))
        assert structure_summary(loaded) == structure_summary(m)
        assert loaded == m
