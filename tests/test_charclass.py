import json

import pytest

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
            for x in m.ring.all_degree1():
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
