"""Torus topology and the global address map."""

import numpy as np
import pytest

from repro.ir.arrays import ArrayDecl, Distribution, DistKind, REPLICATED
from repro.ir.dtypes import REAL4
from repro.machine.addressing import AddressMap
from repro.machine.params import t3d
from repro.machine.topology import Torus, torus_for, torus_shape


class TestTorusShape:
    @pytest.mark.parametrize("n,expect_volume", [(1, 1), (2, 2), (8, 8),
                                                 (12, 12), (64, 64), (100, 100)])
    def test_volume(self, n, expect_volume):
        x, y, z = torus_shape(n)
        assert x * y * z == expect_volume

    def test_near_cubic_for_64(self):
        assert sorted(torus_shape(64)) == [4, 4, 4]

    def test_t3d_32(self):
        assert sorted(torus_shape(32)) == [2, 4, 4]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            torus_shape(0)


class TestHops:
    def test_self_distance_zero(self):
        torus = torus_for(8)
        assert all(torus.hops(p, p) == 0 for p in range(8))

    def test_symmetry(self):
        torus = torus_for(12)
        for a in range(12):
            for b in range(12):
                assert torus.hops(a, b) == torus.hops(b, a)

    def test_wraparound_shortens(self):
        torus = Torus.for_pes(8, (8, 1, 1))
        assert torus.hops(0, 7) == 1  # wraps around the ring

    def test_triangle_inequality(self):
        torus = torus_for(16)
        for a in range(16):
            for b in range(16):
                for c in (0, 5, 11):
                    assert torus.hops(a, c) <= torus.hops(a, b) + torus.hops(b, c)

    def test_hop_matrix_matches_scalar(self):
        torus = torus_for(12)
        matrix = torus.hop_matrix()
        for a in range(12):
            for b in range(12):
                # wrap-around Manhattan distance, straight from coords
                want = sum(min(abs(x - y), dim - abs(x - y))
                           for x, y, dim in zip(torus.coords(a),
                                                torus.coords(b),
                                                torus.shape))
                assert matrix[a, b] == torus.hops(a, b) == want

    def test_mean_hops_positive(self):
        assert torus_for(1).mean_hops() == 0.0
        assert torus_for(16).mean_hops() > 0

    def test_out_of_range_pe(self):
        with pytest.raises(ValueError):
            torus_for(4).coords(4)

    @pytest.mark.parametrize("src,dst", [(4, 0), (0, 4), (-1, 0), (0, -1),
                                         (-1, -1), (4, 4)])
    def test_hops_out_of_range_raises(self, src, dst):
        """The hop table must not wrap a negative PE to the last row."""
        with pytest.raises(ValueError):
            torus_for(4).hops(src, dst)


class TestAddressMap:
    def make(self, *decls, n_pes=4):
        return AddressMap(decls, t3d(n_pes))

    def test_line_alignment(self):
        params = t3d(4)
        amap = self.make(ArrayDecl("a", (5,)), ArrayDecl("b", (3,)))
        for name in ("a", "b"):
            assert amap.base(name) % params.line_words == 0

    def test_no_overlap(self):
        amap = self.make(ArrayDecl("a", (10, 10)), ArrayDecl("b", (7,)))
        layout = amap.layout()
        for (n1, base1, words1), (n2, base2, _) in zip(layout, layout[1:]):
            assert base1 + words1 <= base2

    def test_addr_arithmetic(self):
        amap = self.make(ArrayDecl("a", (10,)))
        assert amap.addr("a", 3) == amap.base("a") + 3

    def test_array_at_reverse_lookup(self):
        amap = self.make(ArrayDecl("a", (10,)), ArrayDecl("b", (10,)))
        assert amap.array_at(amap.addr("b", 5)) == "b"
        assert amap.array_at(0) is None  # reserved first line

    def test_owner_table_block(self):
        amap = self.make(ArrayDecl("a", (4, 8)))
        owners = amap.owner_table("a")
        # column-major: first 8 elements are column 1 -> PE 0
        assert set(owners[:8].tolist()) == {0}
        assert amap.owner("a", 31) == 3

    def test_owner_table_cyclic(self):
        decl = ArrayDecl("a", (2, 6), dist=Distribution(DistKind.CYCLIC, -1))
        amap = self.make(decl)
        owners = amap.owner_table("a").reshape((2, 6), order="F")
        assert owners[0].tolist() == [0, 1, 2, 3, 0, 1]

    def test_owner_matches_decl(self):
        decl = ArrayDecl("a", (4, 10))
        amap = self.make(decl)
        for j in range(1, 11):
            flat = decl.linear_index((1, j))
            assert amap.owner("a", flat) == decl.owner_of_axis_index(j, 4)

    def test_private_array_ownership_rejected(self):
        decl = ArrayDecl("w", (8,), dist=REPLICATED)
        amap = self.make(decl)
        with pytest.raises(ValueError):
            amap.owner_table("w")
        assert amap.is_local("w", 3, pe=2)

    def test_shared_narrow_elements_rejected(self):
        with pytest.raises(ValueError, match="element size"):
            self.make(ArrayDecl("a", (8,), REAL4))

    def test_private_narrow_elements_allowed(self):
        decl = ArrayDecl("w", (8,), REAL4, REPLICATED)
        amap = self.make(decl)
        assert amap.base("w") > 0
