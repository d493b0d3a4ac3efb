import pytest

from stlab.digraph import out_degree_sequence
from stlab.families import (
    FamilySpec,
    bk01_compositions,
    bk01_energy_range,
    build_family,
    enumerate_bk01_members,
    enumerate_fnk_members,
    family_blocks,
    fnk_placement_arcs,
    fnk_placement_blocks,
    gen_bk,
    gen_complete_digraph,
    gen_fnk,
    gen_transitive_tournament,
    parse_family_spec,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck
from stlab.invariants import laplacian_energy, measure

from conftest import fnk_placement_degrees


class TestFnk:
    def test_residual_middle(self):
        g = gen_fnk(4, 3, 2)
        assert g.e == 9
        assert out_degree_sequence(g) == (3, 3, 3, 0)
        assert laplacian_energy(g) == 33

    def test_no_residual(self):
        g = gen_fnk(4, 2)
        assert g.e == 8
        assert laplacian_energy(g) == 24

    def test_unit_blocks_are_transitive_tournament(self):
        for n in (1, 4, 7):
            assert gen_fnk(n, 1) == gen_transitive_tournament(n)
            assert laplacian_energy(gen_fnk(n, 1)) == laplacian_energy(gen_transitive_tournament(n))

    def test_outdegree_law(self):
        # every vertex dominates its own block (minus itself) and all later blocks
        for n, k, pos in ((10, 3, 2), (11, 4, 3), (7, 3, 1)):
            g = gen_fnk(n, k, pos)
            spec = FamilySpec("fnk", n=n, k=k, r_position=pos)
            for start, stop in family_blocks(spec):
                for v in range(start, stop):
                    assert g.out_degree(v) == n - 1 - start

    def test_member_counts(self):
        assert len(enumerate_fnk_members(5, 3)) == 2
        assert len(enumerate_fnk_members(6, 3)) == 1
        assert len(enumerate_fnk_members(7, 3)) == 3

    @pytest.mark.parametrize("n,k", [(5, 0), (0, 3)])
    def test_member_enumeration_validates_first(self, n, k):
        with pytest.raises(ValueError, match="must be >= 1"):
            enumerate_fnk_members(n, k)

    def test_members_match_one_member_builder(self):
        # Pins the member order: residual block at positions 1..q+1, or the one chain when r = 0.
        for n in range(1, 65):
            for k in range(1, n + 2):
                q, r = divmod(n, k)
                want = [gen_fnk(n, k)] if r == 0 else [gen_fnk(n, k, pos) for pos in range(1, q + 2)]
                assert enumerate_fnk_members(n, k) == want, (n, k)

    def test_members_share_arc_count(self):
        for n, k in ((5, 3), (7, 3), (10, 4), (9, 3)):
            sizes = {g.e for g in enumerate_fnk_members(n, k)}
            assert sizes == {ex_arcs_ck(n, k).value}

    def test_placement_arcs_match_built_members(self):
        # Every order and block size with a residual, k > n included.
        for n in range(1, 65):
            for k in range(1, n + 2):
                if n % k:
                    assert fnk_placement_arcs(n, k) == [g.e for g in enumerate_fnk_members(n, k)], (n, k)
        assert fnk_placement_arcs(6, 3) == [ex_arcs_ck(6, 3).value]

    @pytest.mark.parametrize("n,k,message", [(5, 0, "n and k must be >= 1")])
    def test_placement_blocks_validate(self, n, k, message):
        with pytest.raises(ValueError, match=message):
            fnk_placement_blocks(n, k)

    def test_placement_blocks_pinned(self):
        # F(7, 3): the k-blocks start at 0 and 3 before the residual block, which starts at
        # 0, 3 or 6, and at 1 and 4 after it.
        head, resid, tail = fnk_placement_blocks(7, 3)
        assert (list(head), list(resid), list(tail)) == ([6, 3], [6, 3, 0], [5, 2])
        layouts = [[6, 5, 5, 5, 2, 2, 2], [6, 6, 6, 3, 2, 2, 2], [6, 6, 6, 3, 3, 3, 0]]
        assert layouts == [list(seq) for seq in fnk_placement_degrees(7, 3)]
        for p, layout in enumerate(layouts):
            assert [*head[:p], resid[p], *tail[p:]] == sorted(set(layout), reverse=True)
        # r = 0 leaves one member, placement q: head's q blocks and an empty residual block.
        assert fnk_placement_blocks(6, 3) == (range(5, -1, -3), range(5, -2, -3), range(5, -1, -3))

    def test_position_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            gen_fnk(6, 3, 1)
        with pytest.raises(ValueError, match="required"):
            gen_fnk(5, 3)
        with pytest.raises(ValueError, match="r_position must be"):
            gen_fnk(5, 3, 3)
        with pytest.raises(ValueError, match="k must be"):
            gen_fnk(5, 0)


class TestBk:
    def test_single_even_block(self):
        bundle = measure(gen_bk([4]))
        assert (bundle.le, bundle.m1, bundle.c2) == (24, 16, 8)
        assert bundle.degseq == (2, 2, 2, 2)

    def test_digon_over_odd_block(self):
        bundle = measure(gen_bk([2, 3]))
        assert (bundle.le, bundle.m1, bundle.c2) == (44, 38, 6)
        assert bundle.degseq == (4, 4, 2, 1, 1)

    def test_single_odd_block(self):
        assert laplacian_energy(gen_bk([3])) == 10

    def test_block_over_sink(self):
        assert gen_bk([4, 1]).e == 12

    def test_part_validation(self):
        with pytest.raises(ValueError, match="odd"):
            gen_bk([3, 3])
        with pytest.raises(ValueError, match="non-empty"):
            gen_bk([])
        with pytest.raises(ValueError, match=">= 1"):
            gen_bk([2, 0])

    def test_compositions(self):
        assert bk01_compositions(2) == [(2,)]
        assert bk01_compositions(4) == [(4,), (2, 2)]
        assert bk01_compositions(5) == [(4, 1), (2, 3), (2, 2, 1)]
        assert bk01_compositions(1) == [(1,)]

    def test_compositions_reject_orders_above_capacity(self):
        with pytest.raises(ValueError, match="order n must be >= 1"):
            bk01_compositions(0)
        for enumerate_parts in (bk01_compositions, enumerate_bk01_members):
            with pytest.raises(ValueError, match="vertex count must be in 1..64, got 65"):
                enumerate_parts(65)

    def test_members_match_one_member_builder(self):
        # Pins the member order: bk01_compositions order.
        for n in range(1, 29):
            assert enumerate_bk01_members(n) == [gen_bk(parts) for parts in bk01_compositions(n)], n

    def test_members_share_energy(self):
        for n in range(1, 13):
            energies = {laplacian_energy(g) for g in enumerate_bk01_members(n)}
            assert energies == {ex_le_ck(n, 2).value}

    def test_energy_range_matches_built_members(self):
        for n in range(1, 25):
            energies = [laplacian_energy(g) for g in enumerate_bk01_members(n)]
            assert bk01_energy_range(n) == (min(energies), max(energies)), n

    def test_energy_range_is_the_closed_form(self):
        # No chain is built, so the range runs past MAX_VERTICES.
        for n in range(1, 257):
            value = ex_le_ck(n, 2).value
            assert bk01_energy_range(n) == (value, value), n
        with pytest.raises(ValueError, match="order n must be >= 1, got 0"):
            bk01_energy_range(0)

    def test_f_n2_members_are_bk_members(self):
        assert gen_fnk(5, 2, 3) == gen_bk([2, 2, 1])
        assert gen_fnk(4, 2) == gen_bk([2, 2])


class TestDegenerateFamilies:
    def test_transitive_tournament(self):
        g = gen_transitive_tournament(3)
        assert laplacian_energy(g) == 5
        assert gen_transitive_tournament(1).e == 0
        assert out_degree_sequence(gen_transitive_tournament(4)) == (3, 2, 1, 0)

    def test_complete_digraph(self):
        assert gen_complete_digraph(3).e == 6
        assert gen_complete_digraph(2).e == 2
        assert gen_complete_digraph(1).e == 0

    @pytest.mark.parametrize("gen", [gen_transitive_tournament, gen_complete_digraph])
    def test_order_validation(self, gen):
        with pytest.raises(ValueError, match="order n must be >= 1"):
            gen(0)


class TestSpecStrings:
    @pytest.mark.parametrize(
        "text",
        ["fnk:n=10,k=3,s=3", "fnk:n=6,k=3", "bk:parts=4+2+3", "tt:n=7", "kd:n=5"],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        build_family(spec)  # must be constructible

    def test_blocks_cover_labels(self):
        spec = parse_family_spec("bk:parts=4+2+3")
        blocks = family_blocks(spec)
        assert blocks == [(0, 4), (4, 6), (6, 9)]

    @pytest.mark.parametrize(
        "text",
        [
            "nope:n=3",
            "fnk:n=9,k=3,s=3,extra=1",
            "fnk:n=9",
            "bk:parts=",
            "bk:parts=3+3",
            "fnk:n=6,k=3,s=1",
            "tt:n=x",
            "tt:n=0",
            "kd:n=-2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_family_spec(text)

    @pytest.mark.parametrize("text", ["fnk:n=4,k=3,s=2,n=5", "fnk:n=4,k=3,s=2,s=9", "bk:parts=2+2,parts=4", "tt:n=3, n=3"])
    def test_rejects_repeated_field(self, text):
        with pytest.raises(ValueError, match="repeated"):
            parse_family_spec(text)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("tt", n=0),
            FamilySpec("kd", n=-2),
            FamilySpec("bk", n=99, parts=(4,)),
            FamilySpec("bk", n=3, parts=(4,)),
        ],
    )
    def test_spec_built_directly_is_validated(self, spec):
        with pytest.raises(ValueError):
            family_blocks(spec)
        with pytest.raises(ValueError):
            build_family(spec)




def naive_chain(sizes, bipartite):
    """Rows one arc test at a time.  (u, v) is an arc iff v's block is later, or
    both share a block and sit on different sides of it: in a complete block
    every label is its own side, in a bipartite block the first ceil(size / 2)
    labels are side 0 and the rest side 1."""
    block, side = [], []
    for b, size in enumerate(sizes):
        block += [b] * size
        side += [int(i >= (size + 1) // 2) for i in range(size)] if bipartite else range(len(side), len(side) + size)
    n = len(block)
    return tuple(
        sum(1 << v for v in range(n) if block[v] > block[u] or (block[v] == block[u] and side[v] != side[u]))
        for u in range(n)
    )


def bk_compositions(n, odd=1):
    """Every bk parts tuple summing to n: positive parts, at most ``odd`` of them odd."""
    if n == 0:
        yield ()
    for p in range(1, n + 1):
        if p % 2 <= odd:
            for rest in bk_compositions(n - p, odd - p % 2):
                yield (p,) + rest


def test_block_chain_matches_row_by_row_reference():
    # Every fnk spec (every k up to n + 1, every residual position) and every
    # bk spec (28,671 of them) with n <= 24.
    for n in range(1, 25):
        for k in range(1, n + 2):
            q, r = divmod(n, k)
            for pos in range(1, q + 2) if r else (None,):
                spec = FamilySpec("fnk", n=n, k=k, r_position=pos)
                sizes = [k] * q if pos is None else [k] * (pos - 1) + [r] + [k] * (q - pos + 1)
                assert build_family(spec).rows == naive_chain(sizes, False), spec
        for parts in bk_compositions(n):
            assert gen_bk(parts).rows == naive_chain(parts, True), parts
