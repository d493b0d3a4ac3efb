import pytest

from stlab.digraph import out_degree_sequence
from stlab.families import (
    FamilySpec,
    bk01_compositions,
    build_family,
    enumerate_bk01_members,
    enumerate_fnk_members,
    family_blocks,
    format_family_spec,
    gen_bk,
    gen_complete_digraph,
    gen_fnk,
    gen_transitive_tournament,
    parse_family_spec,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck
from stlab.invariants import laplacian_energy, measure


class TestFnk:
    def test_residual_middle(self):
        g = gen_fnk(4, 3, 2)
        assert g.e == 9
        assert out_degree_sequence(g).values == (3, 3, 3, 0)
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

    def test_members_share_arc_count(self):
        for n, k in ((5, 3), (7, 3), (10, 4), (9, 3)):
            sizes = {g.e for g in enumerate_fnk_members(n, k)}
            assert sizes == {ex_arcs_ck(n, k).value}

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
        assert bundle.degseq.values == (2, 2, 2, 2)

    def test_digon_over_odd_block(self):
        bundle = measure(gen_bk([2, 3]))
        assert (bundle.le, bundle.m1, bundle.c2) == (44, 38, 6)
        assert bundle.degseq.values == (4, 4, 2, 1, 1)

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

    def test_members_share_energy(self):
        for n in range(1, 13):
            energies = {laplacian_energy(g) for g in enumerate_bk01_members(n)}
            assert energies == {ex_le_ck(n, 2).value}

    def test_f_n2_members_are_bk_members(self):
        assert gen_fnk(5, 2, 3) == gen_bk([2, 2, 1])
        assert gen_fnk(4, 2) == gen_bk([2, 2])


class TestDegenerateFamilies:
    def test_transitive_tournament(self):
        g = gen_transitive_tournament(3)
        assert laplacian_energy(g) == 5
        assert gen_transitive_tournament(1).e == 0
        seq = out_degree_sequence(gen_transitive_tournament(4))
        assert seq.values == (3, 2, 1, 0)

    def test_complete_digraph(self):
        assert gen_complete_digraph(3).e == 6
        assert gen_complete_digraph(2).e == 2
        assert gen_complete_digraph(1).e == 0


class TestSpecStrings:
    @pytest.mark.parametrize(
        "text",
        ["fnk:n=10,k=3,s=3", "fnk:n=6,k=3", "bk:parts=4+2+3", "tt:n=7", "kd:n=5"],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        assert format_family_spec(spec) == text
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
