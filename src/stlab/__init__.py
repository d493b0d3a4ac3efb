"""stlab: exact extremal analysis of digraph Laplacian energy under forbidden directed cycles."""

from stlab.claims import TAGS, ClaimRow, verify_theorem
from stlab.cycles import CycleWitness, find_cycle_of_length, is_ck_free
from stlab.digraph import (
    MAX_VERTICES,
    Digraph,
    build_digraph,
    digon_count,
    in_rows,
    is_weakly_connected,
    out_degree_sequence,
    permute,
)
from stlab.families import (
    FamilySpec,
    bk01_compositions,
    build_family,
    enumerate_bk01_members,
    enumerate_fnk_members,
    family_blocks,
    gen_bk,
    gen_complete_digraph,
    gen_fnk,
    gen_transitive_tournament,
    parse_family_spec,
)
from stlab.formulas import (
    ExactValue,
    ex_arcs_ck,
    ex_arcs_clique,
    ex_arcs_complete_digraph,
    ex_arcs_tournament,
    ex_le_ck,
    ex_le_cubic,
    ex_m1_c3,
)
from stlab.invariants import (
    InvariantBundle,
    c2,
    first_zagreb,
    laplacian_energy,
    laplacian_matrix,
    measure,
    trace_L_squared,
)
from stlab.majorization import verify_fnk_ordering
from stlab.search import (
    CanonicalForm,
    ExtremalSearchReport,
    are_isomorphic,
    canonical_label,
    search_extremal,
)

__version__ = "0.1.0"
