"""Invalid input that the other suites never send: each case names the
error type and the invariant that the message must state."""

import json
import re

import numpy as np
import pytest

from preord import (
    BudgetError, Morph, Partition, PreObj, Rel, Seq, ValidationError, assemble_preorder,
    chain, identity, identity_prekernel_test, join_preorders, load_morphism, load_object,
    make_object, open_sets, precokernel_witness, prekernel_witness, product,
    specialization_preorder, stable_eq_oracle, subset_mask, trivial_object,
)
from preord.cli import main
from preord.exactness import precokernel_property

C2 = chain(2)
TO_POINT = Morph(C2, trivial_object(1), (0, 0))


# ----------------------------------------------------------------------
# object and morphism files, through the loader and through the CLI

OBJECT_FILES = [
    ("[]", "object file must be a JSON object"),
    ('{"n": 2, "pairs": {}, "mode": "strict"}', "field 'pairs' must be a list"),
    ('{"n": 2, "pairs": [[true, 1]], "mode": "strict"}',
     "pair [True, 1] must be a two-integer list"),
    ('{"n": 3, "pairs": [[0, 1, 2]], "mode": "strict"}',
     "pair [0, 1, 2] must be a two-integer list"),
    ('{"n": 2, "pairs": [[0, 1], [0.0, 1]], "mode": "strict"}',
     "pair [0.0, 1] must be a two-integer list"),
    ('{"n": 2, "pairs": [[0, 1], [-1, 0]], "mode": "close"}',
     "pair (-1, 0) is not two points in range for n=2"),
    ('{"n": 2, "pairs": [[0, 1], [0, 2], [1, 5]], "mode": "strict"}',
     "pair (0, 2) is not two points in range for n=2"),
]


@pytest.mark.parametrize("text, why", OBJECT_FILES,
                         ids=["array", "pairs", "bool", "triple", "float", "negative", "range"])
def test_a_malformed_object_file_names_its_invariant(tmp_path, capsys, text, why):
    with pytest.raises(ValidationError, match=re.escape(why)):
        load_object(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {why}\n" and captured.out == ""


# pairs given in code rather than in a file: bools and numpy ints are
# integers, and the first pair that is not two points in range is named
@pytest.mark.parametrize("pairs, want", [
    ([(0, 1), (True, False)], [(0, 1), (1, 0)]),
    ([(np.int8(0), np.uint64(1))], [(0, 1)]),
], ids=["bool", "numpy-int"])
def test_integer_pairs_are_read(pairs, want):
    assert Rel.from_pairs(2, pairs).pair_list == want
    assert make_object(2, pairs).rel.pair_list == want


@pytest.mark.parametrize("pairs, why", [
    ([(0, 1), (0, 1.0)], "pair entries must be integers"),
    ([(0, 1), (-1, 0), (0, 1.0)], "pair (-1, 0) is not two points in range for n=2"),
    ([(0, 1), (0, 2), ("0", 1)], "pair (0, 2) is not two points in range for n=2"),
    ([(0, 1), (1,), (0, 1, 2)], "pair (1,) is not two points in range for n=2"),
], ids=["float", "negative", "range", "ragged"])
def test_the_first_bad_pair_is_named(pairs, why):
    for build in (Rel.from_pairs, make_object):
        with pytest.raises(ValidationError, match=re.escape(why)):
            build(2, pairs)


def test_a_map_entry_that_is_not_an_int_names_its_invariant(tmp_path, capsys):
    why = "field 'map' must be a list of integers"
    with pytest.raises(ValidationError, match=why):
        load_morphism('{"map": [0, 1.0]}', C2, C2)
    obj, good, bad = tmp_path / "c.json", tmp_path / "id.json", tmp_path / "bad.json"
    obj.write_text(json.dumps({"n": 2, "pairs": [[0, 1]], "mode": "strict"}))
    good.write_text('{"map": [0, 1]}')
    bad.write_text('{"map": [0, 1.0]}')
    assert main(["stable-eq", str(obj), str(obj), str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {why}\n" and captured.out == ""


# ----------------------------------------------------------------------
# objects, relations and partitions

def test_an_object_on_the_empty_carrier_is_rejected():
    with pytest.raises(ValidationError, match="objects must be non-empty"):
        PreObj(Rel(0, []))


def test_an_irreflexive_relation_is_not_an_object():
    with pytest.raises(ValidationError, match="object relation must be reflexive"):
        PreObj(Rel.empty(2))


def test_an_unknown_mode_is_named():
    with pytest.raises(ValidationError, match=r"unknown mode 'loose' \(expected 'strict' or"):
        make_object(2, [(0, 1)], mode="loose")


def test_the_product_of_no_objects_is_rejected():
    with pytest.raises(ValidationError, match="product of an empty family"):
        product([])


def test_a_join_needs_two_preorders():
    with pytest.raises(ValidationError, match="right argument is not a preorder"):
        join_preorders(Rel.identity(2), Rel.empty(2))


def test_partition_blocks_must_be_sorted():
    with pytest.raises(ValidationError, match="block members must be sorted"):
        Partition((0, 0), ((1, 0),))


def test_partition_blocks_must_come_by_smallest_member():
    with pytest.raises(ValidationError, match="blocks must be ordered by smallest member"):
        Partition((1, 0), ((1,), (0,)))


def test_assembly_needs_one_quotient_point_per_block():
    sim = Rel.identity(2)
    with pytest.raises(ValidationError,
                       match="quotient order size does not match block count"):
        assemble_preorder(sim, Rel.identity(3), Partition.from_equivalence(sim))


# ----------------------------------------------------------------------
# sequences and candidate (co)kernels whose ends do not meet

def test_sequence_legs_must_compose():
    with pytest.raises(ValidationError, match="sequence legs do not compose"):
        Seq(TO_POINT, identity(C2))


def test_a_candidate_prekernel_must_land_in_the_domain():
    with pytest.raises(ValidationError,
                       match="candidate prekernel must land in the domain of f"):
        prekernel_witness(identity(trivial_object(1)), TO_POINT)


def test_a_candidate_precokernel_must_start_at_the_codomain():
    why = "candidate precokernel must start at the codomain of f"
    with pytest.raises(ValidationError, match=why):
        precokernel_witness(identity(C2), TO_POINT)
    with pytest.raises(ValidationError, match=why):
        precokernel_property(identity(C2), TO_POINT, [trivial_object(1)], None, 10 ** 6)


def test_the_identity_prekernel_test_needs_one_carrier():
    with pytest.raises(ValidationError, match="relations live on different carriers"):
        identity_prekernel_test(Rel.identity(2), Rel.identity(3))


def test_the_identity_prekernel_test_needs_preorders():
    with pytest.raises(ValidationError, match="both relations must be preorders"):
        identity_prekernel_test(Rel.empty(2), Rel.identity(2))


def test_the_stable_oracle_needs_parallel_morphisms():
    with pytest.raises(ValidationError, match="stable equality needs parallel morphisms"):
        stable_eq_oracle(identity(C2), TO_POINT)


# ----------------------------------------------------------------------
# subsets and open sets

def test_a_subset_index_must_lie_on_the_carrier():
    with pytest.raises(ValidationError, match="index 3 out of range for n=3"):
        subset_mask(3, [0, 3])


def test_open_sets_beyond_their_cap_are_a_budget_error():
    with pytest.raises(BudgetError, match="open-set scan capped at n <= 16"):
        open_sets(chain(17))


def test_an_open_set_mask_must_cover_the_carrier():
    with pytest.raises(ValidationError, match="open set mask has wrong length"):
        specialization_preorder(3, [np.zeros(3, dtype=bool), np.ones(2, dtype=bool)])
