"""Tests for the sparse Bonsai Merkle tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IntegrityError
from repro.crypto import MerkleTree


def small_tree():
    return MerkleTree(arity=2, height=3)  # 8 leaves


def test_empty_tree_has_stable_root():
    assert MerkleTree(arity=2, height=3).root == small_tree().root


def test_update_changes_root():
    tree = small_tree()
    before = tree.root
    tree.update_leaf(0, b"value")
    assert tree.root != before


def test_update_then_verify():
    tree = small_tree()
    tree.update_leaf(3, b"hello")
    assert tree.verify_leaf(3, b"hello")
    assert not tree.verify_leaf(3, b"tampered")


def test_unwritten_leaf_verifies_as_empty():
    tree = small_tree()
    tree.update_leaf(1, b"x")
    # Leaf 2 was never written; a forged value must not verify.
    assert not tree.verify_leaf(2, b"forged")


def test_same_leaves_same_root_regardless_of_order():
    t1, t2 = small_tree(), small_tree()
    t1.update_leaf(0, b"a")
    t1.update_leaf(5, b"b")
    t2.update_leaf(5, b"b")
    t2.update_leaf(0, b"a")
    assert t1.root == t2.root


def test_leaf_index_bounds():
    tree = small_tree()
    with pytest.raises(IntegrityError):
        tree.update_leaf(8, b"x")
    with pytest.raises(IntegrityError):
        tree.update_leaf(-1, b"x")


def test_bad_shape_rejected():
    with pytest.raises(IntegrityError):
        MerkleTree(arity=1, height=3)
    with pytest.raises(IntegrityError):
        MerkleTree(arity=2, height=0)


def test_snapshot_restore():
    tree = small_tree()
    tree.update_leaf(0, b"a")
    snap = tree.snapshot()
    tree.update_leaf(0, b"b")
    tree.restore(snap)
    assert tree.verify_leaf(0, b"a")


def test_paper_height_nine_tree_is_cheap_to_touch():
    tree = MerkleTree(arity=8, height=9)
    assert tree.leaf_capacity == 8 ** 9
    tree.update_leaf(123_456_789, b"deep")
    assert tree.verify_leaf(123_456_789, b"deep")


@settings(max_examples=25)
@given(writes=st.lists(
    st.tuples(st.integers(0, 7), st.binary(min_size=1, max_size=16)),
    min_size=1, max_size=12))
def test_last_write_per_leaf_always_verifies(writes):
    tree = small_tree()
    final = {}
    for index, value in writes:
        tree.update_leaf(index, value)
        final[index] = value
    for index, value in final.items():
        assert tree.verify_leaf(index, value)
