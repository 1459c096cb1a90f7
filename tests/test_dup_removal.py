"""Algorithm 5's per-block sharing assignment
(:func:`oracle.sharing_assignment`), the reference the join's
whole-table duplicate-removal hits
(``repro.core.kernels._shared_hit_mask``) are checked against in
``tests/test_join_kernels.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import sharing_assignment


class TestSharingAssignment:
    def test_all_distinct(self):
        assert sharing_assignment([5, 6, 7]) == [0, 1, 2]

    def test_all_same(self):
        assert sharing_assignment([9, 9, 9, 9]) == [0, 0, 0, 0]

    def test_paper_figure9_pattern(self):
        # Figure 9: every row starts with v0 -> one warp reads, all share.
        addr = sharing_assignment([0, 0, 0, 0, 0])
        assert addr == [0] * 5

    def test_mixed(self):
        assert sharing_assignment([3, 4, 3, 5, 4]) == [0, 1, 0, 3, 1]

    def test_empty(self):
        assert sharing_assignment([]) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=100))
def test_property_first_occurrence_points_to_self(vertices):
    addr = sharing_assignment(vertices)
    for i, a in enumerate(addr):
        assert 0 <= a <= i
        assert vertices[a] == vertices[i]
        if a == i:
            # first occurrence: nothing before it holds this vertex
            assert vertices[i] not in vertices[:i]
