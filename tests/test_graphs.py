import pytest

from treeagg.graphs import Graph


class TestFromEdges:
    @pytest.mark.parametrize(
        "edges",
        # the first edge's endpoint is past the end, but the last sorted
        # edge's is not; a negative endpoint would wrap in numpy indexing
        [[(0, 9), (1, 2)], [(-1, 2)], [(0, 5)]],
        ids=["above-not-last", "negative", "above-last"],
    )
    def test_endpoint_out_of_range_raises(self, edges):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(5, edges)

    def test_self_loop_raises(self):
        with pytest.raises(ValueError, match="self-loop on node 2"):
            Graph.from_edges(5, [(0, 1), (2, 2)])

    def test_edges_sorted_and_deduplicated(self):
        g = Graph.from_edges(4, [(3, 1), (0, 2), (1, 3), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
