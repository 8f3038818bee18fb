"""Relations between the 16 variants that need no oracle.

Each variant is built from three flags and a scope, so some variants
nest inside others:

- R ⊆ E: an E variant adds Additional edges to its R twin, which can
  only merge components, so the R variant's vertices and edge keys are
  among the E variant's;
- F ⊆ H for the `_all` variants: dropping hierarchical edges can only
  split components and shrink a split object's span of segments;
- at k = 0 the top-k scope splits nothing, so `RFW_k` is `RFW_streets`
  and `EFW_k` is `EFW_streets`, vertex order included;
- on the smaller graph's pairs, the larger graph's hop count is never
  larger, as it has every path the smaller one has.

Extractions that `MissingSegments` blocks (a street without segments
among the k longest) are skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generated_register, hop_matrix, synthetic_database
from confront_net.data_model import load_database
from confront_net.errors import MissingSegments
from confront_net.extract import (METHOD_CODES, ExtractionMethod,
                                  extract_each)
from confront_net.normalize import merge_equal_objects

# (smaller, larger) pairs of method codes.
R_IN_E = [(code, "E" + code[1:]) for code in METHOD_CODES
          if code.startswith("R")]
F_IN_H = [(code, code[0] + "H" + code[2:]) for code in METHOD_CODES
          if code[1] == "F" and code.endswith("_all")]
SAME_AT_K0 = [("RFW_k", "RFW_streets"), ("EFW_k", "EFW_streets")]


def variants(db, k, threshold):
    """Each method code's variant of `db` at `k` and `threshold`, less
    the ones that `MissingSegments` blocks."""
    graphs = {}
    for code in METHOD_CODES:
        method = ExtractionMethod.from_code(code, k=k,
                                            component_threshold=threshold)
        try:
            _, graphs[code] = extract_each(db, [method])
        except MissingSegments:
            pass
    return graphs


def assert_nested(small, large, where):
    """`small`'s vertices and edge keys are among `large`'s, and no pair
    of `small`'s vertices is farther apart in `large`."""
    assert set(small.vertex_ids()) <= set(large.vertex_ids()), where
    keys = {e.key() for e in large.edges}
    assert all(e.key() in keys for e in small.edges), where
    index = large.vertex_index()
    idx = np.array([index[v] for v in small.vertex_ids()], dtype=np.intp)
    within = hop_matrix(large)[np.ix_(idx, idx)]
    assert (within <= hop_matrix(small)).all(), where


def assert_relations(db, k, threshold):
    graphs = variants(db, k, threshold)
    for small, large in R_IN_E + F_IN_H:
        if small in graphs and large in graphs:
            assert_nested(graphs[small], graphs[large],
                          (small, large, k, threshold))
    if k == 0:
        for top_k, streets in SAME_AT_K0:
            assert graphs[top_k] == graphs[streets], (top_k, threshold)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 63), st.sampled_from((0, 3)),
       st.sampled_from((1, 4, 25)))
def test_variants_nest_on_synthetic_registers(seed, k, threshold):
    assert_relations(merge_equal_objects(synthetic_database(seed)), k,
                     threshold)


@pytest.mark.parametrize("k,threshold", [(0, 1), (0, 25), (7, 25)])
def test_variants_nest_on_the_generated_register(tmp_path, k, threshold):
    db = merge_equal_objects(load_database(*generated_register(tmp_path)))
    assert_relations(db, k, threshold)
