"""Golden bytes of every rendering of every extracted graph.

`golden_graph_digests.json` holds the sha256 of `graphml_bytes`,
`gexf_bytes` and the decompressed `cache_bytes` JSON (gzip bytes may
vary with the zlib build) for the full graph and all 16 methods on two
synthetic databases. The digests were recorded when every method still
built its own full graph; here one `extract_each` pass serves them all,
as in the commands, and any change to how graphs are built or written
must keep them.
"""

import gzip
import hashlib
import json
from pathlib import Path

import pytest

from conftest import synthetic_database
from confront_net.extract import METHOD_CODES, ExtractionMethod, extract_each
from confront_net.normalize import merge_equal_objects
from confront_net.serialize import cache_bytes, gexf_bytes, graphml_bytes

HASH = "a" * 64
GOLDEN = Path(__file__).with_name("golden_graph_digests.json")
# (seed, k, threshold); threshold 1 lets RHW_all come back as the full
# graph itself.
CASES = ((3, 2, 4), (4, 1, 1))


def digests(g) -> list[str]:
    return [hashlib.sha256(data).hexdigest() for data in (
        graphml_bytes(g, HASH), gexf_bytes(g, HASH),
        gzip.decompress(cache_bytes(g, HASH)))]


def case_digests(seed: int, k: int, threshold: int) -> dict[str, list[str]]:
    db = merge_equal_objects(synthetic_database(seed))
    graphs = extract_each(db, [ExtractionMethod.from_code(
        code, k=k, component_threshold=threshold) for code in METHOD_CODES])
    return {label: digests(g)
            for label, g in zip(["full", *METHOD_CODES], graphs)}


@pytest.mark.parametrize("seed,k,threshold", CASES)
def test_graph_renderings_match_the_golden_digests(seed, k, threshold):
    key = f"seed{seed}_k{k}_t{threshold}"
    golden = json.loads(GOLDEN.read_text())[key]
    assert case_digests(seed, k, threshold) == golden
