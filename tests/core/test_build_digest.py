"""Golden digests: construction output is pinned byte for byte.

The sha256 of ``to_bytes()`` after a degree-order build, for both index
kinds, on the two small graphs perfbench's ``--tiny`` runs use (the
wiki-talk-style generator and the transaction network, generator seed
1).  A change to the construction kernel that alters any entry, count,
canonical flag or entry order changes the digest; one that only makes
it faster does not.
"""

import hashlib

import pytest

from repro.core.csc import CSCIndex
from repro.graph.datasets import DATASETS
from repro.labeling.hpspc import HPSPCIndex
from repro.workloads.fraud import make_transaction_network

GRAPHS = {
    "wkt": lambda: DATASETS["WKT"].builder(300, 630, 1),
    "fraud": lambda: make_transaction_network(
        n=200, m=900, rings=5, seed=1
    ).graph,
}

DIGESTS = {
    ("wkt", CSCIndex):
        "46dc61e5a28a5692fcc0e2abc588e96b46270f659d29309037ce68dbafed9ba7",
    ("wkt", HPSPCIndex):
        "039b70a0f77f133f32afdecbd3e0af516150da57a69c09b3749db0dbc6142b76",
    ("fraud", CSCIndex):
        "dda14aa235b6993c06e7dc689d35fc66bd14d2bfb8809baa887348e4fd9244c7",
    ("fraud", HPSPCIndex):
        "61eb0c2d007065e9dc71d9f399dc5dd777c7a3833a1f69902b5be921c4c146c5",
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return request.param, GRAPHS[request.param]()


@pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                         ids=["csc", "hpspc"])
def test_build_bytes_match_golden_digest(graph, kind):
    name, g = graph
    digest = hashlib.sha256(kind.build(g).to_bytes()).hexdigest()
    assert digest == DIGESTS[name, kind]
