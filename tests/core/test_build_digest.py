"""Golden digests: construction and maintenance output is pinned byte
for byte.

The sha256 of ``to_bytes()`` after a degree-order build, for both index
kinds, on the two small graphs perfbench's ``--tiny`` runs use (the
wiki-talk-style generator and the transaction network, generator seed
1).  A change to the construction kernel that alters any entry, count,
canonical flag or entry order changes the digest; one that only makes
it faster does not.

The maintenance digests pin INCCNT and DECCNT the same way: a fixed,
seeded stream of edge insertions and then deletions runs through
:func:`repro.core.maintenance.insert_edge` /
:func:`repro.core.maintenance.delete_edge` under both strategies, and the
pinned value is the digest of ``to_bytes()`` after the insertions and
after the whole stream, plus the total ``repair_bfs_count`` of the
stream.  (Deletion repair rebuilds whole hub fingerprints, which on
``wkt`` scrubs every trace of the strategy, so the post-insertion digest
is what tells the two strategies apart there.)

Two full-size graphs are pinned too, the ones perfbench's screen and
churn workloads start from: their BFSes run many levels deep, where
the small graphs' hub maps rarely reach past the level being searched.
"""

import hashlib
import random

import pytest

from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
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


MAINTENANCE_DIGESTS = {
    ("fraud", CSCIndex, "redundancy"): (
        "35163a8128ed54b994228e783aae7ba17c7fd16787f10ec5d0218fd7442d1223",
        "06be4b8c33dc94fa64684c92fdc3fdfee12113623fa3dad36bb8afaa7e451fa3",
        531,
    ),
    ("fraud", CSCIndex, "minimality"): (
        "d865580db49535239c2ece8f954aa0d8c2e0309677c0541a1666c0ddd2238a5b",
        "233d701f31141a9e5f5541d823367e7d169a20c86f24ac239877ca7059fc0b95",
        531,
    ),
    ("fraud", HPSPCIndex, "redundancy"): (
        "acdf4b8ef18ad39a4366101840df4c57910eb6e8c3850ae652f4973b3434ff38",
        "db772a306e695920e939fca2c43a3fca3c8ef6785c644dd953f5abe80c0fb00e",
        529,
    ),
    ("fraud", HPSPCIndex, "minimality"): (
        "02f59a2fd6536570f9e59e2a894af9e4abb906581264dddfa95263c10a085f9b",
        "4293ae1c0f2eaa160707059dbe41f0d53a0a6887db9168eaf91723b96aa57ac6",
        529,
    ),
    ("wkt", CSCIndex, "redundancy"): (
        "53b144d1966f2ca3335a1089889fbb7e3dbfdf57347b0dca235a44bbe1de85fa",
        "efdec0278d6d790c7621db82197f649b564449cbaf29b33ec2f2af5a1db111f5",
        1196,
    ),
    ("wkt", CSCIndex, "minimality"): (
        "ab22be257a874c61b21499555d95dfbd83c74346c1a45ab8601e0bda85bc5c38",
        "efdec0278d6d790c7621db82197f649b564449cbaf29b33ec2f2af5a1db111f5",
        1196,
    ),
    ("wkt", HPSPCIndex, "redundancy"): (
        "f770875864973f40e5a3df41abaf649559a6fdc2ad79e314b0c8cfe426684efe",
        "053bfc32c55421caf5f68084ce0b9bd5de3d3a7cc8b81224530fc6cfb89d10f1",
        1195,
    ),
    ("wkt", HPSPCIndex, "minimality"): (
        "a5fdf137582e6c2698e483a0ff0ad8c2d15cb83e0217b6726bd6c0e567d50b33",
        "053bfc32c55421caf5f68084ce0b9bd5de3d3a7cc8b81224530fc6cfb89d10f1",
        1195,
    ),
}


def update_stream(g, seed=24, inserts=12, deletes=6):
    """``(insertions, deletions)``: ``inserts`` random non-edges, then
    ``deletes`` edges drawn from the graph they leave behind."""
    rng = random.Random(seed)
    ins: list[tuple[int, int]] = []
    while len(ins) < inserts:
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        if a != b and not g.has_edge(a, b) and (a, b) not in ins:
            ins.append((a, b))
    dels = rng.sample(sorted(set(g.edges()) | set(ins)), deletes)
    return ins, dels


@pytest.mark.parametrize("strategy", ["redundancy", "minimality"])
@pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                         ids=["csc", "hpspc"])
def test_maintenance_bytes_match_golden_digest(graph, kind, strategy):
    name, g = graph
    g = g.copy()
    index = kind.build(g)
    ins, dels = update_stream(g)
    repair_bfs = 0
    for a, b in ins:
        repair_bfs += insert_edge(index, a, b, strategy).repair_bfs_count
    inserted = hashlib.sha256(index.to_bytes()).hexdigest()
    for a, b in dels:
        repair_bfs += delete_edge(index, a, b).repair_bfs_count
    digest = hashlib.sha256(index.to_bytes()).hexdigest()
    assert (inserted, digest, repair_bfs) == MAINTENANCE_DIGESTS[
        name, kind, strategy
    ]


#: The full-size graphs perfbench's screen and churn workloads start
#: from, digests recorded before the level-synchronous BFS.
FULL_GRAPHS = {
    "wkt-5000": lambda: DATASETS["WKT"].builder(5000, 10500, 1),
    "fraud-1000": lambda: make_transaction_network(
        n=1000, m=4500, rings=30, seed=1
    ).graph,
}

FULL_DIGESTS = {
    ("wkt-5000", CSCIndex):
        "6345182b37db6cbac3035a77da90e6191852d2944a8567d3e1d1737e50359cd4",
    ("wkt-5000", HPSPCIndex):
        "227111b0549a72c86b9e19de4020e6a7219016791a258690fab7a4345c5d4505",
    ("fraud-1000", CSCIndex):
        "a7143bde184cd386e8667d5be1b2bfbad5d44830df6a79bc076360454c3bf488",
    ("fraud-1000", HPSPCIndex):
        "358c3f4873e1c5ef85e16cbcb05e5cbec799558265cf138c9194e4cffaf9b994",
}


@pytest.mark.parametrize("name", sorted(FULL_GRAPHS))
def test_full_size_build_bytes_match_golden_digest(name):
    g = FULL_GRAPHS[name]()
    for kind in (CSCIndex, HPSPCIndex):
        digest = hashlib.sha256(kind.build(g).to_bytes()).hexdigest()
        assert digest == FULL_DIGESTS[name, kind], kind.__name__
