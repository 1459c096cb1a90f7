"""Tour of the four graph storage structures (paper Section IV).

Builds CSR, Basic Representation, Compressed Representation, and PCSR
over the same graph and shows the Table II trade-off live: transactions
per N(v, l) extraction versus total space.

Run:  python examples/storage_structures_tour.py
"""

import numpy as np

from repro.graph.datasets import dbpedia_like
from repro.storage import PCSRStorage, build_storage, storage_kinds


def probe_transactions(store, probes):
    """Locate + read transactions of each ``(v, l)`` probe: one
    ``gather`` per label reads all of that label's lists at once."""
    out = np.zeros(len(probes), dtype=np.int64)
    for label in {l for _, l in probes}:
        at = [i for i, (_, l) in enumerate(probes) if l == label]
        got = store.gather(np.array([probes[i][0] for i in at]), label)
        out[at] = got.locate + got.read
    return out


def main() -> None:
    graph = dbpedia_like()
    print(f"graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"|LE|={len(graph.distinct_edge_labels())}")
    print()

    rng = np.random.default_rng(1)
    labels = graph.distinct_edge_labels()
    probes = [(int(rng.integers(graph.num_vertices)),
               labels[int(rng.integers(len(labels)))])
              for _ in range(500)]
    hub = max(range(graph.num_vertices), key=graph.degree)
    hub_label = max(labels,
                    key=lambda l: len(graph.neighbors_by_label(hub, l)))

    print(f"{'structure':<12} {'avg tx':>8} {'hub tx':>8} "
          f"{'space (words)':>14}")
    for kind in storage_kinds():
        store = build_storage(kind, graph)
        avg_tx = probe_transactions(store, probes).mean()
        hub_tx = probe_transactions(store, [(hub, hub_label)])[0]
        print(f"{kind:<12} {avg_tx:8.2f} {hub_tx:8d} "
              f"{store.space_words():14d}")

    # The structures are interchangeable: identical answers.
    stores = [build_storage(kind, graph) for kind in storage_kinds()]
    for v, l in probes[:50]:
        answers = [tuple(sorted(int(x) for x in s.neighbors(v, l)))
                   for s in stores]
        assert len(set(answers)) == 1
    print("\nall four structures agree on N(v, l) for 50 random probes")

    # PCSR internals: hash-group health.
    pcsr = PCSRStorage(graph, gpn=16)
    print(f"PCSR longest overflow chain: {pcsr.max_chain_length()} "
          f"(paper: <= 3 expected, 1 observed with GPN=16)")


if __name__ == "__main__":
    main()
