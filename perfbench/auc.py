"""Count-based Mann-Whitney AUC of a score table on a split.

This is the benchmark's own AUC, made apart from the program: it never
lists the candidate universe. The universe of a split holds every
unobserved old-old triple between training nodes, |L|*C(|V|,2) - |E_train|
of them on an undirected graph (|L|*|V|*(|V|-1) - |E_train| on a directed
one), plus |V|*|L| old-new candidates (u, NEW, l). Candidates the table
does not list score its baseline, so only the listed ones and two counts
are needed. Ties count one half, as in the program's ROC.
"""

from __future__ import annotations

import numpy as np


def _pairs_below(pos: np.ndarray, neg_sorted: np.ndarray) -> float:
    """Sum over positives of #(neg < p) + #(neg == p) / 2."""
    lo = np.searchsorted(neg_sorted, pos, side="left")
    hi = np.searchsorted(neg_sorted, pos, side="right")
    return float(lo.sum()) + 0.5 * float((hi - lo).sum())


def split_auc(oldold: dict, oldnew: dict, baseline: float, nodes, layers,
              train_edges: set, test_edges, directed: bool) -> float:
    nodes = set(nodes)
    layers = set(layers)
    n_v, n_l = len(nodes), len(layers)
    ordered_pairs = n_v * (n_v - 1) if directed else n_v * (n_v - 1) // 2

    def slot(u, v, l) -> bool:
        return (u in nodes and v in nodes and u != v and l in layers
                and (directed or u < v))

    n_oldold = n_l * ordered_pairs - sum(1 for e in train_edges if slot(*e))
    n_cand = n_oldold + n_v * n_l
    pos_keys = set()
    for u, v, l in test_edges:
        if not directed and u > v:
            u, v = v, u
        if slot(u, v, l) and (u, v, l) not in train_edges:
            pos_keys.add(("oo", u, v, l))
        elif u in nodes and v not in nodes:
            pos_keys.add(("on", u, l))
        elif v in nodes and u not in nodes:
            pos_keys.add(("on", v, l))
    scored = {("oo",) + k: s for k, s in oldold.items()
              if slot(*k) and k not in train_edges}
    scored.update({("on",) + k: s for k, s in oldnew.items() if k[0] in nodes and k[1] in layers})
    n_pos = len(pos_keys)
    n_neg = n_cand - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"need both positives and negatives (P={n_pos}, N={n_neg})")
    pos_scores = np.array([scored.get(k, baseline) for k in pos_keys], dtype=float)
    neg_scored = np.sort(np.array([s for k, s in scored.items() if k not in pos_keys], dtype=float))
    n_neg_baseline = n_neg - len(neg_scored)
    wins = _pairs_below(pos_scores, neg_scored)
    wins += n_neg_baseline * (float(np.sum(pos_scores > baseline))
                              + 0.5 * float(np.sum(pos_scores == baseline)))
    return wins / (n_pos * n_neg)
