"""Plain reference scorer and verdict folds used to check benchmark outputs.

The reference re-derives each verdict from `sliding_window_oracle` and
`mahalanobis_term` alone: no chunk layout, no `extract_ngrams`, no
`score_packet`. It follows the paper's semantics: ceiling chunk counts,
first-byte chunk attribution, and strict `>` comparisons.
"""

from __future__ import annotations

import json
from collections import Counter

from pckad import Malformed, extract_relevant, mahalanobis_term, sliding_window_oracle

ALERTS = ("anomalous", "malformed", "no_model")


def _chunk_counts(comp: bytes, base: int, n: int, chunk_len: int) -> dict[bytes, Counter]:
    """Per-gram chunk counts: each window belongs to the chunk of its first byte."""
    per_gram: dict[bytes, Counter] = {}
    for k, start in enumerate(range(0, len(comp), chunk_len)):
        # windows starting inside chunk k may run up to n-1 bytes past its end
        for gram, x in sliding_window_oracle(comp[start:start + chunk_len + n - 1], n).items():
            per_gram.setdefault(gram, Counter())[base + k] += x
    return per_gram


def reference_verdict(model, payload: bytes, score_threshold: float) -> dict:
    """Verdict kind, score, a_seqs and tot_seqs for one on-port packet, chunks on."""
    none = {"score": None, "a_seqs": None, "tot_seqs": None}
    if not payload:
        return {"verdict": "unclassifiable", **none}
    relevant = extract_relevant(model.protocol, payload)
    if isinstance(relevant, Malformed):
        return {"verdict": "malformed", **none}
    n, chunk_len = model.chunking.n, model.chunking.chunk_len
    totals: Counter = Counter()
    chunks: dict[bytes, Counter] = {}
    nck = 0
    for comp in relevant.components:
        totals.update(sliding_window_oracle(comp, n))
        for gram, per_chunk in _chunk_counts(comp, nck, n, chunk_len).items():
            chunks.setdefault(gram, Counter()).update(per_chunk)
        nck += -(-len(comp) // chunk_len)
    tot = sum(totals.values())
    if tot == 0:
        return {"verdict": "unclassifiable", **none}
    cls = model.classes.get((model.port, nck))
    if cls is None:
        return {"verdict": "no_model", **none}
    alpha, th_s = model.alpha, model.th_s
    a_seqs = 0
    for gram, x in totals.items():
        st = cls.stats.get(gram)
        if st is None or mahalanobis_term(st.mean, st.std, x, alpha) > th_s:
            a_seqs += x
            continue
        for j, xj in chunks[gram].items():
            mean, std = st.chunks.get(j, (0.0, 0.0))
            if mahalanobis_term(mean, std, xj, alpha) > th_s:
                a_seqs += xj
    score = a_seqs / tot * 100.0
    kind = "anomalous" if score > score_threshold else "legit"
    return {"verdict": kind, "score": score, "a_seqs": a_seqs, "tot_seqs": tot}


def check_sample(model, test_records, alert_lines: list[str], sample: list[int],
                 score_threshold: float) -> list[str]:
    """Rescore the sampled test records; one message per mismatching packet."""
    problems = []
    for i in sample:
        want = reference_verdict(model, test_records[i].payload, score_threshold)
        got = json.loads(alert_lines[i])
        for key in ("verdict", "a_seqs", "tot_seqs", "score"):
            if got.get(key) != want[key]:
                problems.append(f"record {i}: {key} is {got.get(key)!r}, reference {want[key]!r}")
                break
    return problems


def fold_dr_fpr(kinds: list[str], labels: list[str]) -> dict:
    """DR per attack instance and FPR per classifiable legit packet."""
    detected: dict[str, bool] = {}
    legit = false_alerts = 0
    for kind, label in zip(kinds, labels):
        if label.startswith("attack:"):
            inst = label[len("attack:"):]
            detected[inst] = detected.get(inst, False) or kind in ALERTS
        elif kind != "unclassifiable":
            legit += 1
            false_alerts += kind in ALERTS
    return {
        "dr": sum(detected.values()) / len(detected) * 100.0 if detected else None,
        "fpr": false_alerts / legit * 100.0 if legit else None,
        "instances": len(detected),
        "detected": sum(detected.values()),
        "legit_packets": legit,
        "false_alerts": false_alerts,
    }
