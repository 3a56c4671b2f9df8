"""In-memory span tracer that wraps pckad's public functions from outside.

Callers inside the package import functions by name (`from .chunking import
extract_ngrams`), so a wrapper is bound wherever the original object is
looked up: in the `pckad` package and every one of its modules. Each span
stores a name, start, end and parent index in flat arrays; generator
functions get one span per resumption. Self time is a span's duration minus
the duration of its direct children, which never overlap because the run is
single-threaded and synchronous.
"""

from __future__ import annotations

import gc
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

from pckad import mahalanobis_term

# (module, function) pairs traced at the layer boundaries, as `layer.function`
TRACED = (
    ("corpus", "read_jsonl"),
    ("corpus", "read_pcap"),
    ("protocols", "extract_relevant"),
    ("chunking", "split_chunks"),
    ("chunking", "extract_ngrams"),
    ("model", "train"),
    ("model", "save_model"),
    ("model", "load_model"),
    ("detector", "detect_stream"),
    ("detector", "score_packet"),
    ("detector", "anomalous_occurrences"),
    ("detector", "verdict_line"),
    ("evaluate", "evaluate"),
    ("evaluate", "sweep"),
    ("evaluate", "write_sweep_csv"),
)


class SpanLog:
    """Flat arrays of spans; index i is span i."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = array("d", bytes(8 * len(self.start)))
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0.0)
        names, name = self.names, self.name
        for i in range(len(start)):
            out[names[name[i]]] += end[i] - start[i] - child[i]
        return out

    def total(self, name: str) -> float:
        nid = self._ids.get(name)
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.name[i] == nid)

    def write(self, stem) -> None:
        """Write the spans as `<stem>.json` (layout) and `<stem>.bin` (arrays)."""
        arrays = (self.name, self.parent, self.start, self.end)
        with open(f"{stem}.bin", "wb") as f:
            for arr in arrays:
                arr.tofile(f)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as f:
            json.dump(layout, f)


class Tracer:
    """Wraps the TRACED functions while installed and counts work at their boundaries."""

    def __init__(self, scoring_step: str):
        self.log = SpanLog()
        self.counts: dict[str, float] = {}
        self.scoring_keys: set = set()
        self.scoring_step = scoring_step  # step whose scoring calls count as featurizations
        self._step = None
        self._step_serial = 0
        self._scoring_key = None
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = None

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def step(self, name: str):
        """Benchmark step span; scoring calls inside `scoring_step` feed featurize_per_packet."""
        outer, self._step = self._step, name
        self._step_serial += 1
        try:
            with self.log.span("bench." + name):
                yield
        finally:
            self._step = outer

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "pckad" or name.startswith("pckad.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["pckad." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.add("python.gc_s", time.perf_counter() - self._gc_start)
            self.add("python.gc_collections")
            self._gc_start = None

    def _wrap(self, name: str, fn):
        log, nid = self.log, self.log.name_id(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = log.open(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            log.close(idx)
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = log.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    # --- counters taken at the boundaries --------------------------------------

    def _before_detector_score_packet(self, model, record, cfg):
        if self._step == self.scoring_step:
            self._scoring_key = (
                self._step_serial, record.id, model.chunking.n, model.chunking.chunk_len
            )

    def _after_detector_score_packet(self, result, *args):
        self._scoring_key = None

    def _after_chunking_extract_ngrams(self, counts, relevant, layout, cfg):
        self.add("chunking.occurrences", counts.tot_seqs)
        self.add("chunking.distinct_grams", len(counts.payload_counts))
        if self._scoring_key is not None:
            self.add("scoring_featurizations")
            self.scoring_keys.add(self._scoring_key)

    def _before_detector_anomalous_occurrences(self, stats, x_total, x_chunks, cfg, alpha):
        self.add("detector.anomalous_occurrences.calls")
        if (stats is not None and cfg.chunks_enabled
                and not mahalanobis_term(stats.mean, stats.std, x_total, alpha) > cfg.th_s):
            self.add("chunk_rule_reached")

    def _after_model_train(self, model, *args, **kwargs):
        self.add("train_read", model.summary.read)
        self.add("train_trained", model.summary.trained)

    def _after_detector_verdict_line(self, line, record_id, verdict):
        self.add("detector.verdicts." + verdict.kind)
