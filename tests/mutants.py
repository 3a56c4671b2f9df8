"""Semantic mutants of pckad, each of which tier-1 must fail.

A mutant is a deliberate error in the paper's semantics or in a check,
written as exact text edits: each row of MUTANTS is (name, file, old text,
new text), and the rows that share a name make one mutant. The runner
copies the repository to a temporary directory, checks that the unmutated
copy passes tier-1, and then, one mutant at a time, applies its edits, runs
tier-1 with -x and restores the files. It refuses an edit whose old text
does not occur exactly once in its file, so a refactor that moves a rule's
text fails here until its rows are updated in the same change; tier-1's
`tests/test_mutants.py` makes that check in well under a second.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

It prints a kill table, and exits 1 if a mutant survives or an edit no
longer applies (2 if the unmutated copy fails). Pytest does not collect
this file: its name has no test_ prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHUNKING = "src/pckad/chunking.py"
MODEL = "src/pckad/model.py"
DETECTOR = "src/pckad/detector.py"
EVALUATE = "src/pckad/evaluate.py"
CORPUS = "src/pckad/corpus.py"

# the deviation test of rules 2 and 3: training prunes by it, the Scorer builds judge's
# sets by it, and judge decides the n-grams that repeat by it
DEVIATES = "return abs(mean - x) / (std + alpha) > th_s"
PER_GRAM_RULE_2 = "if mahalanobis_term(mean, std, x_total, alpha) > th_s:"
PER_GRAM_RULE_3 = "if mahalanobis_term(mean, std, x, alpha) > th_s:"


def _ge(text: str) -> str:
    return text.replace("> th_s", ">= th_s")


# (name, file, old text, new text)
MUTANTS = [
    # featurize is the one statement of the class rule, read from the relevant length
    ("floor chunk count", MODEL,
     "ClassKey(port, -(-len(part) // chunking.chunk_len))",
     "ClassKey(port, len(part) // chunking.chunk_len)"),
    # chunk_windows is the one attribution: training and judge's sets and counts move together
    ("last-byte attribution", CHUNKING,
     "return [grams[start:start + chunk_len] for start in range(0, len(grams), chunk_len)]",
     "return [grams[max(start + 1 - n, 0):start + 1 - n + chunk_len]"
     " for n in [len(grams[0]) if grams else 1] for start in range(0, len(grams) + n - 1, chunk_len)]"),
    ("sample std", MODEL,
     "return s1 / k, math.sqrt((k * s2 - s1 * s1) / (k * k))",
     "return s1 / k, math.sqrt((k * s2 - s1 * s1) / (k * max(k - 1, 1)))"),
    # add counts a sample in one of two forms, each with one statement per running sum that
    # serves the payload's list and every chunk's; only a weighted repeat shows the first row
    ("weighted s2 as (w*x)^2", MODEL,
     "extra.get(gram, 0) + wx * (x - 1)", "extra.get(gram, 0) + wx * (wx - 1)"),
    ("the repeats' excess written as w*x*x", MODEL,
     "extra.get(gram, 0) + wx * (x - 1)", "extra.get(gram, 0) + wx * x"),
    ("distinct windows counted whole in each chunk", MODEL,
     "Counter.update(s1, windows)", "Counter.update(s1, grams)"),
    ("a weighted distinct sample counted as w = 1", MODEL,
     "if w == 1 and distinct_windows(grams)[1]:", "if distinct_windows(grams)[1]:"),
    ("repeats at w = 1 counted without their excess", MODEL,
     "if w == 1 and distinct_windows(grams)[1]:", "if w == 1:"),
    # training and judge share the one test of a repeated window
    ("one repeated window taken for none", CHUNKING,
     "return distinct, len(distinct) == len(grams)",
     "return distinct, len(distinct) >= len(grams) - 1"),
    ("chunk tables shifted one list", MODEL,
     "enumerate(self.sums[1:])", "enumerate(self.sums[:-1])"),
    # one test serves rules 2 and 3, pruning and judge's sets and repeats alike
    (">= in the deviation test", MODEL, DEVIATES, _ge(DEVIATES)),
    (">= for the score threshold", DETECTOR,
     "return self.a_seqs(cfg) / self.tot_seqs * 100.0 > cfg.score_threshold",
     "return self.a_seqs(cfg) / self.tot_seqs * 100.0 >= cfg.score_threshold"),
    ("one-sided deviation", MODEL, DEVIATES, "return (x - mean) / (std + alpha) > th_s"),
    ("alpha as a floor", MODEL, DEVIATES, "return abs(mean - x) / max(std, alpha) > th_s"),
    # judge's call for rule 3 passes the chunk count; the payload count differs whenever a
    # repeated n-gram occurs in more than one chunk
    ("rule 3 at the payload count", DETECTOR,
     "if deviates(mean, std, x, alpha, th_s):", "if deviates(mean, std, repeats[gram], alpha, th_s):"),
    # an n-gram that occurs once has one occurrence to count, so only the repeats change
    ("an unseen n-gram counted once", DETECTOR,
     "stats = by_gram.get(gram)\n",
     "stats = by_gram.get(gram)\n            a_off -= (x - 1) * (stats is None)\n"),
    # a repeated n-gram judged by the sets too, once over the payload or once in each chunk
    ("repeats left in the payload's sets", DETECTOR, "once.difference_update(repeats)", "pass"),
    ("repeats left in the chunks' sets", DETECTOR,
     "in_chunks = [[w for w in windows if w not in repeats] for windows in in_chunks]", "pass"),
    ("DR per packet", EVALUATE,
     "detected[instance] = detected.get(instance, False) or alert",
     "detected[len(detected)] = alert"),
    ("unclassifiable packets in the FPR", EVALUATE,
     "elif outcome.kind == UNCLASSIFIABLE:", "elif False:"),
    # evaluate and sweep fold each distinct (instance, payload) group, weighted by its packets
    ("fold counts a group once", EVALUATE, "legit_packets += packets", "legit_packets += 1"),
    ("false alerts unweighted", EVALUATE,
     "false_alerts += alert * packets", "false_alerts += alert"),
    ("chunks-off reading a_on", DETECTOR,
     "return self.a_on if cfg.chunks_enabled else self.a_off", "return self.a_on"),
    ("no_model not alerting", DETECTOR,
     "ALERT_KINDS = frozenset({ANOMALOUS, MALFORMED, NO_MODEL})",
     "ALERT_KINDS = frozenset({ANOMALOUS, MALFORMED})"),
    ("an absent chunk with std 1", MODEL,
     "ABSENT_CHUNK = (0.0, 0.0)", "ABSENT_CHUNK = (0.0, 1.0)"),
    ("short at one window", MODEL, "if len(part) < chunking.n:", "if len(part) <= chunking.n:"),
    # judge looks the class up before it cuts a window: a no-model payload costs none
    ("windows cut before the class lookup", DETECTOR,
     "    entry = scorer.classes.get(key)\n    if entry is None:\n        return Outcome(NO_MODEL)\n"
     "    grams = slice_windows(part, scorer.chunking)\n",
     "    grams = slice_windows(part, scorer.chunking)\n    entry = scorer.classes.get(key)\n"
     "    if entry is None:\n        return Outcome(NO_MODEL)\n"),
    ("pruning guard dropped", MODEL,
     "if mean <= 1 and deviates(mean, std, 1, alpha, th_s):",
     "if deviates(mean, std, 1, alpha, th_s):"),
    ("an entry past the budget kept", MODEL, "if cost > MEMO_BYTES:", "if False:"),
    ("the load-time chunk-mean check dropped", MODEL,
     "if not abs(chunk_mean_sum - mean) <= tolerance:", "if False:"),
    # >= th_s in every statement of rules 2 and 3: judge and anomalous_occurrences agree
    # again, so only the hand cases at an exact tie and reference_verdict can tell
    *((">= everywhere in rules 2 and 3", DETECTOR, old, _ge(old)) for old in (
        PER_GRAM_RULE_2, PER_GRAM_RULE_3)),
    (">= everywhere in rules 2 and 3", MODEL, DEVIATES, _ge(DEVIATES)),
    # the Scorer builds judge's sets at its own th_s, which may be below the model's
    ("the lowered th_s ignored", DETECTOR,
     "absent_usual = not deviates(*ABSENT_CHUNK, 1, alpha, th_s)",
     "th_s = model.th_s\n        absent_usual = not deviates(*ABSENT_CHUNK, 1, alpha, th_s)"),
    # training left out entries that are sound to leave out only at or below its th_s
    ("a th_s above the model's accepted", DETECTOR,
     "if th_s > model.th_s:", "if th_s > 2 * model.th_s:"),
    # a chunk with no entry reads as ABSENT_CHUNK, which is usual at count 1 when th_s * alpha >= 1
    ("chunks without an entry judged unusual", DETECTOR,
     "rest = usual if absent_usual else set()", "rest = set()"),
    # pcap ingest reads each header at the offset the one before it gives, and no further
    # than the datagram's total length
    ("TCP header at a fixed offset", CORPUS,
     "_TCP_HEADER.unpack_from(data, 14 + ihl)", "_TCP_HEADER.unpack_from(data, 34)"),
    ("padding read as payload", CORPUS,
     "data[14 + ihl + data_off:14 + total_len]", "data[14 + ihl + data_off:]"),
    ("fragments accepted", CORPUS, "if fragment & 0x3FFF:", "if False:"),
]

# test_mutants.py checks that this table's old texts occur in the source, so
# it fails on every mutated copy; left in, it would kill mutants that no
# semantic test catches
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 900


def mutants(rows=MUTANTS) -> dict[str, list[tuple[str, str, str]]]:
    """Each mutant's edits, by name, in table order."""
    grouped: dict[str, list[tuple[str, str, str]]] = {}
    for name, path, old, new in rows:
        grouped.setdefault(name, []).append((path, old, new))
    return grouped


def apply(tree: Path, edits: list[tuple[str, str, str]]) -> dict[Path, str] | str:
    """Write the edits into tree; the original text of each file changed, or why not."""
    originals: dict[Path, str] = {}
    texts: dict[Path, str] = {}
    for path, old, new in edits:
        file = tree / path
        if file not in texts:
            originals[file] = texts[file] = file.read_text(encoding="utf-8")
        found = texts[file].count(old)
        if found != 1:
            return f"{path}: old text occurs {found} times, not once: {old!r}"
        texts[file] = texts[file].replace(old, new)
    for file, text in texts.items():
        file.write_text(text, encoding="utf-8")
    return originals


def run_tier_1(tree: Path) -> tuple[int, str]:
    """Tier-1's exit status in tree and its first failure, or "" when it passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(TIER_1, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    summary = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
    return done.returncode, (failed or summary)[0] if done.returncode else ""


def main(argv: list[str]) -> int:
    table = mutants()
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = {name: table[name] for name in (argv or table)}
    with tempfile.TemporaryDirectory(prefix="pckad-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        code, first = run_tier_1(tree)
        if code != 0:
            print(f"the unmutated copy fails tier-1: {first}", file=sys.stderr)
            return 2
        bad = 0
        print(f"{'mutant':<48} {'result':<8} {'s':>5}  first failure")
        for name, edits in chosen.items():
            start = time.monotonic()
            originals = apply(tree, edits)
            if isinstance(originals, str):
                result, detail = "REFUSED", originals
            else:
                try:
                    code, detail = run_tier_1(tree)
                finally:
                    for file, text in originals.items():
                        file.write_text(text, encoding="utf-8")
                # pytest exits 1 when tests fail; 0 means every test passed
                result = "killed" if code == 1 else "SURVIVED" if code == 0 else "ERROR"
            bad += result != "killed"
            print(f"{name:<48} {result:<8} {time.monotonic() - start:5.1f}  {detail}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
