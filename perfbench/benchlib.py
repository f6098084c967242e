"""Pure helpers of the repository benchmark (no processes, no clocks).

Kept apart from run.py so the rules the benchmark's numbers rest on --
percentiles and the samples a tail needs, how experiments output is cut
into figures, and what counts as counter drift -- are unit-tested on
their own (perfbench/tests/).
"""

import hashlib
import json
import math
import os
import re

# A tail percentile is reported only when at least this many samples
# lie beyond it.
TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share q of all samples at or below it. Always an observed value."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n
    distinct samples."""
    return n - max(math.ceil(q * n - 1e-9), 1)


def tail_supported(n, q):
    """True when n samples put at least TAIL_SAMPLES beyond the q-th
    percentile."""
    return n > 0 and samples_beyond(n, q) >= TAIL_SAMPLES


_HEADER = re.compile(r"^===== (\S+) =====$")


def split_figures(text):
    """Cut `experiments --no-summary` stdout into [(title, text)].

    Each figure is printed as "===== <title> =====", a blank line, the
    figure text, and one more newline; the figure text is what
    tests/golden/<id>.txt holds. Raises ValueError on output that does
    not have this shape.
    """
    lines = text.split("\n")
    sections = []
    i = 0
    while i < len(lines):
        m = _HEADER.match(lines[i])
        if not m:
            raise ValueError("expected a figure header, got %r" % lines[i])
        title = m.group(1)
        if i + 1 >= len(lines) or lines[i + 1] != "":
            raise ValueError("%s: no blank line after the header" % title)
        j = i + 2
        while j < len(lines) and not _HEADER.match(lines[j]):
            j += 1
        # Joined up to the next header, the separator newline becomes
        # the figure's final newline; at the end of the output the
        # split leaves one empty string more.
        body = "\n".join(lines[i + 2:j])
        if j == len(lines):
            if not body.endswith("\n"):
                raise ValueError("%s: output ends early" % title)
            body = body[:-1]
        sections.append((title, body))
        i = j
    if not sections:
        raise ValueError("no figures in the output")
    return sections


def parse_listing(text):
    """{title: figure id} from `experiments --list` ("<id> <title>")."""
    ids = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            ids[parts[1].strip()] = parts[0]
    return ids


def figures_by_id(sections, listing):
    """{figure id: text}; a title the listing does not know, or one
    printed twice, is kept under a key no golden file has."""
    out = {}
    for title, body in sections:
        fig = listing.get(title, "?" + title)
        out[fig if fig not in out else "?dup:" + fig] = body
    return out


def golden_mismatches(sections, golden):
    """Figure ids whose text differs from golden ({id: text}), is
    missing, or is not in the golden corpus. Sorted."""
    bad = {fig for fig, text in golden.items() if sections.get(fig) != text}
    bad |= set(sections) - set(golden)
    return sorted(bad)


def load_golden(golden_dir):
    golden = {}
    for name in sorted(os.listdir(golden_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(golden_dir, name), encoding="utf-8",
                      newline="") as f:
                golden[name[:-4]] = f.read()
    return golden


def counter_drift(reference, observed):
    """[(counter, reference value, observed value)] for every counter
    that differs or is present on one side only. Deterministic work
    counters of the same code on the same input must repeat exactly;
    any entry here means the run measured a different program."""
    drift = []
    for key in sorted(set(reference) | set(observed)):
        a, b = reference.get(key), observed.get(key)
        if a != b:
            drift.append((key, a, b))
    return drift


class Ledger:
    """Counters of earlier runs, kept in a JSON file in the build tree
    and keyed by the source digest, so runs of the same code are
    compared across processes and a changed program starts afresh."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as f:
                self.entries = json.load(f)
        except (OSError, ValueError):
            self.entries = {}

    def check(self, key, counters, record=True):
        """Drift of counters against the first run recorded under key.
        A new key is recorded only when record is true: a failed run's
        counters (a crashed child reports none) must not become the
        reference every later correct run is held to."""
        if key not in self.entries:
            if not record:
                return []
            self.entries[key] = counters
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(self.entries, f, sort_keys=True)
            os.replace(tmp, self.path)
            return []
        return counter_drift(self.entries[key], counters)


def source_digest(root, dirs):
    """SHA-256 over the paths and bytes of every file under dirs,
    skipping caches; identifies "the same code" for the ledger."""
    h = hashlib.sha256()
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(n for n in dirnames
                                 if n != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]
