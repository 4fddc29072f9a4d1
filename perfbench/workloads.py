"""The benchmark's workloads: seeded inputs, structures, query streams and oracles.

Each workload generates its raw inputs from the seed with
``gapindex.generators``, builds the structures it queries through the public
build functions, saves and reloads them through ``gapindex.persist``, and
checks every answer against an in-repo oracle (or a brute-force one where
the package has none). Query parameters are drawn from shuffled decks
(stratified sampling) rather than independently, so the mix of cheap and
expensive queries is the same for every seed and only the text, the sets
and the exact positions vary.
"""

from __future__ import annotations

import importlib
import random
import statistics
from time import perf_counter

import numpy as np

from gapindex import gapped, jumbled, persist, reporting, textindex
from gapindex.backends import LinearScan, ShiftQuery, SmallUniverse, brute_force_ssi
from gapindex.generators import random_collection, random_text
from gapindex.jumbled import histogram, sliding_window_matches
from gapindex.sets import format_collection

# ``gapindex.smallest_shift`` is the re-exported function, not the module.
smallest_shift = importlib.import_module("gapindex.smallest_shift")

EXISTS, REPORT = "exists", "report"

CONFIGS = {
    "full": {
        "string": {"n": 2048, "sigma": 4, "min_len": 3, "max_len": 6, "max_width": 512,
                   "distinct": {"exists": 3000, "report": 2000}},
        "set": {"small": (16, 20), "large": (16, 200), "universe": 8192, "delta": 0.5,
                "jumbled_n": 600, "jumbled_sigma": 3, "exists_width": 512,
                "report_width": 32, "blocks": 100},
    },
    # Tiny instances for the benchmark's own smoke test.
    "smoke": {
        "string": {"n": 256, "sigma": 4, "min_len": 2, "max_len": 3, "max_width": 32,
                   "distinct": {"exists": 60, "report": 40}},
        "set": {"small": (4, 5), "large": (4, 30), "universe": 512, "delta": 0.5,
                "jumbled_n": 60, "jumbled_sigma": 3, "exists_width": 64,
                "report_width": 8, "blocks": 4},
    },
}


class Deck:
    """Draws items from repeatedly shuffled copies of a fixed list."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.items[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class Stratified:
    """Integers in [0, top], one per stratum of [0, top] per shuffled round of strata."""

    def __init__(self, rng: random.Random, top: int, strata: int = 8):
        self.rng = rng
        self.top = top
        self.strata = strata
        self.deck = Deck(rng, range(strata))

    def draw(self) -> int:
        stratum = self.deck.draw()
        return min(self.top, int((stratum + self.rng.random()) * (self.top + 1) / self.strata))


def _summary(values) -> dict:
    values = list(values)
    if not values:
        return {"median": None, "max": None, "mean": None}
    return {"median": statistics.median(values), "max": max(values),
            "mean": round(statistics.fmean(values), 3)}


class StringWorkload:
    """Gapped-string queries over one random text with the linear backend.

    ``mode`` is ``exists`` for string-exists and ``report`` for string-report;
    both draw the same query distribution from the same text generator.
    """

    def __init__(self, mode: str, seed: int, config: str):
        cfg = CONFIGS[config]["string"]
        self.mode = mode
        self.kind = LinearScan()
        rng = random.Random(seed)
        self.text = random_text(rng, cfg["n"], cfg["sigma"])
        self.stream = self._stream(rng, cfg, cfg["distinct"][mode])
        self.scan_seconds: list[float] = []

    def _stream(self, rng, cfg, count):
        text, n = self.text, len(self.text)
        lengths = range(cfg["min_len"], cfg["max_len"] + 1)
        pairs = Deck(rng, [(a, b) for a in lengths for b in lengths])
        widths = Stratified(rng, cfg["max_width"])
        out = []
        for _ in range(count):
            l1, l2 = pairs.draw()
            s1, s2 = rng.randint(0, n - l1), rng.randint(0, n - l2)
            lo = rng.randint(0, n // 4)
            out.append((self.mode, text[s1:s1 + l1], text[s2:s2 + l2], lo, lo + widths.draw()))
        return out

    # -- structures --------------------------------------------------------

    def build_steps(self):
        return [("string", lambda: textindex.build_gapped_string_index(self.text, self.kind))]

    def artifacts(self):
        return [("gapped-string", persist.build_artifact("gapped-string", self.text, self.kind))]

    @staticmethod
    def make(kind: str):
        return {"gapped-string": ("string", persist.make_string_index)}[kind]

    @staticmethod
    def parts(structures: dict) -> dict:
        idx = structures["string"]
        augmented = [idx.gapped.exact] + [lvl.instance for lvl in idx.gapped.levels]
        return {"string": [idx], "gapped": [idx.gapped], "augmented": augmented,
                "backends": [a.backend for a in augmented], "shift": [], "jumbled": []}

    # -- queries -----------------------------------------------------------

    @staticmethod
    def dispatch(structures: dict):
        idx = structures["string"]

        def call(q):
            if q[0] == EXISTS:
                return idx.exists(q[1], q[2], q[3], q[4])
            return idx.report(q[1], q[2], q[3], q[4])

        return call

    @staticmethod
    def query_mode(q) -> str:
        return q[0]

    def check(self, q, answer) -> bool:
        """Report must equal the two-finger scan; an exists witness must hold both
        patterns at the right gap, and a NO must meet an empty scan."""
        mode, p1, p2, lo, hi = q
        start = perf_counter()
        expected = textindex.baseline_linear_scan(self.text, p1, p2, lo, hi)
        self.scan_seconds.append(perf_counter() - start)
        if mode == REPORT:
            return answer == expected
        if answer is None:
            return not expected
        i, j = answer
        return (self.text[i - 1:i - 1 + len(p1)] == p1
                and self.text[j - 1:j - 1 + len(p2)] == p2
                and lo <= j - i <= hi)

    def properties(self, structures: dict, issued: dict) -> dict:
        sa = structures["string"].suffixes
        occ_products = []
        for q in issued:
            s1, e1 = textindex.pattern_interval(sa, q[1])
            s2, e2 = textindex.pattern_interval(sa, q[2])
            occ_products.append((e1 - s1) * (e2 - s2))
        answers = list(issued.values())
        props = {
            "n": len(self.text),
            "distinct_queries": len(issued),
            "yes_share": round(sum(1 for a in answers if a) / max(len(answers), 1), 4),
            "occ_product": _summary(occ_products),
            "smalluniverse": None,
        }
        if self.mode == REPORT:
            props["pairs_per_report"] = _summary(len(a) for a in answers)
        return props


class SetWorkload:
    """A skewed collection behind SSI, gapped-set and smallest-shift indexes,
    plus a jumbled index over a small text, queried by an interleaved mix."""

    # Query types per block of 20, shuffled within each block. The cheap
    # types fill the lower 45% so the median falls inside gapped_exists.
    DECK = (["ssi_exists"] * 3 + ["smallest_shift"] * 3 + ["jumbled_exists"] * 3
            + ["gapped_exists"] * 4 + ["ssi_report"] * 3 + ["gapped_report"] * 2
            + ["jumbled_report"] * 2)
    MODES = {"ssi_exists": EXISTS, "smallest_shift": EXISTS, "jumbled_exists": EXISTS,
             "gapped_exists": EXISTS, "ssi_report": REPORT, "gapped_report": REPORT,
             "jumbled_report": REPORT}

    def __init__(self, seed: int, config: str):
        cfg = CONFIGS[config]["set"]
        self.kind = SmallUniverse(delta=cfg["delta"])
        self.jumbled_kind = LinearScan()
        rng = random.Random(seed)
        (k_small, m_small), (k_large, m_large) = cfg["small"], cfg["large"]
        sizes = [m_small] * k_small + [m_large] * k_large
        self.collection = random_collection(rng, len(sizes), sum(sizes), cfg["universe"], sizes)
        self.text = random_text(rng, cfg["jumbled_n"], cfg["jumbled_sigma"])
        self.alphabet = sorted(set(self.text))
        self.arrays = [np.asarray(s.elements, dtype=np.int64) for s in self.collection.sets]
        self.stream = self._stream(rng, cfg)

    def _stream(self, rng, cfg):
        c, u = self.collection, cfg["universe"]
        k_small = cfg["small"][0]
        small = list(range(1, k_small + 1))
        large = list(range(k_small + 1, c.k + 1))
        classes = [(a, b) for a in (small, large) for b in (small, large)]
        decks = {t: Deck(rng, classes) for t in self.MODES}
        widths = {"gapped_exists": Stratified(rng, cfg["exists_width"]),
                  "gapped_report": Stratified(rng, cfg["report_width"])}
        realized = Deck(rng, [True, False])
        from_text = Deck(rng, [True] * 4 + [False])
        lengths = Stratified(rng, min(36, len(self.text) - 4))
        types = Deck(rng, self.DECK)

        def pair(t):
            side_a, side_b = decks[t].draw()
            return rng.choice(side_a), rng.choice(side_b)

        out = []
        for _ in range(cfg["blocks"] * len(self.DECK)):
            t = types.draw()
            if t in ("ssi_exists", "ssi_report"):
                i, j = pair(t)
                if realized.draw():
                    s = rng.choice(c.set(j).elements) - rng.choice(c.set(i).elements)
                else:
                    s = rng.randint(-u, u)
                out.append((t, i, j, s))
            elif t in ("gapped_exists", "gapped_report"):
                i, j = pair(t)
                lo = rng.randint(0, u // 4)
                out.append((t, i, j, lo, lo + widths[t].draw()))
            elif t == "smallest_shift":
                out.append((t, *pair(t)))
            else:
                n = len(self.text)
                if from_text.draw():
                    length = 4 + lengths.draw()
                    start = rng.randint(0, n - length)
                    pattern = histogram(self.text[start:start + length], self.alphabet)
                else:
                    pattern = tuple(rng.randint(0, 12) for _ in self.alphabet)
                out.append((t, tuple(pattern)))
        return out

    # -- structures --------------------------------------------------------

    def build_steps(self):
        c, kind = self.collection, self.kind
        return [
            ("ssi", lambda: reporting.build_reporting_index(c, kind)),
            ("gapped", lambda: gapped.build_gapped_index(c, kind)),
            ("shift", lambda: smallest_shift.build_smallest_shift(c)),
            ("jumbled", lambda: jumbled.build_jumbled_index(self.text, self.alphabet,
                                                             self.jumbled_kind)),
        ]

    def artifacts(self):
        source = format_collection(self.collection).encode()
        return [
            ("ssi", persist.build_artifact("ssi", source, self.kind)),
            ("gapped-set", persist.build_artifact("gapped-set", source, self.kind)),
            ("smallest-shift", persist.build_artifact("smallest-shift", source, self.kind)),
            ("jumbled", persist.build_artifact("jumbled", self.text, self.jumbled_kind)),
        ]

    @staticmethod
    def make(kind: str):
        # An ssi container queried in report mode is made into the reporting
        # index, whose backend also answers the exists queries (as the CLI does).
        return {
            "ssi": ("ssi", persist.make_reporting_index),
            "gapped-set": ("gapped", persist.make_gapped_index),
            "smallest-shift": ("shift", persist.make_shift_index),
            "jumbled": ("jumbled", persist.make_jumbled_index),
        }[kind]

    @staticmethod
    def parts(structures: dict) -> dict:
        g, jx = structures["gapped"], structures["jumbled"]
        augmented = ([structures["ssi"], g.exact] + [lvl.instance for lvl in g.levels]
                     + [jx.reporting.index])
        return {"string": [], "gapped": [g], "augmented": augmented,
                "backends": [a.backend for a in augmented], "shift": [structures["shift"]],
                "jumbled": [jx]}

    # -- queries -----------------------------------------------------------

    @staticmethod
    def dispatch(structures: dict):
        ssi, g = structures["ssi"], structures["gapped"]
        shift, jx = structures["shift"], structures["jumbled"]
        backend = ssi.backend
        # Module attributes are looked up per call so traced wrappers apply.
        table = {
            "ssi_exists": lambda q: backend.exists(q[1], q[2], q[3]),
            "ssi_report": lambda q: reporting.report_shift(ssi, q[1], q[2], q[3]),
            "gapped_exists": lambda q: gapped.gapped_exists(g, q[1], q[2], q[3], q[4]),
            "gapped_report": lambda q: gapped.gapped_report(g, q[1], q[2], q[3], q[4]),
            "smallest_shift": lambda q: smallest_shift.smallest_shift(shift, q[1], q[2]),
            "jumbled_exists": lambda q: jx.exists(q[1]),
            "jumbled_report": lambda q: jx.report(q[1]),
        }

        def call(q):
            return table[q[0]](q)

        return call

    @classmethod
    def query_mode(cls, q) -> str:
        return cls.MODES[q[0]]

    def _gap_pairs(self, i, j, lo, hi):
        a, b = self.arrays[i - 1], self.arrays[j - 1]
        diff = b[None, :] - a[:, None]
        rows, cols = np.nonzero((diff >= lo) & (diff <= hi))
        return [(int(a[r]), int(b[s])) for r, s in zip(rows, cols)]

    def check(self, q, answer) -> bool:
        """Brute force per query type: all pairs for SSI and gapped sets, every
        difference for the smallest shift, a sliding window for jumbled."""
        t = q[0]
        if t in ("ssi_exists", "ssi_report"):
            expected = brute_force_ssi(self.collection, ShiftQuery(q[1], q[2], q[3]))
            if t == "ssi_report":
                return answer == expected
            if answer is None:
                return not expected
            return bool(expected) and (answer.a, answer.b) == expected[0]
        if t in ("gapped_exists", "gapped_report"):
            expected = self._gap_pairs(*q[1:])
            if t == "gapped_report":
                return answer == expected
            if answer is None:
                return not expected
            a, b = answer
            return (a in self.collection.set(q[1]).elements
                    and b in self.collection.set(q[2]).elements
                    and q[3] <= b - a <= q[4])
        if t == "smallest_shift":
            a, b = self.arrays[q[1] - 1], self.arrays[q[2] - 1]
            diff = (b[None, :] - a[:, None]).ravel()
            diff = diff[diff >= 0]
            return answer == (int(diff.min()) if diff.size else None)
        expected = sliding_window_matches(self.text, self.alphabet, list(q[1]))
        if t == "jumbled_report":
            return answer == expected
        return answer == bool(expected)

    def properties(self, structures: dict, issued: dict) -> dict:
        exists = [a for q, a in issued.items() if self.MODES[q[0]] == EXISTS
                  and q[0] != "smallest_shift"]
        reports = [len(a) for q, a in issued.items() if self.MODES[q[0]] == REPORT]
        tabulated = []
        for part, inst in (("ssi", structures["ssi"]), ("gapped.exact", structures["gapped"].exact)):
            b = inst.backend
            large = sum(b.large)
            tabulated.append({"structure": part, "threshold": b.threshold, "large_sets": large,
                              "tabulated_pairs": large * large,
                              "tabulated_entries": b.table.entries})
        return {
            "sets": self.collection.k,
            "total_size": self.collection.total_size,
            "jumbled_n": len(self.text),
            "distinct_queries": len(issued),
            "yes_share": round(sum(1 for a in exists if a) / max(len(exists), 1), 4),
            "pairs_per_report": _summary(reports),
            "smalluniverse": tabulated,
            "all_tabulated_pairs": sum(sum(a.backend.large) ** 2
                                       for a in self.parts(structures)["augmented"]
                                       if isinstance(a.backend.kind, SmallUniverse)),
        }


WORKLOADS = {
    "string-exists": lambda seed, config: StringWorkload(EXISTS, seed, config),
    "string-report": lambda seed, config: StringWorkload(REPORT, seed, config),
    "set-questions": lambda seed, config: SetWorkload(seed, config),
}
