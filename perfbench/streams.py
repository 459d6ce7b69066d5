"""Seeded input streams for the three workloads.

Every function here is a pure function of its seed (and, for netlist
bodies, of the deck texts handed in): the same seed yields a
byte-identical stream, so two runs with one seed send the program the
same inputs in the same order.  The program never sees the seed, only
the generated specs and requests.

Each stream is built from shuffled *blocks* with a fixed composition,
so the mix of operation kinds (and hence the cost of a timed window)
is the same for every seed; only the axis values differ.  Every entry
carries its ``kind`` and, for repeats, the index of the entry it
repeats (``of``).
"""

from __future__ import annotations

import json
import random

#: Process corners of the repo's technology registry.
CORNERS = ("tt", "ff", "ss", "fs", "sf")
#: The paper's consumer temperature grid [degC].
TEMPS_C = [-20.0, 25.0, 85.0]
#: The five Table 1 metrics measured at 1 kHz on the shared operating point.
TABLE1_MEASURE = ["offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db",
                  "cmrr_1khz_db"]
#: Table 2 rows the power-buffer builder answers per unit.
TABLE2_MEASURE = ["offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db"]
#: Ingested decks whose operating point the engine finds (the clocked
#: comparator has none and would fail every request).
DECKS = ("ota_5t", "diff_amp")
NETLIST_MEASURE = ["offset_v", "iq_ma", "gain_1khz_db"]

#: Repeats and grown requests refer at least this far back, so the
#: entry they build on has normally finished before they are sent.
LAG = 6


class _Seeds:
    """Fresh, never-repeating mismatch seeds."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[int] = set()

    def take(self, n: int) -> list[int]:
        out = []
        while len(out) < n:
            s = self.rng.randrange(1, 2 ** 31)
            if s not in self.used:
                self.used.add(s)
                out.append(s)
        return out


def _blocks(rng: random.Random, composition: list[str], n: int):
    """Yield ``n`` kinds from shuffled copies of ``composition``."""
    emitted = 0
    while emitted < n:
        block = list(composition)
        rng.shuffle(block)
        for kind in block:
            if emitted == n:
                return
            yield kind
            emitted += 1


def _micamp(rng, seeds: _Seeds, n_corners, temps, n_seeds, n_codes,
            measurements) -> dict:
    return {"builder": "micamp",
            "corners": rng.sample(CORNERS, n_corners),
            "temps_c": list(temps),
            "seeds": seeds.take(n_seeds),
            "gain_codes": sorted(rng.sample(range(6), n_codes)),
            "measurements": list(measurements)}


def cli_stream(seed: int, n: int = 4000) -> list[dict]:
    """``repro campaign --spec`` inputs: Table 1 qualifications (24
    units), Table 2 power-buffer specs (12 units), a noise-voice
    minority (4 units, per-unit path) and reruns of earlier specs.  A
    rerun names the kind of spec it repeats, so the warm share has the
    same composition in every block."""
    rng = random.Random(seed)
    seeds = _Seeds(rng)
    composition = (["table1"] * 5 + ["table2"] * 2 + ["noise"]
                   + ["rerun:table1"] * 2 + ["rerun:table2", "rerun:noise"])
    out: list[dict] = []
    fresh: dict[str, list[int]] = {"table1": [], "table2": [], "noise": []}
    for kind in _blocks(rng, composition, n):
        if kind.startswith("rerun:"):
            kind = kind.split(":")[1]
            if fresh[kind]:
                of = rng.choice(fresh[kind])
                out.append({"kind": "rerun", "of": of, "spec": out[of]["spec"]})
                continue
        if kind == "table1":
            spec = _micamp(rng, seeds, 2, TEMPS_C, 2, 2, TABLE1_MEASURE)
        elif kind == "noise":
            spec = _micamp(rng, seeds, 1, [25.0, 85.0], 2, 1,
                           TABLE1_MEASURE + ["noise_voice"])
        else:
            spec = {"builder": "powerbuffer",
                    "corners": rng.sample(CORNERS, 2),
                    "temps_c": list(TEMPS_C),
                    "seeds": seeds.take(2),
                    "measurements": list(TABLE2_MEASURE)}
        fresh[kind].append(len(out))
        out.append({"kind": kind, "of": None, "spec": spec})
    return out


def netlist_body(deck: str, deck_texts: dict, corners, temps) -> dict:
    """A ``netlist`` campaign body for one of the ingest test decks."""
    text, binding = deck_texts[deck]
    return {"netlist": {"deck": text, "binding": json.loads(binding)},
            "corners": list(corners), "temps_c": list(temps),
            "measurements": list(NETLIST_MEASURE)}


def serve_stream(seed: int, deck_texts: dict, n: int = 6000) -> list[dict]:
    """Same-size (12-unit) campaign requests: *new* (every unit fresh),
    *grown* (one of two mismatch seeds reused, so half the units are
    stored), *repeat* (an exact earlier request: a warm store hit) and a
    *netlist* minority built from the ingest test decks."""
    rng = random.Random(seed)
    seeds = _Seeds(rng)
    composition = ["new"] * 7 + ["grown"] * 4 + ["repeat"] * 7 + ["netlist"] * 2
    temp_grid = [float(t) for t in range(-40, 126, 5)]
    out: list[dict] = []
    for kind in _blocks(rng, composition, n):
        i = len(out)
        earlier = range(0, i - LAG + 1)
        if kind in ("grown", "repeat") and not earlier:
            kind = "new"
        if kind == "new":
            body = _micamp(rng, seeds, 1, TEMPS_C, 2, 2, TABLE1_MEASURE)
            out.append({"kind": kind, "of": None, "body": body})
        elif kind == "netlist":
            body = netlist_body(rng.choice(DECKS), deck_texts,
                                rng.sample(CORNERS, 4),
                                sorted(rng.sample(temp_grid, 3)))
            out.append({"kind": kind, "of": None, "body": body})
        elif kind == "repeat":
            of = rng.choice(earlier)
            out.append({"kind": kind, "of": of, "body": out[of]["body"]})
        else:
            micamps = [j for j in earlier if "builder" in out[j]["body"]]
            of = rng.choice(micamps)
            body = dict(out[of]["body"])
            kept = rng.choice(body["seeds"])
            body["seeds"] = sorted([kept] + seeds.take(1))
            out.append({"kind": kind, "of": of, "body": body})
    return out


#: The robust grid of ``repro optimize --robust`` without further flags.
ROBUST_GRID = {"corners": ["tt", "ss", "ff"], "temps_c": [25.0]}
#: The evaluation budget of ``repro optimize --quick`` (the CI's call).
#: On the 9-dimensional mic-amp space it runs a DE population of 15 (15
#: Latin-hypercube, 25 DE and 20 pattern-search evaluations); the default
#: budget of 150 runs 36, but a 20 s window then holds too few searches
#: for a steady mix (see perfbench/README.md).
BUDGET = 60


def optimize_stream(seed: int, n: int = 120) -> list[dict]:
    """``repro optimize`` configurations in blocks of six: a typical-mode
    search, a robust search over the default 3-unit PVT grid and another
    typical one, then a rerun of each in the same order, so warm and
    cold searches match in mix.  The order is fixed, so a window cut at
    any search holds the same typical/robust mix for every seed; the
    seed picks each search's optimizer seed."""
    rng = random.Random(seed)
    out: list[dict] = []
    while len(out) < n:
        block = [{"kind": kind, "of": None, "budget": BUDGET,
                  "seed": rng.randrange(1, 2 ** 31), "mode": "feasibility",
                  "robust": ROBUST_GRID if kind == "robust" else None}
                 for kind in ("typical", "robust", "typical")]
        base = len(out)
        out += block
        out += [dict(entry, kind="rerun", of=base + j)
                for j, entry in enumerate(block)]
    return out[:n]
