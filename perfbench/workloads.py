"""The three benchmark workloads: seeded inputs, timed operations, oracles.

Each workload object exposes

    setup()            build the corpus and warm the universe tables
    ops(cycle)         the operations of one cycle, as (kind, key, call) triples
    record(i, kind, key, result)
                       keep what the oracle needs, outside the timings
    oracle()           check every kept result; returns a list of failures
    counters()         exact counters over the counter window
    layers             the modules the workload stresses

`call` is a zero-argument callable that performs one operation through
the package's public API and returns its result.  Every call reaches the
package through module attributes (``cr.X``), so timing wrappers installed
on those attributes see it.

Inputs depend only on the seed: the same seed gives the same operations
in the same order, whatever the run length.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right

import choicerev as cr


# ---------------------------------------------------------------------------
# The benchmark's own formula generator and evaluator
# ---------------------------------------------------------------------------

_BINARY = ("&", "|", "->")


def random_formula(rng: random.Random, atoms: int):
    """A formula tree as nested tuples: ("p", i), ("~", f), (op, f, g).

    Every formula has one shape, (l1 o l2) o (l3 o l4) over four literals
    of which exactly two are negated, so that all inputs cost the parser
    about the same and a seed changes what is asked, not how much.
    """
    negated = set(rng.sample(range(4), 2))
    lits = []
    for i in range(4):
        atom = ("p", rng.randrange(atoms))
        lits.append(("~", atom) if i in negated else atom)
    return (rng.choice(_BINARY),
            (rng.choice(_BINARY), lits[0], lits[1]),
            (rng.choice(_BINARY), lits[2], lits[3]))


def render(f) -> str:
    """Fully parenthesized source text in the package's formula syntax."""
    if f[0] == "p":
        return f"p{f[1]}"
    if f[0] == "~":
        return "~" + render(f[1])
    return f"({render(f[1])} {f[0]} {render(f[2])})"


def truth(f, v: int) -> bool:
    tag = f[0]
    if tag == "p":
        return bool(v >> f[1] & 1)
    if tag == "~":
        return not truth(f[1], v)
    if tag == "&":
        return truth(f[1], v) and truth(f[2], v)
    if tag == "|":
        return truth(f[1], v) or truth(f[2], v)
    return (not truth(f[1], v)) or truth(f[2], v)


def model_mask(f, atoms: int) -> int:
    """Bit v set iff valuation v satisfies f; independent of the package."""
    return sum(1 << v for v in range(1 << atoms) if truth(f, v))


def make_input_pool(rng: random.Random, atoms: int, size: int):
    """Distinct input-set texts with member masks, in popularity order.

    Every fourth rank holds two formulas and the others one, so the share
    of two-member requests (about a fifth) is the same for every seed and
    the median stays inside the one-member band.
    """
    pool, seen = [], set()
    while len(pool) < size:
        members = [random_formula(rng, atoms) for _ in range(1 + (len(pool) % 4 == 3))]
        text = ", ".join(render(f) for f in members)
        if text in seen:
            continue
        seen.add(text)
        masks = frozenset(model_mask(f, atoms) for f in members)
        pool.append((text, masks))
    return pool


def zipf_cumulative(n: int, s: float = 1.1) -> list[float]:
    acc, out = 0.0, []
    for rank in range(1, n + 1):
        acc += 1.0 / rank ** s
        out.append(acc)
    return out


def reference_revise(model, masks: frozenset) -> tuple[int, int]:
    """First outcome whose theory contains a member, else K.

    Returns (outcome mask, outcomes examined).  Written against the
    model's outcome masks only, not the package's revision code.
    """
    if not masks:
        return model.K.mask, 0
    for depth, o in enumerate(model.outcomes, start=1):
        if any(o.mask & ~m == 0 for m in masks):
            return o.mask, depth
    return model.K.mask, len(model.outcomes)


def seeded_model(seed: int, lang, sizes: range, flags=None, k_models=None):
    """A valid model with a seeded size and flag pair; retries infeasible draws.

    With k_models, also retries until K allows exactly that many valuations.
    """
    rng = random.Random(seed)
    while True:
        size = rng.choice(sizes)
        f = flags or cr.ModelFlags(rng.random() < 0.5, rng.random() < 0.5)
        try:
            model = cr.generate_model(rng.randrange(1 << 30), lang, size, f)
        except ValueError:
            continue
        if k_models is None or bin(model.K.mask).count("1") == k_models:
            return model, f


def _sub_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:6], "big")


# ---------------------------------------------------------------------------
# revise_serve
# ---------------------------------------------------------------------------

class ReviseServe:
    """Revision requests: state id plus input-set text, Zipf-repeated inputs.

    Request kinds and their shares keep op_p50_ms inside the band of
    one-member requests to three-atom models, and op_tail_ms (p99) inside
    the band of relation requests.
    """

    name = "revise_serve"
    layers = ("logic", "descriptors", "models", "operators", "believability")
    cycle_len = 1024
    window = 20_000
    tail = 0.99
    KINDS = (("model3", 0.70), ("model2", 0.22), ("table", 0.06), ("relation", 0.02))
    POOL = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict = {}
        self.mismatch: list = []
        self.window_keys: list = []

    def setup(self) -> None:
        rng = random.Random(_sub_seed(self.seed, "revise_serve"))
        self.lang = {2: cr.LanguageSpec(2), 3: cr.LanguageSpec(3)}
        # evenly spread sizes, seeded contents
        self.models = {
            3: [seeded_model(rng.randrange(1 << 30), self.lang[3],
                             range(size, size + 1))[0]
                for size in (4 + 60 * i // 47 for i in range(48))],
            2: [seeded_model(rng.randrange(1 << 30), self.lang[2],
                             range(size, size + 1))[0]
                for size in (4 + 8 * i // 15 for i in range(16))],
        }
        self.u2 = cr.UniverseSpec(self.lang[2], 2)
        self.tables = [
            cr.ChoiceOperator.from_model(
                seeded_model(rng.randrange(1 << 30), self.lang[2], range(4, 13))[0], 2
            )
            for _ in range(4)
        ]
        self.relations = [cr.derive_mb_from_operator(op) for op in self.tables]
        self.pool = {a: make_input_pool(rng, a, self.POOL) for a in (2, 3)}
        self.cum = zipf_cumulative(self.POOL)
        self.kind_cum = []
        acc = 0.0
        for _, share in self.KINDS:
            acc += share
            self.kind_cum.append(acc)
        self.stream = random.Random(_sub_seed(self.seed, "revise_serve", "stream"))

    def warmup(self) -> None:
        cr.enumerate_universe(self.u2)

    def _draw(self):
        r = self.stream
        kind = self.KINDS[bisect_right(self.kind_cum, r.random() * self.kind_cum[-1])][0]
        atoms = 3 if kind == "model3" else 2
        states = self.models[atoms] if kind.startswith("model") else self.tables
        state = r.randrange(len(states))
        item = bisect_right(self.cum, r.random() * self.cum[-1])
        return kind, state, item

    def ops(self, cycle: int):
        out = []
        for _ in range(self.cycle_len):
            kind, state, item = self._draw()
            atoms = 3 if kind == "model3" else 2
            text = self.pool[atoms][item][0]
            lang = self.lang[atoms]
            if kind.startswith("model"):
                m = self.models[atoms][state]
                call = lambda m=m, text=text, lang=lang: cr.choice_revise_via_model(
                    m, cr.parse_input_set(text, lang)
                )
            elif kind == "table":
                op = self.tables[state]
                call = lambda op=op, text=text, lang=lang: op.outcome(
                    cr.parse_input_set(text, lang)
                )
            else:
                mb, k = self.relations[state], self.tables[state].K
                call = lambda mb=mb, k=k, text=text, lang=lang: cr.revise_via_mb(
                    mb, k, cr.parse_input_set(text, lang)
                )
            out.append((kind, (kind, state, item), call))
        return out

    def record(self, i: int, kind: str, key, result) -> None:
        if i < self.window:
            self.window_keys.append(key)
        got = self.first.get(key)
        if got is None:
            self.first[key] = result
        elif got != result:
            self.mismatch.append((key, got, result))

    def oracle(self) -> list[str]:
        fails = [f"{k}: answers differ between repeats ({a} vs {b})"
                 for k, a, b in self.mismatch]
        from_model = {}
        for (kind, state, item), result in self.first.items():
            atoms = 3 if kind == "model3" else 2
            text, masks = self.pool[atoms][item]
            if kind.startswith("model"):
                model = self.models[atoms][state]
                want, _ = reference_revise(model, masks)
                if result.mask != want:
                    fails.append(f"{kind} state {state} input {text!r}: got "
                                 f"{result.mask}, reference scan {want}")
                cap = 2 if atoms == 2 else 1
                if len(masks) <= cap:
                    key = (atoms, state)
                    if key not in from_model:
                        from_model[key] = cr.ChoiceOperator.from_model(model, cap)
                    a = cr.InputSet(model.lang, frozenset(
                        cr.SentenceClass(model.lang, m) for m in masks))
                    if from_model[key].outcome(a).mask != result.mask:
                        fails.append(f"{kind} state {state} input {text!r}: "
                                     "differs from the operator table")
            else:
                op = self.tables[state]
                a = cr.InputSet(op.lang, frozenset(
                    cr.SentenceClass(op.lang, m) for m in masks))
                if op.outcome(a).mask != result.mask:
                    fails.append(f"{kind} state {state} input {text!r}: got "
                                 f"{result.mask}, table {op.outcome(a).mask}")
        return fails

    def counters(self) -> dict:
        seen, repeats, depth, revisions = set(), 0, 0, 0
        for key in self.window_keys:
            if key in seen:
                repeats += 1
            seen.add(key)
            kind, state, item = key
            if kind.startswith("model"):
                atoms = 3 if kind == "model3" else 2
                _, d = reference_revise(self.models[atoms][state],
                                        self.pool[atoms][item][1])
                depth += d
                revisions += 1
        return {
            "revise_serve.repeat_share": round(repeats / len(self.window_keys), 6),
            "models.scan_depth_mean": round(depth / revisions, 6),
            "universe.sizes": [self.u2.size],
            "window_ops": len(self.window_keys),
        }


# ---------------------------------------------------------------------------
# verify_battery
# ---------------------------------------------------------------------------

_UNIVERSES_BATTERY = ((2, 2), (3, 1), (2, 3))  # n = 137, 257, 697


class VerifyBattery:
    """Full postulate battery plus derived equivalences on fresh operators.

    One cycle of twelve: a model-induced and a random operator on n=137
    and on n=257, then on n=697 one model-induced operator per flag pair
    and four random ones.  op_p50_ms falls in the middle of the n=697 model
    band and op_tail_ms (p90) inside the n=697 random band above it.

    On n=697 the cost of a model-induced operator is set mostly by how
    many valuations its K allows (one: ~430 ms, two: ~300 ms, three or
    four: ~150-300 ms of CPU time on a 2.0 GHz virtual CPU), so a free
    draw makes the median jump between seeds.  Those models are therefore
    drawn with a two-valuation K, the commonest kind, and generated
    outside the timed call; the timed call builds the operator table and
    checks it.
    """

    name = "verify_battery"
    layers = ("operators", "graphs")
    window = 12
    tail = 0.90
    _F = [cr.ModelFlags(x3, leq3) for x3 in (False, True) for leq3 in (False, True)]
    CYCLE = (
        ("model", 0, None), ("random", 0, None), ("model", 1, None), ("random", 1, None),
        ("model", 2, _F[0]), ("model", 2, _F[1]), ("model", 2, _F[2]), ("model", 2, _F[3]),
        ("random", 2, None), ("random", 2, None), ("random", 2, None), ("random", 2, None),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.results: list = []

    def setup(self) -> None:
        self.universes = [
            cr.UniverseSpec(cr.LanguageSpec(a), k) for a, k in _UNIVERSES_BATTERY
        ]

    def warmup(self) -> None:
        for u in self.universes:
            model, _ = seeded_model(_sub_seed(self.seed, "warm", u.size), u.lang,
                                    range(4, 9))
            op = cr.ChoiceOperator.from_model(model, u.max_input_size)
            cr.check_postulates(op)
            cr.check_equivalences(op)

    def ops(self, cycle: int):
        out = []
        for slot, (kind, ui, flags) in enumerate(self.CYCLE):
            u = self.universes[ui]
            s = _sub_seed(self.seed, "battery", cycle, slot)
            if kind == "model":
                sizes = range(4, 65) if u.lang.atom_count == 3 else range(4, 13)
                model, flags = seeded_model(s, u.lang, sizes, flags,
                                            k_models=2 if u.size == 697 else None)
                call = lambda m=model, u=u, f=flags: self._check(
                    cr.ChoiceOperator.from_model(m, u.max_input_size), f)
            else:
                call = lambda s=s, u=u: self._check(cr.random_operator(s, u), None)
            out.append((f"{kind}@{u.size}", (kind, u.size, s), call))
        return out

    @staticmethod
    def _check(op, flags):
        return op, flags, cr.check_postulates(op), cr.check_equivalences(op)

    def record(self, i: int, kind: str, key, result) -> None:
        # a copy of the table without the cached kernel keeps memory flat
        op, flags, reports, eq = result
        plain = cr.ChoiceOperator(op.universe, op.K, op.outputs)
        self.results.append((i, key, (plain, flags, reports, eq)))

    def oracle(self) -> list[str]:
        fails = []
        for i, (kind, n, s), (op, flags, reports, eq) in self.results:
            where = f"op {i} ({kind}, n={n}, seed {s})"
            if kind == "model":
                want = list(cr.BASIC_POSTULATES)
                if flags.has_X3 and flags.has_leq3:
                    want += cr.SUPPLEMENTARY_POSTULATES
                bad = [p.value for p in want if not reports[p].holds]
                if bad:
                    fails.append(f"{where}: model-induced operator fails {bad}")
                if not eq.all_confirmed:
                    fails.append(f"{where}: equivalences not confirmed")
            elif all(reports[p].holds for p in cr.BASIC_POSTULATES):
                fails.append(f"{where}: random control passes the basic postulates")
            for p, rep in reports.items():
                if rep.holds:
                    continue
                if rep.witness is None or not cr.operators.witness_violates(
                    op, p, rep.witness
                ):
                    fails.append(f"{where}: {p.value} witness does not violate it")
        return fails

    def counters(self) -> dict:
        checked = skipped = 0
        for i, _, (_, _, reports, _) in self.results:
            if i < self.window:
                for rep in reports.values():
                    checked += rep.checked
                    skipped += rep.skipped
        return {
            "operators.instances_checked": checked,
            "operators.instances_skipped": skipped,
            "universe.sizes": [u.size for u in self.universes],
            "window_ops": min(self.window, len(self.results)),
        }


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

# (atoms, max_input_size): n = 16, 17, 137
_U16, _U17, _U137 = (1, 4), (2, 1), (2, 2)


class Roundtrip:
    """Round-trip and translation verifiers over freshly seeded inputs.

    One cycle of 25: ten cheap checks (small universes, negative
    controls), five model round trips on n=137 (holding op_p50_ms), five
    mid-cost checks, and five relation round trips on n=137 (holding
    op_tail_ms, p90).  Every operator and relation is new, so nothing repeats.

    Models, random tables and sentence orders are drawn outside the timed
    call; the timed call builds the operator table (or the set order) and
    runs the verifier.  Models on n=137 have a two-valuation K (see
    VerifyBattery).
    """

    name = "roundtrip"
    layers = ("synthesis", "believability", "logic", "models", "operators")
    window = 25
    tail = 0.90
    # (verifier, universe, input): input is a model flag choice ("plain",
    # "both"), a random table, or for translations a sentence ("single") or
    # set ("set") order
    CYCLE = (
        ("model", _U16, "plain"), ("model2", _U16, "both"),
        ("model", _U17, "plain"), ("model2", _U17, "both"),
        ("translate", _U16, "single"), ("translate", _U16, "set"),
        ("model", _U137, "random"), ("relation", _U137, "random"),
        ("model", _U17, "random"), ("relation", _U16, "random"),
        ("model", _U137, "plain"), ("model", _U137, "plain"),
        ("model", _U137, "plain"), ("model", _U137, "both"),
        ("model", _U137, "both"),
        ("relation", _U17, "plain"), ("relation5", _U16, "both"),
        ("translate", _U17, "single"), ("translate", _U137, "single"),
        ("translate", _U137, "set"),
        ("relation", _U137, "plain"), ("relation", _U137, "plain"),
        ("relation", _U137, "both"), ("relation5", _U137, "both"),
        ("relation5", _U137, "both"),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.results: list = []

    def setup(self) -> None:
        self.universes = {
            key: cr.UniverseSpec(cr.LanguageSpec(key[0]), key[1])
            for key in (_U16, _U17, _U137)
        }

    def warmup(self) -> None:
        for key, u in self.universes.items():
            s = _sub_seed(self.seed, "warm", key)
            for verifier, what in (("model2", "both"), ("relation5", "both"),
                                   ("translate", "single"), ("translate", "set")):
                self.prepare(verifier, u, what, s)()

    def _model(self, u, flags, s):
        lang = u.lang
        if flags == "both":
            low, top, f = min(lang.valuation_count + 2, lang.full_mask + 1), 12, \
                cr.ModelFlags(True, True)
        else:
            low, top, f = 2, lang.full_mask - 1, None
        # as in verify_battery, a two-valuation K on n=137 keeps the cost of
        # one round trip from jumping with K's size between seeds
        return seeded_model(s, lang, range(low, min(top, 12) + 1), f,
                            k_models=2 if u.size == 137 else None)[0]

    def prepare(self, verifier, u, what, s):
        """Draw the inputs now; return the call that verifies them."""
        k = u.max_input_size
        if verifier == "translate":
            if what == "single":
                r = cr.random_quasi_linear(s, u.lang)
                return lambda: cr.verify_translation(r, k)
            m = self._model(u, "both", s)
            return lambda: cr.verify_translation(
                cr.derive_mb_from_operator(cr.ChoiceOperator.from_model(m, k)), k)
        if what == "random":
            op = cr.random_operator(s, u)
            build = lambda: cr.ChoiceOperator(op.universe, op.K, op.outputs)
        else:
            m = self._model(u, what, s)
            build = lambda: cr.ChoiceOperator.from_model(m, k)
        if verifier == "model":
            return lambda: cr.verify_roundtrip_model(build())
        if verifier == "model2":
            return lambda: cr.verify_roundtrip_model(build(), require_extended=True)
        return lambda: cr.verify_roundtrip_relation(build(),
                                                    standard=verifier == "relation5")

    def ops(self, cycle: int):
        out = []
        for slot, (verifier, ukey, what) in enumerate(self.CYCLE):
            u = self.universes[ukey]
            s = _sub_seed(self.seed, "roundtrip", cycle, slot)
            out.append((f"{verifier}@{u.size}/{what}", (verifier, ukey, what, s),
                        self.prepare(verifier, u, what, s)))
        return out

    def record(self, i: int, kind: str, key, result) -> None:
        # keep the verdict and the artifact's hash and size, not the artifact
        art = result.artifact
        size = len(json.dumps(art, sort_keys=True, separators=(",", ":"))) if (
            art is not None and i < self.window) else 0
        self.results.append((i, key, result.passed, result.artifact_hash, size,
                             result.detail))

    def oracle(self) -> list[str]:
        fails = []
        for i, (verifier, ukey, what, s), passed, digest, _, detail in self.results:
            want = what != "random"
            if passed != want:
                fails.append(f"op {i} ({verifier} n={self.universes[ukey].size} "
                             f"{what} seed {s}): passed={passed}, expected "
                             f"{want} ({detail})")
        # the first cycle again: verdicts and artifact hashes must repeat
        for i, (verifier, ukey, what, s), passed, digest, _, _ in self.results[:self.window]:
            again = self.prepare(verifier, self.universes[ukey], what, s)()
            if (again.passed, again.artifact_hash) != (passed, digest):
                fails.append(f"op {i}: artifact_hash or verdict differs on replay")
        return fails

    def counters(self) -> dict:
        window = self.results[:self.window]
        joined = "".join(r[3] or "-" for r in window)
        return {
            "synthesis.artifact_bytes": sum(r[4] for r in window),
            "synthesis.artifact_digest": hashlib.sha256(joined.encode()).hexdigest()[:16],
            "universe.sizes": sorted(u.size for u in self.universes.values()),
            "window_ops": len(window),
        }


WORKLOADS = {w.name: w for w in (ReviseServe, VerifyBattery, Roundtrip)}
