"""The three benchmark workloads: runs, covers and files.

Each workload builds its inputs from the seed with the public API only,
hands out ops in rounds, executes one op at a time and checks the
recorded outputs against brute-force references afterwards. A round
holds the workload's whole op mix, shuffled, and a run always ends on a
round boundary, so every run measures the same mix.

Library functions are always called through their module attribute
(`machine.word_step(...)`), never through a name bound at import time,
so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import oracles
import reference
from roughfsm import cli, core, generate, machine, morphism, products, propositions, textio

ALPHABET = "abcd"


def _word(rng: random.Random, letters: str, low: int, high: int) -> tuple:
    return tuple(rng.choice(letters) for _ in range(rng.randint(low, high)))


def _stratified(rng: random.Random, low: int, high: int, n: int) -> list:
    """n whole numbers in [low, high], one from each of n equal bands, shuffled."""
    width = (high - low + 1) / n
    values = [low + int(width * (i + rng.random())) for i in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# runs


def narrow_machine(rng: random.Random, n_states: int, name: str):
    """A near-deterministic machine whose run sets stay a few blocks wide.

    All states of a block move on a letter to one block within two places
    of it; one state in ten picks its own nearby block instead, and one
    entry in thirty also meets a neighbouring block, which makes it rough.
    """
    states = [f"q{i}" for i in range(1, n_states + 1)]
    space = generate.random_partition(rng, states, min_block_size=2)
    n_blocks = space.n_blocks
    table = {}
    for i, cell in enumerate(space.blocks):
        for x in ALPHABET:
            base = i + rng.randint(-2, 2)
            for q in cell:
                j = base + rng.randint(-2, 2) if rng.random() < 0.1 else base
                members = list(space.blocks[j % n_blocks])
                if rng.random() < 1 / 30:
                    members.append(rng.choice(space.blocks[(j + rng.choice((-1, 1))) % n_blocks]))
                table[(q, x)] = core.approximate(space, members)
    return machine.make_machine(space, ALPHABET, table, name)


class Runs:
    """Word runs and block runs on two large machines parsed from files."""

    name = "runs"
    # The highest percentile with ten samples beyond it when the benchmark
    # was defined with 15 s runs (about 530 ops); kept fixed so later runs
    # stay comparable.
    tail_percentile = 97.5
    # One round: 3/4 word runs, 1/4 block runs. The dense machine takes
    # more of the word runs so the median falls inside its word-run band
    # rather than on the edge between the two machines' latency bands.
    ROUND = (("word", "narrow"),) * 2 + (("word", "dense"),) * 4 + (("block", "narrow"), ("block", "dense"))
    # Oracle runs on the dense machine cost about 17 library runs each,
    # so the check covers a seeded sample of every op kind.
    CHECK_SAMPLE = {("word", "narrow"): 8, ("block", "narrow"): 8, ("word", "dense"): 4, ("block", "dense"): 2}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        built = {
            "dense": generate.random_machine(rng, n_states=200, alphabet=ALPHABET, min_block_size=2, name="dense"),
            "narrow": narrow_machine(rng, 800, "narrow"),
        }
        machines = {}
        for key, m in built.items():
            path = workdir / f"{key}.machine"
            path.write_text(textio.serialize_machine(m), encoding="utf-8")
            machines[key] = textio.parse_machine(path.read_text(encoding="utf-8"))
        return {"machines": machines, "rng": rng}

    def rounds(self, ctx):
        rng = ctx["rng"]
        machines = ctx["machines"]
        for r in itertools.count():
            lengths = {
                ("word", "narrow"): _stratified(rng, 20, 100, 2),
                ("word", "dense"): _stratified(rng, 20, 100, 4),
            }
            # Block runs cycle through 1-3 blocks and four length bands,
            # all twelve pairs every twelve rounds.
            n_blocks = 1 + r % 3
            band = 20 + 20 * (r // 3 % 4)
            ops = []
            for kind, key in self.ROUND:
                m = machines[key]
                if kind == "word":
                    start = rng.choice(m.space.states)
                    length = lengths[(kind, key)].pop()
                else:
                    start = m.space.definable(rng.sample(range(m.space.n_blocks), n_blocks))
                    length = rng.randint(band, band + 20)
                ops.append((kind, key, start, tuple(rng.choice(ALPHABET) for _ in range(length))))
            rng.shuffle(ops)
            yield ops

    def kind(self, op):
        return f"{op[0]}/{op[1]}"

    def execute(self, ctx, op):
        kind, key, start, word = op
        m = ctx["machines"][key]
        if kind == "word":
            return machine.word_step(m, start, word)
        return machine.block_word_step(m, start, word)

    def digest(self, ctx, op, result):
        return result

    def check(self, ctx, records, rng):
        """Indices of the records whose output is wrong, and how many were checked."""
        by_kind = {}
        for i, (op, out) in enumerate(records):
            by_kind.setdefault((op[0], op[1]), []).append(i)
        wrong, checked = set(), 0
        for kind, indices in sorted(by_kind.items()):
            for i in rng.sample(indices, min(self.CHECK_SAMPLE[kind], len(indices))):
                (op_kind, key, start, word), out = records[i]
                m = ctx["machines"][key]
                if op_kind == "word":
                    expected = oracles.word_run_reference(m, start, word)
                else:
                    expected = reference.block_word_run(m, start.block_ids, word)
                checked += 1
                if (out.lower.states_set(), out.upper.states_set()) != expected:
                    wrong.add(i)
        return wrong, checked


# ---------------------------------------------------------------------------
# covers

# Depth run_claim_trials uses for each claim at its default depth=1.
CLAIM_DEPTH = {
    "restricted-in-full": 2,
    "wreath-exchange": 1,
    "cascade-in-wreath": 2,
    "associativity": 1,
    "lift": 1,
}


def letters_only_pair(rng: random.Random, n_states: int, letters: str, index: int):
    """A covering that holds on every letter and fails on a two-letter word.

    m1 has blocks of two or more states; m2 has the same entries over
    singleton blocks, and eta, xi are identities, so every letter check
    compares equal sets. A planted pair of entries then makes m1's run
    from the block of u on x then y non-empty in its lower part while
    m2's run from u alone is empty: u steps to nothing on x, its block
    mate v steps to a block C, and C's first state steps to a block on y.
    """
    states = [f"q{i}" for i in range(1, n_states + 1)]
    space = generate.random_partition(rng, states, min_block_size=2)
    table = {
        (q, x): core.approximate(space, [s for s in states if rng.random() < 0.5])
        for q in states
        for x in letters
    }
    block = rng.choice(space.blocks)
    u, v = block[:2]
    x, y = rng.choice(letters), rng.choice(letters)
    target = rng.choice([cell for cell in space.blocks if cell != block])
    table[(u, x)] = core.approximate(space, [])
    table[(v, x)] = core.approximate(space, target)
    table[(target[0], y)] = core.approximate(space, rng.choice(space.blocks))
    m1 = machine.make_machine(space, letters, table, f"coarse{index}")

    fine = core.make_partition(states, [[q] for q in states])

    def lift(d):
        return fine.definable(fine.block_id(q) for q in d.states_set())

    fine_table = {key: core.RoughSet(lift(r.lower), lift(r.upper)) for key, r in table.items()}
    m2 = machine.make_machine(fine, letters, fine_table, f"fine{index}")
    pair = morphism.CoveringPair({q: q for q in states}, {a: a for a in letters})
    return m1, m2, pair


class Covers:
    """Covering verdicts and searches from morphism and propositions."""

    name = "covers"
    # With about 9,000 ops a run, p99.8 is the highest percentile with ten
    # samples beyond it, but it rests on a handful of rare heavy ops and
    # its spread across seeds reached a quarter of its median. p99.5, with
    # about 45 samples beyond it, is kept fixed instead.
    tail_percentile = 99.5
    # Ops of each kind in one round, weighted so that every kind takes a
    # similar share of the time on the library as first benchmarked.
    ROUND = {"holds": 5, "fails": 220, "search": 6, "claims": 10}
    POOL = {"holds": 80, "fails": 200, "search": 32, "claims": 320}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        # The largest wreath-exchange witness run_claim_trials can draw: four
        # two-state machines over two letters, whose outer wreath has 16
        # states and 1,024 letters. It is checked at depth 1, as the trials
        # do. It is always in the pool, so peak memory does not depend on
        # whether a claims batch happens to draw it.
        big = [generate.random_machine(rng, n_states=2, alphabet="ab", name=f"m{i}") for i in (1, 2, 3, 4)]
        holds = [("wreath-exchange", 1, big)]
        for i in range(1, self.POOL["holds"]):
            depth = 2 + i // 2 % 5
            m1 = generate.random_machine(rng, n_states=3, alphabet="ab", name="m1")
            if i % 2 == 0:
                m2 = generate.random_machine(rng, n_states=3, alphabet="ab", name="m2")
                holds.append(("restricted-in-full", depth, (m1, m2)))
            else:
                m2 = generate.random_machine(rng, n_states=2, alphabet="ab", name="m2")
                holds.append(("cascade-in-wreath", depth, (m1, m2, generate.random_wiring(rng, m1, m2))))
        fails = [
            (2 + i % 5, letters_only_pair(rng, 12, "abc", i)) for i in range(self.POOL["fails"])
        ]
        searches = []
        for i in range(self.POOL["search"]):
            m1 = generate.random_machine(rng, n_states=2 + i % 2, alphabet="ab", name="m1")
            searches.append((m1, products.restricted_direct(m1, generate.exact_machine(2, "ab"))))
        # Claim batches take the trial seeds 0, 1, 2, ... of each claim, as
        # `verify --seed N` does, on every workload seed. A batch's cost is
        # heavy-tailed (wreath-exchange and associativity batches range
        # from 1 to 120 ms), so trial seeds drawn from the workload seed
        # would move the mean batch cost by up to 40% between workload seeds.
        claims = [
            (propositions.CLAIM_NAMES[i % 5], i // 5) for i in range(self.POOL["claims"])
        ]
        pools = {"holds": holds, "fails": fails, "search": searches, "claims": claims}
        return {"pools": pools, "rng": rng}

    def rounds(self, ctx):
        rng = ctx["rng"]
        pools = ctx["pools"]
        next_item = {kind: 0 for kind in pools}
        while True:
            ops = []
            for kind, count in self.ROUND.items():
                for _ in range(count):
                    ops.append((kind, next_item[kind] % len(pools[kind])))
                    next_item[kind] += 1
            rng.shuffle(ops)
            yield ops

    def kind(self, op):
        return op[0]

    def execute(self, ctx, op):
        kind, index = op
        item = ctx["pools"][kind][index]
        if kind == "holds":
            claim, depth, args = item
            witness = {
                "restricted-in-full": propositions.witness_restricted_in_full,
                "wreath-exchange": propositions.witness_wreath_exchange,
                "cascade-in-wreath": propositions.witness_cascade_in_wreath,
            }[claim]
            return witness(*args, depth=depth)
        if kind == "fails":
            depth, (m1, m2, pair) = item
            return morphism.check_covering(m1, m2, pair, depth)
        if kind == "search":
            return morphism.search_coverings(*item, depth=1)
        claim, seed = item
        return propositions.run_claim_trials(claim, seed=seed, trials=2)

    def digest(self, ctx, op, result):
        """A summary small enough to keep for every op: verdicts and maps, no machines."""
        if op[0] == "search":
            return tuple((tuple(p.state_map.items()), tuple(p.input_map.items())) for p in result)
        if op[0] == "claims":
            return tuple((r.claim, r.detail, r.holds, repr(r.counterexample)) for r in result)
        return (result.holds, repr(result.counterexample))

    def _is_right(self, ctx, op, result) -> bool:
        kind, index = op
        item = ctx["pools"][kind][index]
        if kind == "holds":
            return self._report_is_right(result, item[1])
        if kind == "fails":
            depth, (m1, m2, pair) = item
            expected = reference.covers(m1, m2, pair.state_map, pair.input_map, depth)
            if result.holds or expected:
                return result.holds == expected
            return reference.counterexample_is_genuine(
                m1, m2, pair.state_map, pair.input_map, result.counterexample
            )
        if kind == "search":
            expected = reference.all_coverings(*item, depth=1)
            return [(p.state_map, p.input_map) for p in result] == expected
        return all(self._report_is_right(r, CLAIM_DEPTH[r.claim]) for r in result)

    @staticmethod
    def _report_is_right(report, depth) -> bool:
        f, g = report.pair.state_map, report.pair.input_map
        if report.claim == "associativity":
            expected = reference.isomorphic(report.subject, report.witness, f, g, depth)
        else:
            expected = reference.covers(report.subject, report.witness, f, g, depth)
        return report.holds == expected

    def check(self, ctx, records, rng):
        """Every op's summary must equal that of a re-run the reference confirms.

        The ops keep only summaries, so each pool item is run once more
        here, its full result is checked against the brute-force reference,
        and every recorded summary of that item is compared with it.
        """
        confirmed = {}
        for op in {op for op, _ in records}:
            result = self.execute(ctx, op)
            confirmed[op] = self.digest(ctx, op, result) if self._is_right(ctx, op, result) else None
        wrong = {i for i, (op, summary) in enumerate(records) if summary != confirmed[op]}
        return wrong, len(records)


# ---------------------------------------------------------------------------
# files

PRODUCT_KINDS = ("full", "restricted", "general", "cascade")


def paired_machine(rng: random.Random, n_states: int, name: str, state_prefix: str):
    """A random machine over "ab" whose blocks are random pairs of states.

    Every entry approximates a random set of states, as in
    generate.random_machine, but the sizes are fixed: the set holds both
    states of about a quarter of the blocks (at least one) and one state
    of half of them, so its lower approximation has about a quarter of
    the blocks and its upper one about three quarters, as a random half
    of the states gives on average.
    Product entries are built from only a few factor entries, so random
    sizes would move the cost of a product by a tenth or more from seed
    to seed; with fixed sizes only which blocks and states are picked
    depends on the seed.
    """
    states = [f"{state_prefix}{i}" for i in range(1, n_states + 1)]
    shuffled = rng.sample(states, n_states)
    blocks = [shuffled[i : i + 2] for i in range(0, n_states, 2)]
    space = core.make_partition(states, blocks)
    full, half = max(1, len(blocks) // 4), len(blocks) // 2

    def entry():
        picked = rng.sample(blocks, full + half)
        members = [q for cell in picked[:full] for q in cell] + [rng.choice(cell) for cell in picked[full:]]
        return core.approximate(space, members)

    table = {(q, x): entry() for q in states for x in "ab"}
    return machine.make_machine(space, "ab", table, name)


class Files:
    """The file round trip through the CLI, textio and products."""

    name = "files"
    # The highest percentile with ten samples beyond it when the benchmark
    # was defined (400 to 450 ops in a 25 s run); kept fixed so later runs
    # stay comparable. It falls among the two heaviest commands of a round,
    # the 12x12 round trip and the wreath validate, which cost about the
    # same on every seed; p95 would fall on the wreath product, whose cost
    # varies more from seed to seed.
    tail_percentile = 97.5
    # Factor sizes of the four pool items; products have 96 to 144 states.
    # The wreath pair is two six-state machines, whose wreath has 36 states
    # and 128 letters.
    SIZES = ((6, 16), (16, 6), (10, 10), (12, 12))

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        built = {}
        items = []
        for i, (n1, n2) in enumerate(self.SIZES):
            m1 = paired_machine(rng, n1, f"f{i}a", "q")
            m2 = paired_machine(rng, n2, f"f{i}b", "p")
            cover = products.restricted_direct(m1, generate.exact_machine(2 + i % 2, "ab"))
            built[f"{i}-first"] = m1
            built[f"{i}-second"] = m2
            built[f"{i}-cover"] = cover
            bridge = generate.random_bridge(rng, m1, m2, 3)
            wiring = generate.random_wiring(rng, m1, m2)
            files = {
                "bridge": "".join(f"{u} {x1} {x2}\n" for u, (x1, x2) in bridge.decode.items()),
                "omega": "".join(f"{q2} {x2} {x1}\n" for (q2, x2), x1 in wiring.omega.items()),
                "map": "".join(f"state {core.value_name(q)} {q[0]}\n" for q in cover.space.states)
                + "input a a\ninput b b\n",
            }
            for key, text in files.items():
                (workdir / f"{i}-{key}").write_text(text, encoding="utf-8")
            items.append(
                {
                    "index": i,
                    "roundtrip": products.full_direct(m1, m2),
                    "render_word": "".join(_word(rng, "ab", 3, 8)),
                    "run_state": core.value_name(rng.choice(cover.space.states)),
                    "run_word": "".join(_word(rng, "ab", 10, 30)),
                }
            )
        for key, prefix in (("wreath-first", "q"), ("wreath-second", "p")):
            built[key] = paired_machine(rng, 6, key, prefix)
        parsed = {}
        for key, m in built.items():
            path = workdir / f"{key}.machine"
            path.write_text(textio.serialize_machine(m), encoding="utf-8")
            parsed[key] = textio.parse_machine(path.read_text(encoding="utf-8"))
        return {"dir": workdir, "items": items, "parsed": parsed, "rng": rng}

    def _path(self, ctx, name):
        return str(ctx["dir"] / name)

    def _item_ops(self, ctx, item):
        i = item["index"]
        first = self._path(ctx, f"{i}-first.machine")
        second = self._path(ctx, f"{i}-second.machine")
        cover = self._path(ctx, f"{i}-cover.machine")
        ops = []
        for kind in PRODUCT_KINDS:
            out = self._path(ctx, f"{i}-{kind}.out")
            extra = {"general": ["--bridge", self._path(ctx, f"{i}-bridge")],
                     "cascade": ["--omega", self._path(ctx, f"{i}-omega")]}.get(kind, [])
            ops.append(("product", (i, kind), ["product", first, second, "--kind", kind, "-o", out, *extra]))
            ops.append(("validate", (i, kind), ["validate", "--strict", out]))
        ops.append(("render", i, ["render", first, "--table", "block", "--word", item["render_word"]]))
        ops.append(("run", i, ["run", cover, "--state", item["run_state"], "--word", item["run_word"]]))
        ops.append(
            ("check-cover", i,
             ["check-cover", first, cover, "--map", self._path(ctx, f"{i}-map"), "--depth", "2"])
        )
        ops.append(("roundtrip", i, None))
        return ops

    def rounds(self, ctx):
        rng = ctx["rng"]
        first = self._path(ctx, "wreath-first.machine")
        second = self._path(ctx, "wreath-second.machine")
        out = self._path(ctx, "wreath.out")
        wreath_ops = [
            ("product", ("w", "wreath"), ["product", first, second, "--kind", "wreath", "-o", out]),
            ("validate", ("w", "wreath"), ["validate", "--strict", out]),
        ]
        while True:
            groups = [self._item_ops(ctx, item) for item in ctx["items"]] + [wreath_ops]
            rng.shuffle(groups)
            yield [op for group in groups for op in group]

    def kind(self, op):
        return op[0]

    def execute(self, ctx, op):
        kind, key, argv = op
        if kind == "roundtrip":
            p = ctx["items"][key]["roundtrip"]
            return textio.parse_machine(textio.serialize_machine(p)) == p
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def digest(self, ctx, op, result):
        if op[0] in ("product", "render"):  # only the exit code is checked
            return result[0], ""
        return result

    def _expected_validate(self, ctx, key):
        i, kind = key
        parsed = ctx["parsed"]
        prefix = "wreath" if i == "w" else str(i)
        m1, m2 = parsed[f"{prefix}-first"], parsed[f"{prefix}-second"]
        n_inputs = {
            "full": len(m1.alphabet) * len(m2.alphabet),
            "restricted": len(m1.alphabet),
            "general": 3,
            "cascade": len(m2.alphabet),
            "wreath": len(m1.alphabet) ** len(m2.space.states) * len(m2.alphabet),
        }[kind]
        return (
            f"ok: {kind}({m1.name},{m2.name}): {len(m1.space.states) * len(m2.space.states)} states, "
            f"{m1.space.n_blocks * m2.space.n_blocks} blocks, {n_inputs} inputs\n"
        )

    def _expected_run(self, ctx, i):
        item = ctx["items"][i]
        cover = ctx["parsed"][f"{i}-cover"]
        lower, upper = oracles.word_run_reference(cover, item["run_state"], tuple(item["run_word"]))
        return f"({reference.format_states(cover.space, lower)},{reference.format_states(cover.space, upper)})\n"

    def check(self, ctx, records, rng):
        expected = {}
        wrong = set()
        for i, (op, out) in enumerate(records):
            kind, key, _ = op
            if kind == "roundtrip":
                ok = out is True
            else:
                code, stdout = out
                ok = code == 0
                if kind in ("validate", "run", "check-cover") and ok:
                    if (kind, key) not in expected:
                        expected[(kind, key)] = (
                            self._expected_validate(ctx, key) if kind == "validate"
                            else self._expected_run(ctx, key) if kind == "run"
                            else "holds\n"
                        )
                    ok = stdout == expected[(kind, key)]
            if not ok:
                wrong.add(i)
        return wrong, len(records)


WORKLOADS = {w.name: w for w in (Runs(), Covers(), Files())}
