"""End-to-end acceptance checks, one per headline behavior.

Each test computes its verdict, prints one `criterion N: PASS/FAIL`
line, and appends the line to conftest.ACCEPTANCE_LINES so the terminal
summary of a full run ends with the complete scorecard.
"""

from __future__ import annotations

import random
import re
from itertools import product as iter_product

from roughfsm import (
    MorphismPair,
    check_homomorphism,
    full_direct,
    general_direct,
    is_realizable,
    lift_covering,
    make_partition,
    parse_machine,
    restricted_direct,
    run_claim_trials,
    search_coverings,
    serialize_machine,
    validate_machine,
    wreath,
    cascade,
)
from roughfsm.cli import main
from roughfsm.generate import (
    exact_machine,
    random_bridge,
    random_machine,
    random_wiring,
)
from roughfsm.machine import block_word_step, word_step
from roughfsm.products import diagonal_bridge, pairing_bridge
from roughfsm.propositions import PRODUCT_KINDS
from roughfsm.textio import parse_state_input_map

from conftest import ACCEPTANCE_LINES
from oracles import all_partitions, all_subsets, brute_approximation


def record(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def cell_sets(text: str) -> tuple[frozenset, frozenset]:
    """State sets of one rendered (lower,upper) table cell."""
    assert text.startswith("(") and text.endswith(")"), text
    parts = re.split(r"(?<=[}φ]),(?=[{φ])", text[1:-1])
    assert len(parts) == 2, text
    def states_of(part: str) -> frozenset:
        if part == "φ":
            return frozenset()
        return frozenset(re.findall(r"[^{}∪,]+", part))
    return states_of(parts[0]), states_of(parts[1])


def table_rows(rendered: str) -> list[list[str]]:
    return [re.split(r"\s{2,}", line) for line in rendered.splitlines()]


ALL5 = frozenset(["q1", "q2", "q3", "q4", "q5"])

# The ten transition entries of the five-state machine, written out by
# hand as plain state sets so the rendered table is checked against an
# independent transcription rather than against the parser.
EXPECTED_STATE_TABLE = {
    ("q1", "a"): ({"q1", "q2"}, {"q1", "q2", "q3", "q5"}),
    ("q1", "b"): ({"q4"}, {"q3", "q4", "q5"}),
    ("q2", "a"): (set(), {"q3", "q5"}),
    ("q2", "b"): ({"q3", "q5"}, ALL5),
    ("q3", "a"): ({"q3", "q4", "q5"}, ALL5),
    ("q3", "b"): ({"q1", "q2"}, {"q1", "q2", "q4"}),
    ("q4", "a"): ({"q4"}, {"q1", "q2", "q4"}),
    ("q4", "b"): ({"q4"}, ALL5),
    ("q5", "a"): ({"q1", "q2", "q4"}, ALL5),
    ("q5", "b"): ({"q1", "q2"}, {"q1", "q2", "q3", "q5"}),
}


def test_criterion_1_state_table_round_trip(capsys, fixtures_dir, five_state):
    path = str(fixtures_dir / "five_state.machine")
    violations = validate_machine(five_state)
    assert main(["render", path, "--table", "state"]) == 0
    rows = table_rows(capsys.readouterr().out.rstrip("\n"))
    assert rows[0] == ["Q", "δ(q,a)", "δ(q,b)"]
    matched = 0
    for label, *cells in rows[1:]:
        for symbol, cell in zip(("a", "b"), cells):
            lower, upper = cell_sets(cell)
            want_lower, want_upper = EXPECTED_STATE_TABLE[(label, symbol)]
            assert lower == frozenset(want_lower), (label, symbol)
            assert upper == frozenset(want_upper), (label, symbol)
            matched += 1
    record(
        1,
        not violations and matched == 10,
        f"fixture valid with {len(violations)} violations, "
        f"{matched}/10 state-table cells match the hand transcription",
    )


# A hand-worked reference for the three block rows of the same machine.
# The b column of the last row is a known trap: read as one stride the
# row seems to close its lower bound over the whole state set, but the
# block transition is defined as the union over the member rows, and
# L(q3,b) + L(q5,b) + L(q4,b) = {q1,q2} + {q1,q2} + {q4} never reaches
# {q3,q5}. The hand value is kept as written so the test shows exactly
# which cell differs; the oracle below recomputes the row union straight
# from the state table and pins the produced value to it.
HAND_BLOCK_TABLE = {
    ("{q1,q2}∪{q3,q5}", "a"): (ALL5, ALL5),
    ("{q1,q2}∪{q3,q5}", "b"): (ALL5, ALL5),
    ("{q1,q2}∪{q4}", "a"): ({"q1", "q2", "q4"}, ALL5),
    ("{q1,q2}∪{q4}", "b"): ({"q3", "q4", "q5"}, ALL5),
    ("{q3,q5}∪{q4}", "a"): (ALL5, ALL5),
    ("{q3,q5}∪{q4}", "b"): (ALL5, ALL5),
}
TRAP_CELL = ("{q3,q5}∪{q4}", "b")


def test_criterion_2_block_table_and_the_trap_cell(capsys, fixtures_dir, five_state):
    path = str(fixtures_dir / "five_state.machine")
    assert main(["blocks", path]) == 0
    rows = table_rows(capsys.readouterr().out.rstrip("\n"))
    assert rows[0] == ["D", "δD(D,a)", "δD(D,b)"]
    assert len(rows) == 4

    agreeing = 0
    produced = {}
    for label, *cells in rows[1:]:
        for symbol, cell in zip(("a", "b"), cells):
            produced[(label, symbol)] = cell_sets(cell)
            if produced[(label, symbol)] == tuple(
                map(frozenset, HAND_BLOCK_TABLE[(label, symbol)])
            ):
                agreeing += 1
    assert agreeing == 5
    assert produced[TRAP_CELL] != tuple(map(frozenset, HAND_BLOCK_TABLE[TRAP_CELL]))

    # Oracle: the union over the member rows, straight off the table.
    oracle_lower = frozenset().union(
        *(five_state.entry(q, "b").lower.states_set() for q in ("q3", "q5", "q4"))
    )
    oracle_upper = frozenset().union(
        *(five_state.entry(q, "b").upper.states_set() for q in ("q3", "q5", "q4"))
    )
    assert oracle_lower == frozenset(["q1", "q2", "q4"])
    assert produced[TRAP_CELL] == (oracle_lower, oracle_upper)

    record(
        2,
        agreeing == 5 and produced[TRAP_CELL] == (oracle_lower, oracle_upper),
        "5/6 cells match the hand table; ({q3,q5}∪{q4}, b) lower follows "
        "the member-row union {q1,q2}∪{q4}",
    )


def test_criterion_3_relabeling_homomorphism(fixtures_dir):
    m1 = parse_machine((fixtures_dir / "relabel_source.machine").read_text())
    m2 = parse_machine((fixtures_dir / "relabel_target.machine").read_text())
    state_map, input_map = parse_state_input_map(
        (fixtures_dir / "relabel_pair.map").read_text()
    )
    good = check_homomorphism(m1, m2, MorphismPair(state_map, input_map))
    assert good.holds and good.counterexample is None

    swapped = {"a": input_map["b"], "b": input_map["a"]}
    bad = check_homomorphism(m1, m2, MorphismPair(state_map, swapped))
    assert not bad.holds
    assert bad.counterexample == ("q1", "a")

    record(
        3,
        good.holds and not bad.holds,
        "relabeling pair holds; swapped input map fails at (q1, a)",
    )


def test_criterion_4_word_decomposition_law(five_state):
    rng = random.Random(40)
    machines = [five_state] + [
        random_machine(rng, max_states=5, max_inputs=3, name=f"r{i}") for i in range(20)
    ]
    checks = 0
    failures = []
    for m in machines:
        ws_cache = {}
        bws_cache = {}

        def ws(q, w):
            key = (q, w)
            if key not in ws_cache:
                ws_cache[key] = word_step(m, q, w)
            return ws_cache[key]

        def bws(d, w):
            key = (d.block_ids, w)
            if key not in bws_cache:
                bws_cache[key] = block_word_step(m, d, w)
            return bws_cache[key]

        words = [
            w
            for n in range(5)
            for w in iter_product(m.alphabet, repeat=n)
        ]
        for q in m.space.states:
            for w in words:
                whole = ws(q, w)
                for i in range(len(w) + 1):
                    head, tail = w[:i], w[i:]
                    mid = ws(q, head)
                    checks += 1
                    if (
                        whole.lower != bws(mid.lower, tail).lower
                        or whole.upper != bws(mid.upper, tail).upper
                    ):
                        failures.append((m.name, q, head, tail))
    record(
        4,
        not failures,
        f"{checks} splittings over {len(machines)} machines, {len(failures)} failures",
    )


def test_criterion_5_realizability_against_brute_force():
    spaces = 0
    pairs = 0
    disagreements = []
    for n in range(1, 7):
        states = [f"q{i}" for i in range(1, n + 1)]
        for parts in all_partitions(states, max_cells=3):
            space = make_partition(states, parts)
            spaces += 1
            achieved = {
                brute_approximation(space, subset) for subset in all_subsets(states)
            }
            n_blocks = space.n_blocks
            for lower_mask in range(2**n_blocks):
                lower = space.definable(
                    i for i in range(n_blocks) if lower_mask >> i & 1
                )
                for upper_mask in range(2**n_blocks):
                    upper = space.definable(
                        i for i in range(n_blocks) if upper_mask >> i & 1
                    )
                    pairs += 1
                    got = is_realizable(space, lower, upper)
                    want = (lower.states_set(), upper.states_set()) in achieved
                    if got != want:
                        disagreements.append((space, lower, upper))
    record(
        5,
        not disagreements,
        f"{pairs} (lower, upper) pairs over {spaces} spaces, "
        f"{len(disagreements)} disagreements with brute force",
    )


def test_criterion_6_bridge_reductions(five_state):
    full = full_direct(five_state, five_state)
    via_pairs = general_direct(
        five_state, five_state, pairing_bridge(five_state.alphabet, five_state.alphabet)
    )
    assert via_pairs == full
    for q in full.space.states:
        for x in full.alphabet:
            assert via_pairs.entry(q, x) == full.entry(q, x)

    restricted = restricted_direct(five_state, five_state)
    via_diagonal = general_direct(
        five_state, five_state, diagonal_bridge(five_state.alphabet)
    )
    assert via_diagonal == restricted
    for q in restricted.space.states:
        for x in restricted.alphabet:
            assert via_diagonal.entry(q, x) == restricted.entry(q, x)

    record(
        6,
        True,
        "pairing bridge reproduces the full product and the diagonal bridge "
        "the restricted one, entry for entry on the five-state square",
    )


def test_criterion_7_claim_witnesses():
    reports = []
    reports += run_claim_trials("restricted-in-full", seed=11, trials=30)
    reports += run_claim_trials("wreath-exchange", seed=12, trials=15)
    reports += run_claim_trials("cascade-in-wreath", seed=13, trials=25)
    reports += run_claim_trials("associativity", seed=14, trials=10)
    assert len(reports) == 110

    rng = random.Random(15)
    lifts = []
    for kind in PRODUCT_KINDS:
        done = 0
        while done < 3:
            m1 = random_machine(
                rng, n_states=rng.randint(2, 3), alphabet=("a", "b"), name="m1"
            )
            m2 = restricted_direct(m1, exact_machine(1, ("a", "b")))
            found = search_coverings(m1, m2, depth=1)
            if kind == "restricted":
                usable = [
                    p for p in found if all(p.input_map[x] == x for x in m1.alphabet)
                ]
            else:
                usable = [
                    p
                    for p in found
                    if len(set(p.input_map.values())) == len(m1.alphabet)
                ]
            if not usable:
                continue
            pair = usable[rng.randrange(len(usable))]
            side = "left" if done % 2 == 0 else "right"
            m3 = random_machine(
                rng, n_states=rng.randint(2, 3), alphabet=("a", "b"), name="m3"
            )
            wiring = None
            if kind == "cascade":
                wiring = (
                    random_wiring(rng, m1, m3)
                    if side == "left"
                    else random_wiring(rng, m3, m1)
                )
            lifts.append(
                lift_covering(kind, pair, m1, m2, m3, side=side, wiring=wiring)
            )
            done += 1
    assert len(lifts) == 12

    failing = [str(r) for r in reports + lifts if not r]
    record(
        7,
        not failing,
        f"{len(reports)} witness trials and {len(lifts)} covering lifts, "
        f"{len(failing)} failures",
    )


def test_criterion_8_products_stay_valid(five_state):
    rng = random.Random(80)
    population = [five_state]
    for i in range(3):
        population.append(
            random_machine(rng, max_states=4, alphabet=("a", "b"), name=f"r{i}")
        )
    for i in range(2):
        population.append(
            random_machine(rng, max_states=4, alphabet=("c", "d"), name=f"s{i}")
        )

    products = 0
    violations = 0
    strict_checked = 0
    strict_violations = 0
    for m1 in population:
        for m2 in population:
            built = [
                full_direct(m1, m2),
                general_direct(m1, m2, random_bridge(rng, m1, m2)),
                wreath(m1, m2),
                cascade(m1, m2, random_wiring(rng, m1, m2)),
            ]
            if m1.alphabet == m2.alphabet:
                built.append(restricted_direct(m1, m2))
            factors_strict = not (
                validate_machine(m1, strict=True) or validate_machine(m2, strict=True)
            )
            for product in built:
                products += 1
                violations += len(validate_machine(product))
                if factors_strict:
                    strict_checked += 1
                    strict_violations += len(validate_machine(product, strict=True))
    record(
        8,
        violations == 0 and strict_violations == 0,
        f"{products} products validate with {violations} violations; "
        f"{strict_checked} with strictly realizable factors stay strictly "
        f"realizable ({strict_violations} violations)",
    )


def test_criterion_9_round_trips(fixtures_dir):
    identities = 0
    for path in sorted(fixtures_dir.glob("*.machine")):
        machine = parse_machine(path.read_text())
        assert parse_machine(serialize_machine(machine)) == machine
        assert serialize_machine(parse_machine(serialize_machine(machine))) == (
            serialize_machine(machine)
        )
        identities += 1
    assert identities == 3

    rng = random.Random(90)
    generated = []
    for _ in range(2):
        a = random_machine(rng, max_states=3, alphabet=("a", "b"), name="a")
        b = random_machine(rng, max_states=3, alphabet=("a", "b"), name="b")
        generated += [
            full_direct(a, b),
            restricted_direct(a, b),
            general_direct(a, b, random_bridge(rng, a, b)),
            wreath(a, b),
            cascade(a, b, random_wiring(rng, a, b)),
        ]
    assert len(generated) == 10
    for machine in generated:
        assert parse_machine(serialize_machine(machine)) == machine
        identities += 1

    record(
        9,
        identities == 13,
        f"{identities} machines (3 fixtures, 10 generated products) "
        "survive serialize then parse unchanged",
    )
