from __future__ import annotations

import hashlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfsm import (
    CascadeWiring,
    InputBridge,
    core,
    cascade,
    full_direct,
    general_direct,
    parse_machine,
    render_tables,
    restricted_direct,
    serialize_machine,
    wreath,
)
from roughfsm.errors import (
    NameCollision,
    NonDefinableEntry,
    ParseError,
    RoughFsmError,
    SemanticError,
    UnknownState,
    UnknownSymbol,
)
from roughfsm.generate import exact_machine, random_bridge, random_machine, random_wiring
from roughfsm import machine as machine_module
from roughfsm import textio
from roughfsm.machine import word_step
from roughfsm.textio import (
    format_definable,
    format_rough_set,
    parse_bridge,
    parse_state_input_map,
    parse_wiring_triples,
    subset_from_text,
    word_from_text,
    word_text,
)

import oracles

FULL5 = "{q1,q2}∪{q3,q5}∪{q4}"


def table_cells(rendered):
    """Split an aligned table into rows of cell strings."""
    rows = []
    for line in rendered.splitlines():
        rows.append(re.split(r"\s{2,}", line))
    return rows


class TestParseDocument:
    def test_fixture_round_trip_to_the_sample(self, five_state, five_state_sample):
        assert five_state == five_state_sample

    def test_document_name(self, five_state_text):
        assert parse_machine(five_state_text).name == "m5"

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# header comment\n"
            "machine tiny\n"
            "\n"
            "states s1   # trailing comment\n"
            "block s1\n"
            "inputs x\n"
            "trans s1 x lower { s1 } upper { s1 }\n"
        )
        m = parse_machine(text)
        assert m == exact_machine(1, ("x",))

    def test_section_order_is_flexible(self):
        text = (
            "machine tiny\n"
            "inputs x\n"
            "block s1\n"
            "states s1\n"
            "trans s1 x lower { s1 } upper { s1 }\n"
        )
        assert parse_machine(text) == exact_machine(1, ("x",))


class TestSyntaxErrors:
    def expect(self, text, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_machine(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line
        return err.value

    def test_machine_line_must_come_first(self):
        self.expect("states q1\n", "must start with a machine line", line=1)

    def test_second_machine_line(self):
        self.expect("machine a\nmachine b\n", "second machine line", line=2)

    def test_machine_line_arity(self):
        self.expect("machine a b\n", "exactly one name")

    def test_invalid_name(self):
        err = self.expect("machine bad{name\n", "invalid machine name")
        assert err.column == 9

    def test_second_states_line(self):
        self.expect("machine m\nstates q1\nstates q2\n", "second states line", line=3)

    def test_empty_section_lines(self):
        self.expect("machine m\nstates\n", "lists no states")
        self.expect("machine m\nstates q1\nblock\n", "lists no states")
        self.expect("machine m\nstates q1\nblock q1\ninputs\n", "lists no symbols")

    def test_incomplete_transition(self):
        self.expect(
            "machine m\nstates q1\nblock q1\ninputs a\ntrans q1 a\n",
            "incomplete transition",
            line=5,
        )

    def test_sets_must_come_in_order(self):
        base = "machine m\nstates q1\nblock q1\ninputs a\n"
        self.expect(base + "trans q1 a upper { } lower { }\n", "expected 'lower'")
        self.expect(base + "trans q1 a lower q1\n", "expected '{'")

    def test_unterminated_set(self):
        self.expect(
            "machine m\nstates q1\nblock q1\ninputs a\ntrans q1 a lower { q1\n",
            "unterminated set",
        )

    def test_trailing_tokens_rejected(self):
        self.expect(
            "machine m\nstates q1\nblock q1\ninputs a\n"
            "trans q1 a lower { } upper { q1 } extra\n",
            "unexpected token 'extra'",
        )

    @pytest.mark.parametrize(
        "trans, fragment, column",
        [
            ("trans q1 a upper { } lower { }", "expected 'lower'", 12),
            ("trans q1 a lower q1", "expected '{'", 18),
            ("trans q1 a lower", "expected '{'", 12),
            ("trans q1 a lower { } upper", "expected '{'", 22),
            ("trans q1 a lower { } upp { }", "expected 'upper'", 22),
            ("trans q1 a lower { }", "expected 'upper'", 20),
            ("trans q1 a lower { q1", "unterminated set", 20),
            ("trans q1 a lower { } upper { q1", "unterminated set", 30),
            ("trans q1 a lower { } upper { q1 } extra", "unexpected token 'extra'", 35),
            ("trans q1 a lower { q{1 } upper { }", "invalid state name 'q{1'", 20),
            ("trans q1 a lower { q1 } upper { q1} }", "invalid state name 'q1}'", 33),
            ("trans q1 a lower { q{1", "invalid state name 'q{1'", 20),
            ("trans q{1 a lower { } upper { }", "invalid state name 'q{1'", 7),
            ("trans q1 a} lower { } upper { }", "invalid input name 'a}'", 10),
            ("\t  trans  q1 a lower  q1 # trailing { comment", "expected '{'", 23),
        ],
    )
    def test_transition_errors_pin_line_and_column(self, trans, fragment, column):
        err = self.expect(
            "machine m\nstates q1\nblock q1\ninputs a\n" + trans + "\n", fragment, line=5
        )
        assert err.column == column

    @pytest.mark.parametrize(
        "text, fragment, line, column",
        [
            ("machine m\n  flibber q1\n", "unknown directive 'flibber'", 2, 3),
            ("machine m\nstates q1 q}2\n", "invalid state name 'q}2'", 2, 11),
            ("machine m\nstates q1\nblock  q1 {\n", "invalid state name '{'", 3, 11),
            ("machine m\ninputs a b{ c\n", "invalid input name 'b{'", 2, 10),
            ("machine m\nstates q1\n states\n", "second states line", 3, 2),
            ("machine m\ninputs a\ninputs b\n", "second inputs line", 3, 1),
            ("machine m\nstates q1\nblock q1\ninputs a\n trans q1\n", "incomplete transition", 5, 2),
        ],
    )
    def test_other_line_errors_pin_line_and_column(self, text, fragment, line, column):
        assert self.expect(text, fragment, line=line).column == column

    def test_unknown_directive(self):
        self.expect("machine m\nflibber q1\n", "unknown directive 'flibber'", line=2)

    def test_empty_document(self):
        self.expect("", "machine line is required")
        self.expect("  \n# only a comment\n", "machine line is required")

    def test_missing_sections(self):
        self.expect("machine m\n", "missing states line")
        self.expect("machine m\nstates q1\n", "missing block lines")
        self.expect("machine m\nstates q1\nblock q1\n", "missing inputs line")


class TestSemanticErrors:
    def test_duplicate_transition_reports_both_lines(self):
        text = (
            "machine m\nstates q1\nblock q1\ninputs a\n"
            "trans q1 a lower { } upper { q1 }\n"
            "trans q1 a lower { } upper { q1 }\n"
        )
        with pytest.raises(SemanticError) as err:
            parse_machine(text)
        assert "duplicate transition for (q1, a) on line 6" in str(err.value)
        assert "first on line 5" in str(err.value)

    def test_repeated_transition_is_refused_where_it_is_read(self, five_state_text):
        lines = five_state_text.splitlines()
        lines.insert(10, lines[8])  # line 9, trans q1 a, again as line 11

        def outcome(lines):
            return reader_outcome(parse_machine, "\n".join(lines) + "\n")

        def unterminated(line):
            return line.rstrip("} ")

        duplicate = (SemanticError, "duplicate transition for (q1, a) on line 11 (first on line 9)", None, None)
        # A fault read after the repeat, or found once the document is read, gives way to it.
        assert outcome(lines[:12] + [unterminated(lines[12])] + lines[13:]) == duplicate
        assert outcome(lines + ["trans q9 a lower { } upper { q1 q2 }"]) == duplicate
        assert outcome(lines[:7] + lines[8:]) == (
            SemanticError, "duplicate transition for (q1, a) on line 10 (first on line 8)", None, None
        )
        # A fault read before the repeat, or in the repeat's own tail, is raised first.
        assert outcome(lines[:9] + [unterminated(lines[9])] + lines[10:]) == (
            ParseError, "unterminated set, expected '}' (line 10, column 39)", 10, 39
        )
        repeat = lines[10].split(" lower ")[0] + " lower { q1 q2 upper { q1 }"
        assert outcome(lines[:10] + [repeat] + lines[11:]) == (
            ParseError, "invalid state name '{' (line 11, column 32)", 11, 32
        )

    def test_unknown_state_or_input_in_transition(self):
        base = "machine m\nstates q1\nblock q1\ninputs a\n"
        with pytest.raises(SemanticError, match="unknown state q9 on line 5"):
            parse_machine(base + "trans q9 a lower { } upper { q1 }\n")
        with pytest.raises(SemanticError, match="unknown input b on line 5"):
            parse_machine(base + "trans q1 b lower { } upper { q1 }\n")
        with pytest.raises(SemanticError, match="unknown state q9 in lower set"):
            parse_machine(base + "trans q1 a lower { q9 } upper { q1 }\n")
        # A repeated input makes the grid count one cell twice, which an unknown input must not fill.
        repeated = "machine m\nstates q1\nblock q1\ninputs a a\ntrans q1 a lower { } upper { q1 }\n"
        with pytest.raises(SemanticError, match="unknown input b on line 6"):
            parse_machine(repeated + "trans q1 b lower { } upper { q1 }\n")
        with pytest.raises(SemanticError, match="unknown state q9 on line 6"):
            parse_machine(repeated + "trans q9 a lower { } upper { q1 }\n")

    def test_ragged_entry_sets_rejected(self, five_state_text):
        text = five_state_text.replace(
            "trans q2 b lower { q3 q5 }", "trans q2 b lower { q3 }"
        )
        with pytest.raises(NonDefinableEntry, match="not a union of blocks"):
            parse_machine(text)

    def test_bad_partitions_rejected(self):
        overlapping = (
            "machine m\nstates q1 q2\nblock q1 q2\nblock q2\ninputs a\n"
            "trans q1 a lower { } upper { q1 q2 }\n"
            "trans q2 a lower { } upper { q1 q2 }\n"
        )
        with pytest.raises(SemanticError, match="lies in two blocks"):
            parse_machine(overlapping)
        duplicated = "machine m\nstates q1 q1\nblock q1\ninputs a\n"
        with pytest.raises(SemanticError, match="declared twice"):
            parse_machine(duplicated)

    def test_missing_entries_surface_as_violations(self):
        text = "machine m\nstates q1\nblock q1\ninputs a\n"
        with pytest.raises(SemanticError, match="missing table entry"):
            parse_machine(text + "# no transitions\n")

    # Documents the reader checks itself, with the messages and violations that
    # validate_machine gives them.
    SHAPE_ERRORS = [
        (
            "machine m\nstates q1 q2\nblock q1\nblock q2\ninputs a b\n"
            "trans q1 a lower { q1 } upper { q1 }\ntrans q1 b lower { } upper { q2 }\n"
            "trans q2 a lower { q2 } upper { q1 q2 }\n",
            "machine m is not well formed: missing table entry at (q2, b)",
            [("q2", "b", "missing table entry")],
        ),
        (
            "machine m\nstates q1 q2\nblock q1 q2\ninputs a a\n"
            "trans q1 a lower { } upper { q1 q2 }\ntrans q2 a lower { q1 q2 } upper { q1 q2 }\n",
            "machine m is not well formed: alphabet lists a symbol twice",
            [(None, None, "alphabet lists a symbol twice")],
        ),
        (
            "machine m\nstates q1 q2 q3\nblock q1 q2\nblock q3\ninputs a\n"
            "trans q1 a lower { q3 } upper { q1 q2 }\ntrans q2 a lower { q3 } upper { q1 q2 }\n"
            "trans q3 a lower { } upper { q3 }\n",
            "machine m is not well formed: lower approximation not contained in upper at (q1, a);"
            " lower approximation not contained in upper at (q2, a)",
            [("q1", "a", "lower approximation not contained in upper"),
             ("q2", "a", "lower approximation not contained in upper")],
        ),
    ]

    @pytest.mark.parametrize("text, message, violations", SHAPE_ERRORS)
    def test_shape_errors_carry_the_validator_violations(self, text, message, violations):
        with pytest.raises(SemanticError) as err:
            parse_machine(text)
        assert type(err.value) is SemanticError
        assert str(err.value) == message
        assert [(v.state, v.symbol, v.reason) for v in err.value.violations] == violations


class TestRoundTrip:
    def test_fixture_survives_serialize_then_parse(self, five_state, five_state_text):
        again = parse_machine(serialize_machine(five_state))
        assert again == five_state
        assert serialize_machine(again) == serialize_machine(five_state)

    def test_serialized_form_is_canonical(self, five_state):
        text = serialize_machine(five_state)
        lines = text.splitlines()
        assert lines[0] == "machine m5"
        assert lines[1] == "states q1 q2 q3 q4 q5"
        assert lines[2:5] == ["block q1 q2", "block q3 q5", "block q4"]
        assert lines[5] == "inputs a b"
        assert lines[6] == "trans q1 a lower { q1 q2 } upper { q1 q2 q3 q5 }"
        assert text.endswith("\n")
        assert len(lines) == 6 + 10

    def test_empty_sets_write_as_open_close(self, five_state):
        assert "lower { } upper { q3 q5 }" in serialize_machine(five_state)

    def test_product_machines_round_trip(self, five_state):
        rng = random.Random(17)
        m2 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="m2")
        built = [
            full_direct(five_state, m2),
            restricted_direct(five_state, m2),
            general_direct(five_state, m2, random_bridge(rng, five_state, m2)),
            wreath(five_state, m2),
            cascade(five_state, m2, random_wiring(rng, five_state, m2)),
        ]
        for machine in built:
            again = parse_machine(serialize_machine(machine))
            assert again == machine
            assert serialize_machine(again) == serialize_machine(machine)

    def test_structured_names_parse_as_single_tokens(self, five_state):
        squared = full_direct(five_state, five_state)
        again = parse_machine(serialize_machine(squared))
        assert "(q1,q1)" in again.space.states
        assert ("a", "b") not in again.alphabet
        assert "(a,b)" in again.alphabet

    def test_colliding_product_names_are_refused(self):
        # ("x,y", "z") and ("x", "y,z") both print as (x,y,z); a document
        # naming two states alike could not be parsed back.
        m1, m2 = colliding_factors()
        with pytest.raises(NameCollision, match=r"both print as \(x,y,z\)"):
            serialize_machine(full_direct(m1, m2))

    def test_colliding_symbol_names_are_refused(self):
        space = core.make_partition(["q"], [["q"]])
        alphabet = ("(a,b)", ("a", "b"))
        table = {("q", x): core.approximate(space, ["q"]) for x in alphabet}
        m = machine_module.make_machine(space, alphabet, table, "symbols")
        with pytest.raises(NameCollision, match="input symbols"):
            serialize_machine(m)

    @pytest.mark.parametrize("kind", ["machine", "state", "input symbol"])
    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\nb", "a{b", "a}b", "q#1"])
    def test_names_the_reader_cannot_take_back_are_refused(self, kind, bad):
        # "a b" would read as two states and "q#1" lose its tail to the comment cut.
        names = {"state": "q", "input symbol": "a", "machine": "m", kind: bad}
        state, symbol = names["state"], names["input symbol"]
        space = core.make_partition([state], [[state]])
        table = {(state, symbol): core.approximate(space, [state])}
        m = machine_module.make_machine(space, (symbol,), table, names["machine"])
        with pytest.raises(NameCollision, match=f"^{kind} {re.escape(repr(bad))} prints as"):
            serialize_machine(m)

    def test_equal_entries_parse_to_one_shared_rough_set(self):
        rng = random.Random(19)
        m1 = random_machine(rng, n_states=3, alphabet=("a", "b"), name="m1")
        m2 = random_machine(rng, n_states=3, alphabet=("a", "b"), name="m2")
        text = serialize_machine(wreath(m1, m2))
        again = parse_machine(text)
        member_texts = {line.split(None, 3)[3] for line in text.splitlines() if line.startswith("trans ")}
        assert len(again.table) > len(member_texts)
        assert len({id(r) for r in again.table.values()}) == len(member_texts)
        # Tails that differ only in spacing still share one rough set.
        lines = text.splitlines()
        respaced = [line.replace(" } ", "  }\t", 1) if i % 3 else line for i, line in enumerate(lines)]
        spaced = parse_machine("\n".join(respaced))
        assert spaced == again
        assert len({id(r) for r in spaced.table.values()}) == len(member_texts)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_products_of_adversarially_named_machines_round_trip(self, data):
        # Names holding commas and parentheses make product names collide;
        # a product either refuses to be written or survives the round trip.
        m1 = data.draw(adversarially_named_machine("m1"))
        m2 = data.draw(adversarially_named_machine("m2"))

        def pick(values):
            return data.draw(st.sampled_from(values))

        bridge = InputBridge(("u1", "u2"), {u: (pick(m1.alphabet), pick(m2.alphabet)) for u in ("u1", "u2")})
        wiring = CascadeWiring({(q2, x2): pick(m1.alphabet) for q2 in m2.space.states for x2 in m2.alphabet})
        built = [
            full_direct(m1, m2),
            restricted_direct(m1, m1),
            general_direct(m1, m2, bridge),
            wreath(m1, m2),
            cascade(m1, m2, wiring),
        ]
        for product in built:
            try:
                text = serialize_machine(product)
            except NameCollision:
                continue
            again = parse_machine(text)
            assert again == product
            assert serialize_machine(again) == text


# Joined by commas inside parentheses, these print alike in many ways: ("a", "a,a") and ("a,a", "a").
NAMES = st.sampled_from(["a", "a,", ",a", "a,a", "(a", "a)"])


@st.composite
def adversarially_named_machine(draw, name):
    """A machine of at most three states and three symbols, named with commas and parentheses."""
    states = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    symbols = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    cells = [states] if draw(st.booleans()) else [[q] for q in states]
    space = core.make_partition(states, cells)
    subsets = st.lists(st.sampled_from(states), unique=True)
    table = {(q, x): core.approximate(space, draw(subsets)) for q in states for x in symbols}
    return machine_module.make_machine(space, symbols, table, name)


def colliding_factors():
    """Two legal one-letter machines whose full product repeats a state name."""

    def one_letter(states, name):
        space = core.make_partition(states, [[q] for q in states])
        table = {(q, "a"): core.approximate(space, [q]) for q in states}
        return machine_module.make_machine(space, ("a",), table, name)

    return one_letter(["x,y", "x"], "m1"), one_letter(["y,z", "z"], "m2")


def seeded_products(seed):
    """Products of every kind from seeded random machines, two of them products of products."""
    rng = random.Random(seed)
    m1 = random_machine(rng, max_states=4, alphabet=("a", "b"), name="m1")
    m2 = random_machine(rng, max_states=3, alphabet=("a", "b"), name="m2")
    m3 = random_machine(rng, max_states=3, alphabet=("c",), name="m3")
    inner = full_direct(m1, m2)
    return [
        inner,
        full_direct(inner, m3),
        restricted_direct(inner, inner),
        general_direct(m1, m2, random_bridge(rng, m1, m2)),
        cascade(m1, m2, random_wiring(rng, m1, m2)),
        wreath(m1, m2),
        wreath(inner, m3),
    ]


class TestNamesRenderedOnce:
    @pytest.mark.parametrize("seed", range(8))
    def test_key_matches_the_brute_key_and_text_is_stable(self, seed):
        for product in seeded_products(seed):
            assert product.canonical_key() == oracles.brute_canonical_key(product)
            text = serialize_machine(product)
            again = parse_machine(text)
            assert again.canonical_key() == oracles.brute_canonical_key(again)
            assert again == product
            assert serialize_machine(again) == text

    def test_serialize_and_key_render_each_name_once(self, monkeypatch):
        rng = random.Random(5)
        m1 = random_machine(rng, n_states=12, alphabet=("a", "b"), name="f1")
        m2 = random_machine(rng, n_states=12, alphabet=("a", "b"), name="f2")
        product = full_direct(m1, m2)
        n_states, n_symbols = len(product.space.states), len(product.alphabet)
        assert n_states == 144
        real = core.value_name
        depth = 0
        top_level = 0

        def counting(value):
            # Calls from inside value_name render tuple components.
            nonlocal depth, top_level
            top_level += depth == 0
            depth += 1
            try:
                return real(value)
            finally:
                depth -= 1

        for module in (core, textio, machine_module):
            monkeypatch.setattr(module, "value_name", counting)
        text = serialize_machine(product)
        assert 0 < top_level <= n_states + n_symbols
        top_level = 0
        product.canonical_key()
        assert top_level <= n_symbols
        monkeypatch.undo()
        assert text == serialize_machine(product)


# sha256 of serialize_machine on seeded_products(seed): the writer's bytes must not move.
SERIALIZED_SHA256 = {
    0: [
        "34d44bb87880f217ab764a5f2a848b6dfc16ed91b5cfbac795e7e3f2da857a91",
        "5925ec325b434d1edd0d631a716d991db0beeca6f333fb4ae0856e6e841ad2ed",
        "0bf92f9363084fb3497581c4a2e5fde331a60897439eb6adb2932466a3ac9f33",
        "f0a4bf8dfcc5a4554b5286f99883367025e4cb4c3071abb4d92e7a16696bb4cb",
        "0cdfa2b3f79793bfcf13b8140447499f37b5448f7927eb72b9bf06a011fdaf89",
        "2a47759f671ad450497b19dc90896da043c9885816eec23e89a9d3225d1409af",
        "b494484aa42ffba1fb714b4fb53185e5374e0c40e11f7a8d5859ff3e6a134b12",
    ],
    1: [
        "6c33be1d2086f55455938d8e54bd6e3d2ad347df9e5840f3b8edfe03e6a8eb24",
        "bc146411aa556457ac808c7364ef4a758215cfe5e1c883bacb53bd76851001c9",
        "449aa4855bcde8f93192c9d3f9613d8b5841fc6e49b224123a67724a7c9856b7",
        "7c2713975a3232feaf1431e47402fd118a0cd7c6820a82647df7c67a38f95e1b",
        "c0cc3b11c971dfea2583f1130fac9680095eb77456098903cf573d234c3b9211",
        "873130638c31d14713fd3863afb4f1928be03c8b57af5357557f56a322a2a37d",
        "8274065b233ee4b330157288057ee5cbd0dcafaae32c71f890258c41f5142d77",
    ],
}


@pytest.mark.parametrize("seed", sorted(SERIALIZED_SHA256))
def test_serialized_bytes_are_pinned(seed):
    texts = [serialize_machine(p).encode("utf-8") for p in seeded_products(seed)]
    assert [hashlib.sha256(t).hexdigest() for t in texts] == SERIALIZED_SHA256[seed]


# sha256 of serialize_machine on two larger products whose sides span many bytes of a position mask.
LARGE_PRODUCT_SHA256 = {
    "full 12x12": "3bb5edb8360dbbc185603e27eefeeacccbc2350af1ce5256740e5f1dc3587307",
    "wreath 6x6": "d7a75f91874fcfadccc15b2d81853ea7eef428e491c5b11945f56e167c055578",
}


def large_products():
    rng = random.Random(12)
    m1, m2 = (random_machine(rng, n_states=12, alphabet="ab", min_block_size=2) for _ in range(2))
    yield "full 12x12", full_direct(m1, m2)
    rng = random.Random(6)
    m1, m2 = (random_machine(rng, n_states=6, alphabet="ab", min_block_size=2) for _ in range(2))
    yield "wreath 6x6", wreath(m1, m2)


def test_large_products_are_pinned():
    for key, product in large_products():
        text = serialize_machine(product)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LARGE_PRODUCT_SHA256[key]
        assert parse_machine(text) == product


def test_parsing_a_dense_document_keeps_little_memory():
    m = random_machine(random.Random(1), n_states=200, alphabet="abcd", min_block_size=2)
    text = serialize_machine(m)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_machine(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert parsed == m
    # The 742 KB document and the machine it reads (about 3 MB of block-id sets)
    # must not bring the token lists of every tail along.
    assert peak <= 6_000_000


def reader_outcome(read, text):
    """The machine `read` makes of `text`, or the type, message, line and column of its error."""
    try:
        return read(text)
    except RoughFsmError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)


def mutate(rng, text):
    """`text` with one to three edits of the kinds a reader must refuse or read past."""
    lines = text.splitlines()
    trans = [i for i, line in enumerate(lines) if line.startswith("trans ")]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        k = rng.randrange(len(tokens)) if tokens else 0
        edit = rng.randrange(9)
        if edit == 0 and tokens:  # a token dropped
            lines[i] = " ".join(tokens[:k] + tokens[k + 1 :])
        elif edit == 1 and tokens:  # a token duplicated
            lines[i] = " ".join(tokens[: k + 1] + tokens[k:])
        elif edit == 2 and tokens:  # a token braced
            tokens[k] = rng.choice(["{", "}", "{" + tokens[k], tokens[k] + "}"])
            lines[i] = " ".join(tokens)
        elif edit == 3:  # a tail read before, under a bad state or input token
            _, state, symbol, tail = lines[rng.choice(trans)].split(None, 3)
            bad = rng.choice(["zz", "q{", "}", "{"])
            state, symbol = (bad, symbol) if rng.random() < 0.5 else (state, bad)
            lines.insert(rng.randint(i, len(lines)), f"trans {state} {symbol} {tail}")
        elif edit == 4:  # a trailing comment, or a '#' inside a token
            lines[i] += rng.choice([" # note", "#", "  #trans q a"])
            if tokens and rng.random() < 0.3:
                tokens[k] += "#x"
                lines[i] = " ".join(tokens)
        elif edit == 5:  # extra spaces
            lines[i] = rng.choice(["  ", "\t", ""]) + lines[i].replace(" ", rng.choice(["  ", " \t "]), 2) + "  "
        elif edit == 6:  # a duplicate transition
            lines.insert(rng.randint(i, len(lines)), lines[rng.choice(trans)])
        elif edit == 7:  # a transition moved onto another state's tail
            j, k = rng.choice(trans), rng.choice(trans)
            lines[j] = " ".join(lines[j].split(None, 3)[:3] + [lines[k].split(None, 3)[3]])
        else:  # a set member replaced, repeated or unknown
            j = rng.choice(trans)
            tokens = lines[j].split()
            members = [m for m, t in enumerate(tokens) if m > 2 and t not in ("lower", "upper", "{", "}")]
            if members:
                tokens[rng.choice(members)] = rng.choice(["zz", tokens[rng.choice(members)], tokens[1]])
                lines[j] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestAgainstReferenceReader:
    def documents(self, seed):
        rng = random.Random(seed)
        m1 = random_machine(rng, max_states=4, alphabet=("a", "b"), name="m1")
        m2 = random_machine(rng, max_states=3, alphabet=("a", "b"), name="m2")
        return [
            serialize_machine(p)
            for p in (
                full_direct(m1, m2),
                restricted_direct(m1, m2),
                general_direct(m1, m2, random_bridge(rng, m1, m2)),
                wreath(m1, m2),
                cascade(m1, m2, random_wiring(rng, m1, m2)),
            )
        ]

    @staticmethod
    def reordered(text):
        """Documents that test the reader's order of work, each with the outcome it must have.

        The header after the trans lines, a block line after the first trans
        line, a malformed tail after a non-definable entry, and the same two
        lines the other way round: the syntax error wins in both.
        """
        machine_line, *lines = text.splitlines()
        trans = [line for line in lines if line.startswith("trans ")]
        head = [line for line in lines if not line.startswith("trans ")]
        last_block = max(i for i, line in enumerate(head) if line.startswith("block "))
        wide = next(line.split()[1:] for line in head if line.startswith("block ") and len(line.split()) > 2)

        def ragged(line):  # one member of a two-or-more-state block alone makes the upper ragged
            return " ".join(line.split()[:3] + ["lower", "{", "}", "upper", "{", wide[0], "}"])

        def unterminated(line):
            return line.rstrip("} ")

        return [
            ([machine_line] + trans + head, None),
            ([machine_line] + head[:last_block] + head[last_block + 1 :] + trans[:1] + [head[last_block]] + trans[1:],
             None),
            ([machine_line] + head + [ragged(trans[0])] + trans[1:-1] + [unterminated(trans[-1])], ParseError),
            ([machine_line] + head + [unterminated(trans[0])] + trans[1:-1] + [ragged(trans[-1])], ParseError),
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_reordered_documents_read_as_the_reference_reads_them(self, seed):
        rng = random.Random(seed)
        m1 = random_machine(rng, n_states=4, alphabet=("a", "b"), name="m1", min_block_size=2)
        m2 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="m2", min_block_size=2)
        for product in (full_direct(m1, m2), wreath(m1, m2), cascade(m1, m2, random_wiring(rng, m1, m2))):
            for lines, error in self.reordered(serialize_machine(product)):
                text = "\n".join(lines) + "\n"
                got = reader_outcome(parse_machine, text)
                want = reader_outcome(oracles.reference_parse_machine, text)
                if error is None:
                    assert got == want == product
                    assert got.canonical_key() == want.canonical_key()
                else:
                    assert got == want and want[0] is error, text
        # Without the malformed tail the ragged entry is what the reader refuses.
        text = "\n".join(self.reordered(serialize_machine(m1))[2][0][:-1]) + "\n"
        assert reader_outcome(parse_machine, text)[0] is NonDefinableEntry
        assert reader_outcome(parse_machine, text) == reader_outcome(oracles.reference_parse_machine, text)

    @staticmethod
    def agree(rng, text, mutations):
        """Both readers make the same of `text` and of `mutations` mutations of it."""
        for mutated in [text] + [mutate(rng, text) for _ in range(mutations)]:
            got = reader_outcome(parse_machine, mutated)
            want = reader_outcome(oracles.reference_parse_machine, mutated)
            if isinstance(want, tuple):
                assert got == want, mutated
            else:
                assert got == want and got.name == want.name
                assert got.canonical_key() == want.canonical_key()

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_reader_agrees_with_the_reference(self, seed):
        rng = random.Random(seed)
        for text in self.documents(seed):
            self.agree(rng, text, 12)

    @pytest.mark.parametrize("seed", range(3))
    def test_fast_reader_agrees_on_documents_of_many_states(self, seed):
        # Products of 96 to 144 states over factors of two-state blocks, and a 36-state
        # wreath of 128 letters: many lines and long member lists share few tails.
        rng = random.Random(seed)
        n1, n2 = [(12, 8), (10, 10), (12, 12)][seed]
        m1, m2 = paired_blocks_machine(rng, n1, "m1", "q"), paired_blocks_machine(rng, n2, "m2", "p")
        assert len(full_direct(m1, m2).space.states) in (96, 100, 144)
        self.agree(rng, serialize_machine(full_direct(m1, m2)), 6)
        self.agree(rng, serialize_machine(cascade(m1, m2, random_wiring(rng, m1, m2))), 4)
        if seed == 0:
            w1, w2 = paired_blocks_machine(rng, 6, "w1", "q"), paired_blocks_machine(rng, 6, "w2", "p")
            text = serialize_machine(wreath(w1, w2))
            assert text.count("\ntrans ") == 36 * 128
            self.agree(rng, text, 4)


def paired_blocks_machine(rng, n_states, name, prefix):
    """A machine over "ab" whose blocks are random pairs of states, each entry approximating a random subset."""
    states = [f"{prefix}{i}" for i in range(1, n_states + 1)]
    shuffled = rng.sample(states, n_states)
    space = core.make_partition(states, [shuffled[i : i + 2] for i in range(0, n_states, 2)])
    table = {(q, x): core.approximate(space, rng.sample(states, n_states // 2)) for q in states for x in "ab"}
    return machine_module.make_machine(space, ("a", "b"), table, name)


class TestFormatting:
    def test_definable_notation(self, five_state):
        space = five_state.space
        assert format_definable(space.empty_set()) == "φ"
        assert format_definable(space.definable([0, 2])) == "{q1,q2}∪{q4}"
        assert format_definable(space.full_set()) == FULL5

    def test_rough_set_notation(self, five_state):
        assert format_rough_set(five_state.entry("q2", "a")) == "(φ,{q3,q5})"

    def test_word_text(self):
        assert word_text(()) == "e"
        assert word_text(("a", "b")) == "ab"
        assert word_text((("a", "b"), ("a", "b"))) == "(a,b),(a,b)"

    def test_word_from_text_matches_greedily(self, five_state):
        # Texts whose only reading is also the longest-first one; texts
        # where the two differ are in the tests that follow.
        assert word_from_text(five_state, "ab") == ("a", "b")
        assert word_from_text(five_state, "a, b") == ("a", "b")
        assert word_from_text(five_state, "") == ()
        overlapping = exact_machine(1, ("a", "ab"))
        assert word_from_text(overlapping, "ab") == ("ab",)
        assert word_from_text(overlapping, "aba") == ("ab", "a")

    def test_word_from_text_reads_structured_names(self, five_state):
        squared = full_direct(five_state, five_state)
        assert word_from_text(squared, "(a,b)(a,b)") == (("a", "b"), ("a", "b"))

    def test_word_from_text_rejects_garbage(self, five_state):
        with pytest.raises(UnknownSymbol, match="cannot read an input symbol"):
            word_from_text(five_state, "axb")

    def test_word_from_text_finds_the_only_reading(self):
        # Longest-first matching takes ab and is then stuck at c.
        m = exact_machine(1, ("a", "ab", "bc"))
        assert word_from_text(m, "abc") == ("a", "bc")
        assert word_from_text(m, "ab, abc") == ("ab", "a", "bc")
        with pytest.raises(UnknownSymbol, match="cannot read an input symbol at 'x'"):
            word_from_text(m, "abcx")

    def test_word_from_text_rejects_two_readings(self):
        m = exact_machine(1, ("a", "ab", "b"))
        with pytest.raises(UnknownSymbol, match="'ab' reads two ways, as 'ab' and as 'a b'"):
            word_from_text(m, "ab")
        assert word_from_text(m, "a b") == ("a", "b")
        assert word_from_text(m, "b,a") == ("b", "a")
        with pytest.raises(UnknownSymbol, match="reads two ways"):
            word_from_text(m, "b abab")

    def test_subset_from_text(self, five_state):
        assert subset_from_text(five_state.space, "q1,q3") == ("q1", "q3")
        squared = full_direct(five_state, five_state)
        assert subset_from_text(squared.space, "(q1,q2)(q3,q4)") == (
            ("q1", "q2"),
            ("q3", "q4"),
        )
        with pytest.raises(UnknownState, match="cannot read a state name"):
            subset_from_text(five_state.space, "q1 zz")

    def test_subset_from_text_needs_exactly_one_reading(self):
        space = core.make_partition(["p", "pq", "qr"], [["p"], ["pq"], ["qr"]])
        assert subset_from_text(space, "pqr") == ("p", "qr")
        space = core.make_partition(["p", "pq", "q"], [["p", "pq", "q"]])
        with pytest.raises(UnknownState, match="'pq' reads two ways, as 'pq' and as 'p q'"):
            subset_from_text(space, "pq")
        assert subset_from_text(space, "p,q") == ("p", "q")


STATE_TABLE_CELLS = {
    "q1": ["({q1,q2},{q1,q2}∪{q3,q5})", "({q4},{q3,q5}∪{q4})"],
    "q2": ["(φ,{q3,q5})", "({q3,q5}," + FULL5 + ")"],
    "q3": ["({q3,q5}∪{q4}," + FULL5 + ")", "({q1,q2},{q1,q2}∪{q4})"],
    "q4": ["({q4},{q1,q2}∪{q4})", "({q4}," + FULL5 + ")"],
    "q5": ["({q1,q2}∪{q4}," + FULL5 + ")", "({q1,q2},{q1,q2}∪{q3,q5})"],
}

BLOCK_TABLE_CELLS = {
    "{q1,q2}∪{q3,q5}": [f"({FULL5},{FULL5})", f"({FULL5},{FULL5})"],
    "{q1,q2}∪{q4}": [
        "({q1,q2}∪{q4}," + FULL5 + ")",
        "({q3,q5}∪{q4}," + FULL5 + ")",
    ],
    "{q3,q5}∪{q4}": [f"({FULL5},{FULL5})", "({q1,q2}∪{q4}," + FULL5 + ")"],
}


class TestRenderTables:
    def test_state_table_cells(self, five_state):
        rows = table_cells(render_tables(five_state))
        assert rows[0] == ["Q", "δ(q,a)", "δ(q,b)"]
        assert len(rows) == 6
        for label, *cells in rows[1:]:
            assert cells == STATE_TABLE_CELLS[label]

    def test_exact_layout_on_a_tiny_machine(self):
        rendered = render_tables(exact_machine(1, ("x",)))
        assert rendered == "Q   δ(q,x)\ns1  ({s1},{s1})"

    def test_word_column(self, five_state):
        rendered = render_tables(five_state, kind="state", word=("a", "b"))
        rows = table_cells(rendered)
        assert rows[0] == ["Q", "δ*(q,ab)"]
        expected = format_rough_set(word_step(five_state, "q1", ("a", "b")))
        assert rows[1] == ["q1", expected]
        assert expected == "({q3,q5}∪{q4}," + FULL5 + ")"

    def test_block_table_rows_and_cells(self, five_state):
        rows = table_cells(render_tables(five_state, kind="block"))
        assert rows[0] == ["D", "δD(D,a)", "δD(D,b)"]
        assert [r[0] for r in rows[1:]] == list(BLOCK_TABLE_CELLS)
        for label, *cells in rows[1:]:
            assert cells == BLOCK_TABLE_CELLS[label]

    def test_block_word_column_header(self, five_state):
        rendered = render_tables(five_state, kind="block", word=("a", "b"))
        assert "δD*(D,ab)" in rendered

    def test_block_table_can_be_empty(self):
        rendered = render_tables(exact_machine(2, ("x",)), kind="block")
        assert "(no multi-block definable sets occur in the table)" in rendered

    def test_footnotes_mark_cells_and_list_notes(self, five_state):
        notes = {("{q3,q5}∪{q4}", "b"): "computed as the union over the member rows"}
        rendered = render_tables(five_state, kind="block", footnotes=notes)
        assert "({q1,q2}∪{q4}," + FULL5 + ")*" in rendered
        assert rendered.endswith("* computed as the union over the member rows")

    def test_unknown_kind_rejected(self, five_state):
        with pytest.raises(ValueError):
            render_tables(five_state, kind="diagonal")


class TestMapParsers:
    def test_state_input_map(self):
        text = "# relabeling\nstate q1 p1\nstate q2 p2\ninput a c\n"
        state_map, input_map = parse_state_input_map(text)
        assert state_map == {"q1": "p1", "q2": "p2"}
        assert input_map == {"a": "c"}

    def test_map_errors(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_state_input_map("states q1 p1\n")
        with pytest.raises(ParseError, match="needs FROM and TO"):
            parse_state_input_map("state q1\n")
        with pytest.raises(ParseError, match="mapped twice"):
            parse_state_input_map("state q1 p1\nstate q1 p2\n")

    def test_wiring_triples_keep_order(self):
        triples = parse_wiring_triples("q1 a b\nq1 b a\nq2 a a\n")
        assert triples == [("q1", "a", "b"), ("q1", "b", "a"), ("q2", "a", "a")]
        with pytest.raises(ParseError, match="STATE INPUT FED_INPUT"):
            parse_wiring_triples("q1 a\n")

    def test_repeated_wiring_pair_pins_line_and_column(self):
        with pytest.raises(ParseError, match=re.escape("declares (q1, a) twice")) as err:
            parse_wiring_triples("q1 a a\nq1 a b\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_bridge_parsing(self):
        bridge = parse_bridge("u a c\nv b d\n")
        assert bridge.carrier == ("u", "v")
        assert bridge.pair_for("u") == ("a", "c")
        assert bridge.pair_for("v") == ("b", "d")
        with pytest.raises(ParseError, match="declared twice"):
            parse_bridge("u a c\nu b d\n")
        with pytest.raises(ParseError, match="SYMBOL FIRST SECOND"):
            parse_bridge("u a\n")


def make_cascade_wiring_text(machine):
    return "\n".join(
        f"{q} {x} {x}" for q in machine.space.states for x in machine.alphabet
    )


class TestWiringTextIntegration:
    def test_triples_build_a_working_wiring(self, five_state):
        triples = parse_wiring_triples(make_cascade_wiring_text(five_state))
        wiring = CascadeWiring({(q, x): fed for q, x, fed in triples})
        assert cascade(five_state, five_state, wiring) == restricted_direct(
            five_state, five_state
        )
