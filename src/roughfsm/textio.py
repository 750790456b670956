"""The machine text format, table rendering, and the small map formats.

A machine document looks like:

    # free comment
    machine m5
    states q1 q2 q3 q4 q5
    block q1 q2
    block q3 q5
    block q4
    inputs a b
    trans q1 a lower { q1 q2 } upper { q1 q2 q3 q5 }
    ...

Names are single tokens without whitespace, braces or '#'. The machine
line comes first; states, block, inputs and trans lines may follow in
any order, since transitions are resolved once the whole document is
read. The serializer
always writes the canonical order shown above, with blocks in block-id
order and transitions sorted by state then symbol, so serialized
documents diff cleanly and parse back to an equal machine.

Entry state lists must be unions of blocks; ragged lists raise
NonDefinableEntry. The empty set is written { } in files and rendered
as the symbol phi in tables.

The readers split each line once on whitespace, cutting a comment only
where '#' occurs, and find a token's column only when raising
ParseError. The machine reader reads its lines in one pass. A transition
line splits into keyword, state, input and tail text, and leaves the
index of its tail and, keyed by its (state, input), its line number; a
repeated transition is refused at its line as it is read. A tail
read before costs one lookup; a new one is cut into its lower and upper
member texts, by one partition when it has the writer's spacing and by
tokens otherwise. After the pass each distinct member text is resolved to a
block mask once; equal masks share one definable set and equal mask
pairs one rough set. The keys are checked in bulk: they are the grid of
states by distinct inputs, none unknown and none missing, when they are
as many as its cells and each cell is one of them. Only when that check
fails, or a member text is no block mask, are the transitions walked
once, to raise the first fault in document order. The reader calls
validate_machine only to report a shape it cannot accept.

The writer renders one tail per distinct entry object and one member
text per distinct side mask, picking the member names at the set bits
of the side's member-position mask, then writes every line in one pass.
"""

from __future__ import annotations

import re
from itertools import chain, cycle, product, repeat

from .errors import (
    DuplicateState,
    NameCollision,
    NonDefinableEntry,
    NonPartition,
    ParseError,
    SemanticError,
    UnknownState,
    UnknownSymbol,
)
from .core import make_partition, union_bits, value_name, ApproximationSpace, DefinableSet, RoughSet
from .machine import Machine, block_step, block_word_step, make_machine, word_step
from .products import InputBridge

__all__ = [
    "parse_machine",
    "serialize_machine",
    "render_tables",
    "parse_state_input_map",
    "parse_wiring_triples",
    "parse_bridge",
    "word_from_text",
    "subset_from_text",
    "format_definable",
    "format_rough_set",
]

EMPTY_SET_MARK = "φ"  # phi
UNION_MARK = "∪"
_UNREADABLE = re.compile(r"[\s{}#]")  # what splits or cuts a name token on reading


def _rows(text: str, maxsplit: int = -1):
    """(line number, line, tokens) of each line holding a token once its comment is cut, split maxsplit times.

    Each line is let go once read, so a long document is not held twice over.
    """
    lines = text.splitlines()
    lines.reverse()
    for lineno in range(1, len(lines) + 1):
        line = lines.pop()
        tokens = (line.split("#", 1)[0] if "#" in line else line).split(None, maxsplit)
        if tokens:
            yield lineno, line, tokens


def _column(line: str, index: int) -> int:
    """1-based column of token `index` of a line; only errors need it."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line.split("#", 1)[0])][index]


def _names(tokens: list[str], start: int, stop: int, line: str, lineno: int, what: str) -> list[str]:
    """tokens[start:stop], refused at the first one holding a brace.

    Split tokens hold no whitespace and the comment cut removed '#'.
    """
    names = tokens[start:stop]
    joined = " ".join(names)
    if "{" in joined or "}" in joined:
        k = next(k for k, t in enumerate(names) if "{" in t or "}" in t)
        raise ParseError(f"invalid {what} name {names[k]!r}", lineno, _column(line, start + k))
    return names


def _tail_sides(tokens, line, lineno) -> tuple[str, str]:
    """The lower and upper member texts of the tail `lower { ... } upper { ... }` of a split trans line."""
    head, cut, rest = tokens[3].partition("} upper { ")
    # The writer's layout: one space around each brace, none left over at the end, no brace inside.
    if cut and head.startswith("lower { ") and head[-1] == " " and (rest == "}" or rest.endswith(" }")):
        lower, upper = head[8:], rest[:-1]
        if not ("{" in lower or "}" in lower or "{" in upper or "}" in upper):
            return lower, upper
    return tuple(map(" ".join, _tail_names(tokens, line, lineno)))


def _tail_names(tokens, line, lineno) -> tuple[list[str], list[str]]:
    """The (lower, upper) member names of a tail, or the ParseError at its first bad token."""
    tokens = tokens[:3] + tokens[3].split()
    end = len(tokens)

    def read_set(i, keyword):
        if i == end or tokens[i] != keyword:
            raise ParseError(f"expected '{keyword}'", lineno, _column(line, min(i, end - 1)))
        if i + 1 == end or tokens[i + 1] != "{":
            raise ParseError("expected '{'", lineno, _column(line, min(i + 1, end - 1)))
        try:
            close = tokens.index("}", i + 2)
        except ValueError:
            close = end
        members = _names(tokens, i + 2, close, line, lineno, "state")
        if close == end:
            raise ParseError("unterminated set, expected '}'", lineno, _column(line, -1))
        return members, close + 1

    lower, i = read_set(3, "lower")
    upper, i = read_set(i, "upper")
    if i < end:
        raise ParseError(f"unexpected token {tokens[i]!r}", lineno, _column(line, i))
    return lower, upper


def parse_machine(text: str) -> Machine:
    """Parse a machine document; see the module docstring for the format.

    The machine line's name becomes the machine's `name`.
    """
    name = states = inputs = None
    blocks: list[list[str]] = []
    tails = {}  # tail text -> its index in `sides`
    sides = []  # the (lower, upper) member texts of each distinct tail
    lines = {}  # (state, input) of each transition line -> its line number
    tail_ids = []  # per transition line, the index of its tail in `sides`

    for lineno, line, tokens in _rows(text, 3):
        keyword = tokens[0]
        if keyword == "trans" and name is not None:
            if len(tokens) < 4:
                raise ParseError("incomplete transition line", lineno, _column(line, 0))
            _, state, symbol, tail = tokens
            if "{" in state or "}" in state or "{" in symbol or "}" in symbol:
                _names(tokens, 1, 2, line, lineno, "state")
                _names(tokens, 2, 3, line, lineno, "input")
            tail_id = tails.get(tail)
            if tail_id is None:
                tail_id = tails[tail] = len(sides)
                sides.append(_tail_sides(tokens, line, lineno))
            # Keyed once its tail is read, so a repeated line with a malformed tail raises its ParseError.
            first = lines.setdefault((state, symbol), lineno)
            if first != lineno:
                raise SemanticError(
                    f"duplicate transition for ({state}, {symbol}) on line {lineno} (first on line {first})"
                )
            tail_ids.append(tail_id)
            continue
        if len(tokens) == 4:
            tokens[3:] = tokens[3].split()
        if name is None:
            if keyword != "machine":
                raise ParseError("document must start with a machine line", lineno, _column(line, 0))
            if len(tokens) != 2:
                raise ParseError("machine line needs exactly one name", lineno, _column(line, 0))
            (name,) = _names(tokens, 1, 2, line, lineno, "machine")
        elif keyword == "machine":
            raise ParseError("second machine line", lineno, _column(line, 0))
        elif keyword == "states":
            if states is not None:
                raise ParseError("second states line", lineno, _column(line, 0))
            if len(tokens) == 1:
                raise ParseError("states line lists no states", lineno, _column(line, 0))
            states = _names(tokens, 1, len(tokens), line, lineno, "state")
        elif keyword == "block":
            if len(tokens) == 1:
                raise ParseError("block line lists no states", lineno, _column(line, 0))
            blocks.append(_names(tokens, 1, len(tokens), line, lineno, "state"))
        elif keyword == "inputs":
            if inputs is not None:
                raise ParseError("second inputs line", lineno, _column(line, 0))
            if len(tokens) == 1:
                raise ParseError("inputs line lists no symbols", lineno, _column(line, 0))
            inputs = _names(tokens, 1, len(tokens), line, lineno, "input")
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, _column(line, 0))

    if name is None:
        raise ParseError("empty document; a machine line is required")
    if states is None:
        raise ParseError("missing states line")
    if not blocks:
        raise ParseError("missing block lines")
    if inputs is None:
        raise ParseError("missing inputs line")

    try:
        space = make_partition(states, blocks)
    except (DuplicateState, NonPartition) as e:
        raise SemanticError(str(e)) from e

    symbols = set(inputs)
    # Each distinct member text once: its block mask, None when ragged, or the first name that is no state.
    masks = dict.fromkeys(chain.from_iterable(sides))
    for members in masks:
        names = members.split()
        try:
            masks[members] = union_bits(space, names)
        except UnknownState:
            masks[members] = next(q for q in names if q not in space._position)
    # The distinct keys are the grid, none unknown and none missing, when there are as many
    # as distinct grid cells and each cell is one of them.
    grid = len(lines) == len(states) * len(symbols) and all(map(lines.__contains__, product(states, symbols)))
    if not grid or not all(isinstance(bits, int) for bits in masks.values()):
        # Raises at the first unknown state or input or bad side, if any.
        _first_fault(space, symbols, zip(lines.values(), lines, tail_ids), sides, masks)
    sets = {bits: DefinableSet(space, bits) for bits in set(masks.values())}
    shared = {}  # (lower mask, upper mask) -> their one RoughSet
    roughs = []  # per distinct tail
    for lower, upper in sides:
        key = masks[lower], masks[upper]
        if key not in shared:
            shared[key] = RoughSet(sets[key[0]], sets[key[1]])
        roughs.append(shared[key])
    table = dict(zip(lines, map(roughs.__getitem__, tail_ids)))
    alphabet = tuple(inputs)
    if not grid or len(symbols) < len(alphabet) or any(r.lower.bits & ~r.upper.bits for r in shared.values()):
        make_machine(space, alphabet, table, name)  # raises SemanticError with validate_machine's violations
    return Machine(space, alphabet, table, name)


def _first_fault(space, symbols, rows, sides, masks):
    """Raise the first fault of the transition `rows` in document order: an unknown state or input, then a side's.

    A row is a line number, a (state, input) key and the index of its member texts in `sides`.
    """
    for lineno, (state, symbol), tail_id in rows:
        if state not in space._position:
            raise SemanticError(f"transition from unknown state {state} on line {lineno}")
        if symbol not in symbols:
            raise SemanticError(f"transition on unknown input {symbol} on line {lineno}")
        for side, members in zip(("lower", "upper"), sides[tail_id]):
            bits = masks[members]
            if bits is None:
                raise NonDefinableEntry(f"{side} set of ({state}, {symbol}) on line {lineno} is not a union of blocks")
            if isinstance(bits, str):
                raise SemanticError(f"unknown state {bits} in {side} set on line {lineno}")


def serialize_machine(machine: Machine) -> str:
    """Write a machine in the canonical document layout.

    Structured state and input names (tuples, function symbols) are
    rendered to their printed names, so the parsed-back machine has
    plain string names but compares equal to the original. Raises
    NameCollision when two states or two symbols print to the same name,
    or when the machine name, a state or a symbol prints empty or with
    whitespace, a brace or '#', since the document could not be parsed
    back.
    """
    names, blocks, symbols = machine.printed_names()
    _require_distinct("machine", (machine.name,), (machine.name,))
    _require_distinct("state", machine.space.states, names)
    _require_distinct("input symbol", machine.alphabet, symbols)
    lines = [f"machine {machine.name}", "states " + " ".join(names)]
    lines += ("block " + " ".join(cell) for cell in blocks)
    lines.append("inputs " + " ".join(symbols))
    table = machine._table
    cells = list(map(table.get, product(machine.space.states, machine.alphabet)))
    ids = list(map(id, cells))
    tails = dict(zip(ids, cells))  # id of each distinct entry -> the entry, then its tail
    texts = {}  # (id of a side's space, its block mask) -> its member text, each name followed by a space
    for r in tails.values():
        for d in (r.lower, r.upper):
            if (id(d.space), d.bits) not in texts:
                texts[id(d.space), d.bits] = " ".join(d.member_names() + ("",))
    for key, r in tails.items():
        lower, upper = texts[id(r.lower.space), r.lower.bits], texts[id(r.upper.space), r.upper.bits]
        tails[key] = f"lower {{ {lower}}} upper {{ {upper}}}\n"
    lines.append("")  # the header ends in a line break
    # One pass writes each cell's state part, symbol part and tail, in table order.
    by_state = chain.from_iterable(map(repeat, [f"trans {q} " for q in names], repeat(len(symbols))))
    body = zip(by_state, cycle([f"{x} " for x in symbols]), map(tails.__getitem__, ids))
    return "".join(chain(["\n".join(lines)], chain.from_iterable(body)))


def _require_distinct(what: str, values, names):
    """Raise NameCollision unless the printed `names` are distinct tokens the reader takes back."""
    first = {}
    for value, name in zip(values, names):
        if not name or _UNREADABLE.search(name):
            raise NameCollision(f"{what} {value!r} prints as {name!r}, which is not a single name token")
        if first.setdefault(name, value) != value:
            raise NameCollision(f"{what}s {first[name]!r} and {value!r} both print as {name}")


def format_definable(definable: DefinableSet) -> str:
    """Union-of-blocks notation: {q1,q2} joined by the union sign, phi if empty."""
    if not definable.bits:
        return EMPTY_SET_MARK
    return UNION_MARK.join("{" + ",".join(map(value_name, cell)) + "}" for cell in definable.blocks_ordered())


def format_rough_set(rough: RoughSet) -> str:
    return f"({format_definable(rough.lower)},{format_definable(rough.upper)})"


def word_text(word) -> str:
    names = [value_name(x) for x in word]
    if not names:
        return "e"
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return ",".join(names)


def _read_names(by_name: dict, text: str, error: type, what: str) -> tuple:
    """The values whose names spell `text`, when exactly one sequence of them does.

    Whitespace and commas may stand between names. A dynamic program over
    text positions keeps, for each prefix, up to two of its distinct
    readings, each a node (previous node, name) interned so that equal
    readings share one node. `error` is raised at the furthest readable
    position when no reading spells the whole text, and with two readings
    when more than one does.
    """
    by_first = {}
    for n in by_name:
        if n:
            by_first.setdefault(n[0], []).append(n)
    nodes = [None]  # node 0 is the empty reading
    interned = {}
    reads = [[] for _ in range(len(text) + 1)]
    reads[0].append(0)

    def add(at, node):
        if node not in reads[at] and len(reads[at]) < 2:
            reads[at].append(node)

    for i, ch in enumerate(text):
        if not reads[i]:
            continue
        if ch in " ,\t":
            for node in reads[i]:
                add(i + 1, node)
        for n in by_first.get(ch, ()):
            if text.startswith(n, i):
                for node in reads[i]:
                    key = (node, n)
                    if key not in interned:
                        interned[key] = len(nodes)
                        nodes.append(key)
                    add(i + len(n), interned[key])

    def names(node):
        out = []
        while node:
            node, n = nodes[node]
            out.append(n)
        return out[::-1]

    found = reads[-1]
    if not found:
        stuck = max(i for i, r in enumerate(reads) if r)
        raise error(f"cannot read {what} at {text[stuck:]!r}")
    if len(found) > 1:
        first, second = (" ".join(names(node)) for node in found)
        raise error(f"{text!r} reads two ways, as {first!r} and as {second!r}")
    return tuple(map(by_name.__getitem__, names(found[0])))


def word_from_text(machine: Machine, text: str) -> tuple:
    """Read a word against a machine's alphabet.

    Single-letter words can be written run together ("ab") and
    structured names ("(a,b)(a,b)") still tokenize. Whitespace and commas
    between names are skipped, and a comma inside a structured name binds
    to the name. The text must spell exactly one sequence of symbols:
    over {a, ab, bc}, "abc" reads as a bc; over {a, ab, b}, "ab" is
    ambiguous and raises UnknownSymbol, as does text that spells no
    word. The empty string is the empty word.
    """
    return _read_names({value_name(x): x for x in machine.alphabet}, text, UnknownSymbol, "an input symbol")


def subset_from_text(space: ApproximationSpace, text: str) -> tuple:
    """Read a state subset the same way word_from_text reads words.

    State names may be run together or separated by whitespace or
    commas; "q1,q3" and "(q1,q2)(q3,q4)" both work. Text with no reading
    or with two raises UnknownState.
    """
    return _read_names(dict(zip(space.names, space.states)), text, UnknownState, "a state name")


def _table_rows(machine: Machine):
    """Definable sets used by the table that make sensible block rows.

    A row is any lower or upper occurring in the table that spans at
    least two blocks without being the whole state set; singleton rows
    restate the table and the full set tells nothing.
    """
    n = machine.space.n_blocks
    rows = {d.bits: d for r in machine.table.values() for d in (r.lower, r.upper) if 1 < d.bits.bit_count() < n}
    return [rows[bits] for bits in sorted(rows, key=machine.space.ids)]


def _layout(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    for row in [header] + rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(out)


def render_tables(machine: Machine, kind: str = "state", word=None, footnotes=None) -> str:
    """Render the transition table as aligned text.

    kind="state" tabulates every state against every symbol; with a
    word, a single column holds the word run from each state.
    kind="block" does the same over multi-block definable rows (see
    _table_rows). `footnotes` maps (row label, column label) to a note;
    flagged cells get a marker and the notes are listed under the table.
    """
    marks = ["*", "†", "‡"]
    notes = []

    def cell_text(row_label, col_label, value):
        text = format_rough_set(value)
        if footnotes and (row_label, col_label) in footnotes:
            mark = marks[len(notes) % len(marks)]
            notes.append((mark, footnotes[(row_label, col_label)]))
            text += mark
        return text

    if kind == "state":
        corner, arg, delta, subjects, label = "Q", "q", "δ", machine.space.states, value_name
        run, step = word_step, lambda m, q, x: m.table[(q, x)]
    elif kind == "block":
        corner, arg, delta, subjects, label = "D", "D", "δD", _table_rows(machine), format_definable
        run, step = block_word_step, block_step
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    if word is not None:
        col = f"{delta}*({arg},{word_text(word)})"
        columns = [(col, col, lambda s: run(machine, s, word))]
    else:
        columns = [
            (f"{delta}({arg},{value_name(x)})", value_name(x), lambda s, x=x: step(machine, s, x))
            for x in machine.alphabet
        ]
    header = [corner] + [col for col, _, _ in columns]
    rows = []
    for s in subjects:
        row_label = label(s)
        rows.append([row_label] + [cell_text(row_label, key, cell(s)) for _, key, cell in columns])
    if not rows and kind == "block":
        return _layout(header, []) + "\n(no multi-block definable sets occur in the table)"

    text = _layout(header, rows)
    for mark, note in notes:
        text += f"\n{mark} {note}"
    return text


def parse_state_input_map(text: str):
    """Read a map file of `state FROM TO` and `input FROM TO` lines.

    Returns (state_map, input_map) as plain name dicts; which machine
    owns which side depends on the check being run.
    """
    state_map = {}
    input_map = {}
    for lineno, line, tokens in _rows(text):
        keyword = tokens[0]
        if keyword not in ("state", "input"):
            raise ParseError(f"unknown directive {keyword!r}", lineno, _column(line, 0))
        if len(tokens) != 3:
            raise ParseError(f"{keyword} line needs FROM and TO", lineno, _column(line, 0))
        src, dst = _names(tokens, 1, 3, line, lineno, keyword)
        target = state_map if keyword == "state" else input_map
        if src in target:
            raise ParseError(f"{keyword} {src} mapped twice", lineno, _column(line, 0))
        target[src] = dst
    return state_map, input_map


def parse_wiring_triples(text: str) -> list[tuple[str, str, str]]:
    """Read a wiring file of `STATE INPUT FED_INPUT` lines, in order, each (STATE, INPUT) once."""
    fed = {}
    for lineno, line, tokens in _rows(text):
        if len(tokens) != 3:
            raise ParseError("wiring line needs STATE INPUT FED_INPUT", lineno, _column(line, 0))
        q2, x2, x1 = _names(tokens, 0, 3, line, lineno, "wiring entry")
        if (q2, x2) in fed:
            raise ParseError(f"wiring declares ({q2}, {x2}) twice", lineno, _column(line, 0))
        fed[(q2, x2)] = x1
    return [(q2, x2, x1) for (q2, x2), x1 in fed.items()]


def parse_bridge(text: str) -> InputBridge:
    """Read a bridge file of `SYMBOL FIRST_INPUT SECOND_INPUT` lines.

    The carrier keeps file order; duplicate carrier symbols are refused.
    """
    carrier = []
    decode = {}
    for lineno, line, tokens in _rows(text):
        if len(tokens) != 3:
            raise ParseError("bridge line needs SYMBOL FIRST SECOND", lineno, _column(line, 0))
        u, x1, x2 = _names(tokens, 0, 3, line, lineno, "bridge entry")
        if u in decode:
            raise ParseError(f"bridge symbol {u} declared twice", lineno, _column(line, 0))
        carrier.append(u)
        decode[u] = (x1, x2)
    return InputBridge(tuple(carrier), decode)
