"""Homomorphisms, coverings, and the product claims, all checked live.

Nothing here is taken on faith: every claim is turned into explicit
maps and handed to the checkers, and one hand-built pair shows why the
covering check has a depth parameter at all: letters alone can pass
where a two-letter word fails, though only from a state whose block
eta does not map onto a block. Two-letter words decide every longer
word, so depth 20 agrees with depth 2, the default. A second pair goes
the other way: it holds as a covering while a one-letter run from a
whole block escapes the eta-image, since single letters compare entries.
"""

from roughfsm import (
    CoveringPair,
    RoughSet,
    check_covering,
    check_homomorphism,
    make_machine,
    make_partition,
    parse_machine,
    run_claim_trials,
    search_coverings,
    witness_restricted_in_full,
    word_step,
)
from roughfsm.generate import exact_machine
from roughfsm.samples import five_state_machine, relabeled_pair

# A covering that holds although a one-letter block run escapes: m1's run
# on "a" from the block of q1 = eta(q2) has lower {q2}, outside the
# eta-image {q1, q3} of m2's run from q2 on xi("a"). Single letters compare
# entries, and entries alone pass.
ESCAPE_M1 = """\
machine m1
states q1 q2 q3
block q1 q3
block q2
inputs a b
trans q1 a lower { } upper { q1 q3 }
trans q1 b lower { } upper { }
trans q2 a lower { } upper { q1 q3 }
trans q2 b lower { q2 } upper { q1 q2 q3 }
trans q3 a lower { q2 } upper { q1 q2 q3 }
trans q3 b lower { q2 } upper { q2 }
"""
ESCAPE_M2 = """\
machine m2
states q1 q2 q3 q4 q5
block q1
block q2
block q3 q5
block q4
inputs a b
trans q1 a lower { q1 q4 } upper { q1 q3 q4 q5 }
trans q1 b lower { q1 q2 q3 q4 q5 } upper { q1 q2 q3 q4 q5 }
trans q2 a lower { q3 q5 } upper { q3 q5 }
trans q2 b lower { q1 q4 } upper { q1 q4 }
trans q3 a lower { q1 q2 q3 q5 } upper { q1 q2 q3 q5 }
trans q3 b lower { q1 q3 q4 q5 } upper { q1 q3 q4 q5 }
trans q4 a lower { q2 q4 } upper { q2 q3 q4 q5 }
trans q4 b lower { } upper { q3 q5 }
trans q5 a lower { q2 } upper { q2 q3 q5 }
trans q5 b lower { } upper { }
"""
ESCAPE_PAIR = CoveringPair({"q1": "q2", "q2": "q1", "q3": "q3", "q4": "q2", "q5": "q1"}, {"a": "a", "b": "a"})


def escape_pair():
    """The covered machine, the covering machine and the pair of maps of the one-letter escape."""
    return parse_machine(ESCAPE_M1), parse_machine(ESCAPE_M2), ESCAPE_PAIR


def main() -> None:
    m1, m2, pair = relabeled_pair()
    print("relabeling", m1.name, "->", m2.name, ":", check_homomorphism(m1, m2, pair))
    print()

    # Coverings run the other way: every behavior of the covered machine
    # must appear, through the maps, in the covering one. The search
    # enumerates all map pairs, so small machines only.
    m5 = five_state_machine()
    one = exact_machine(1, ("x",))
    found = search_coverings(one, m5)
    print(f"coverings of the one-state machine by {m5.name}: {len(found)}")
    for p in found:
        print("  input translation:", p.input_map, "(only the b column keeps lowers nonempty)")
    print()

    # Letter-level agreement does not imply word-level agreement. This
    # coarse-over-fine pair is one whose starts are not covered: eta
    # maps the blocks {s} and {t} to halves of {u,v}, not onto it. Every
    # single-letter check passes, but the two-letter run from s unions
    # over the whole block {u,v} on the covered side and dies.
    s1 = make_partition(["u", "v"], [["u", "v"]])
    blocky = make_machine(
        s1,
        ("a",),
        {
            ("u", "a"): RoughSet(s1.empty_set(), s1.full_set()),
            ("v", "a"): RoughSet(s1.full_set(), s1.full_set()),
        },
        name="blocky",
    )
    s2 = make_partition(["s", "t"], [["s"], ["t"]])
    fine = make_machine(
        s2,
        ("a",),
        {
            ("s", "a"): RoughSet(s2.empty_set(), s2.full_set()),
            ("t", "a"): RoughSet(s2.full_set(), s2.full_set()),
        },
        name="fine",
    )
    eta_xi = CoveringPair({"s": "u", "t": "v"}, {"a": "a"})
    print("letters only:", check_covering(blocky, fine, eta_xi, depth=1))
    print("with words:  ", check_covering(blocky, fine, eta_xi, depth=2))
    print("depth 20:    ", check_covering(blocky, fine, eta_xi, depth=20))
    print()

    # The converse: a covering that holds while a one-letter block run escapes.
    m1, m2, pair = escape_pair()
    covered = word_step(m1, pair.eta("q2"), ("a",)).lower.states_ordered()
    covering = word_step(m2, "q2", pair.xi_word(("a",))).lower.states_ordered()
    image = tuple(sorted({pair.eta(q) for q in covering}))
    print("escape pair:", check_covering(m1, m2, pair))
    print(f"  lower of m1's run on a from [q1]: {covered}, outside {image}, the eta-image of m2's from [q2]")
    print()

    # The product claims come as machine-checked witnesses. One direct
    # witness, then a seeded batch of each claim.
    print(witness_restricted_in_full(m5, m5))
    for claim in ("wreath-exchange", "cascade-in-wreath", "associativity", "lift"):
        reports = run_claim_trials(claim, seed=0, trials=2)
        print(f"{claim}: {sum(map(bool, reports))}/{len(reports)} hold")


if __name__ == "__main__":
    main()
