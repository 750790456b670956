from __future__ import annotations

import hashlib
import inspect
import random

import pytest

from roughfsm import (
    CascadeWiring,
    CoveringPair,
    assoc_isomorphism,
    cascade,
    lift_covering,
    run_claim_trials,
    witness_cascade_in_wreath,
    witness_restricted_in_full,
    witness_wreath_exchange,
)
from roughfsm import propositions
from roughfsm.errors import AlphabetMismatch, PreconditionFailed
from roughfsm.generate import exact_machine, random_machine
from roughfsm.morphism import CheckResult, check_covering, check_isomorphism
from roughfsm.propositions import CLAIM_NAMES, PRODUCT_KINDS, WitnessReport
from roughfsm.textio import serialize_machine


def identity_covering(machine):
    return CoveringPair(
        {q: q for q in machine.space.states},
        {x: x for x in machine.alphabet},
    )


def identity_wiring(feeder, reader):
    return CascadeWiring(
        {(q, x): x for q in reader.space.states for x in reader.alphabet}
    )


class TestRestrictedInFull:
    def test_holds_on_the_five_state_square(self, five_state):
        report = witness_restricted_in_full(five_state, five_state, depth=2)
        assert report
        assert report.claim == "restricted-in-full"
        assert report.counterexample is None
        assert "holds" in str(report)

    def test_holds_trivially_on_one_state_factors(self):
        one = exact_machine(1, ("x",))
        assert witness_restricted_in_full(one, one)

    def test_mismatched_alphabets_rejected(self, five_state):
        with pytest.raises(AlphabetMismatch):
            witness_restricted_in_full(five_state, exact_machine(1, ("x",)))

    def test_holds_on_seeded_random_factors(self):
        reports = run_claim_trials("restricted-in-full", seed=2, trials=4)
        assert len(reports) == 4
        assert all(reports)


class TestCascadeInWreath:
    def test_holds_with_the_identity_wiring(self, five_state):
        wiring = identity_wiring(five_state, five_state)
        report = witness_cascade_in_wreath(five_state, five_state, wiring, depth=2)
        assert report
        assert report.claim == "cascade-in-wreath"

    def test_holds_trivially_on_one_state_factors(self):
        one = exact_machine(1, ("x",))
        assert witness_cascade_in_wreath(one, one, CascadeWiring({("s1", "x"): "x"}))

    def test_holds_on_seeded_random_factors(self):
        reports = run_claim_trials("cascade-in-wreath", seed=3, trials=3)
        assert len(reports) == 3
        assert all(reports)


class TestWreathExchange:
    def test_holds_on_a_small_quartet(self):
        rng = random.Random(9)
        ms = [
            random_machine(rng, n_states=2, alphabet=("a",), name=f"m{i}")
            for i in (1, 2, 3, 4)
        ]
        report = witness_wreath_exchange(*ms)
        assert report
        assert report.claim == "wreath-exchange"

    def test_holds_trivially_on_one_state_factors(self):
        ms = [exact_machine(1, ("x",), name=f"e{i}") for i in (1, 2, 3, 4)]
        assert witness_wreath_exchange(*ms)

    def test_holds_on_seeded_random_factors(self):
        reports = run_claim_trials("wreath-exchange", seed=4, trials=2)
        assert len(reports) == 2
        assert all(reports)


class TestAssociativity:
    def test_full_regrouping_on_the_five_state_machine(self, five_state):
        report = assoc_isomorphism("full", five_state, five_state, five_state)
        assert report
        assert report.detail == "full"

    def test_restricted_regrouping_on_the_five_state_machine(self, five_state):
        assert assoc_isomorphism("restricted", five_state, five_state, five_state)

    def test_wreath_regrouping_on_small_factors(self):
        rng = random.Random(15)
        m1 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="m1")
        m2 = random_machine(rng, n_states=2, alphabet=("c",), name="m2")
        m3 = random_machine(rng, n_states=2, alphabet=("d",), name="m3")
        assert assoc_isomorphism("wreath", m1, m2, m3)

    def test_cascade_regrouping_with_identity_wirings(self, five_state):
        w1 = identity_wiring(five_state, five_state)
        w2 = identity_wiring(five_state, five_state)
        assert assoc_isomorphism(
            "cascade", five_state, five_state, five_state, wirings=(w1, w2)
        )

    def test_holds_per_kind_on_seeded_random_factors(self):
        reports = run_claim_trials("associativity", seed=5, trials=1)
        assert len(reports) == len(PRODUCT_KINDS)
        assert all(reports)

    def test_kinds_filter_controls_the_population(self):
        reports = run_claim_trials(
            "associativity", kinds=("full", "restricted"), seed=6, trials=2
        )
        assert len(reports) == 4
        assert {r.detail for r in reports} == {"full", "restricted"}

    def test_cascade_without_wirings_rejected(self, five_state):
        with pytest.raises(ValueError):
            assoc_isomorphism("cascade", five_state, five_state, five_state)

    def test_unknown_kind_rejected(self, five_state):
        with pytest.raises(ValueError):
            assoc_isomorphism("sideways", five_state, five_state, five_state)


class TestLiftCovering:
    def test_identity_covering_lifts_through_the_full_product(self, five_state):
        report = lift_covering(
            "full", identity_covering(five_state), five_state, five_state, five_state
        )
        assert report
        assert report.detail == "full/left"

    def test_lifts_hold_per_kind_and_side(self):
        for kind in PRODUCT_KINDS:
            reports = run_claim_trials("lift", kinds=(kind,), seed=8, trials=2)
            assert len(reports) == 2
            assert {r.detail for r in reports} == {f"{kind}/left", f"{kind}/right"}
            assert all(reports)

    def test_non_covering_pair_rejected(self, five_state):
        eta = {q: q for q in five_state.space.states}
        eta["q2"], eta["q3"] = "q3", "q2"
        broken = CoveringPair(eta, {"a": "a", "b": "b"})
        with pytest.raises(PreconditionFailed):
            lift_covering("full", broken, five_state, five_state, five_state)

    def test_bad_side_rejected(self, five_state):
        with pytest.raises(ValueError):
            lift_covering(
                "full",
                identity_covering(five_state),
                five_state,
                five_state,
                five_state,
                side="middle",
            )

    def test_unknown_kind_rejected(self, five_state):
        with pytest.raises(ValueError):
            lift_covering(
                "sideways",
                identity_covering(five_state),
                five_state,
                five_state,
                five_state,
            )

    def test_cascade_without_wiring_rejected(self, five_state):
        with pytest.raises(ValueError):
            lift_covering(
                "cascade",
                identity_covering(five_state),
                five_state,
                five_state,
                five_state,
            )

    def test_cascade_right_lift_falls_back_outside_the_translation_image(self, five_state):
        # m2's letter b is no xi-image, so the synthesized wiring feeds m3's first letter there.
        m1, m2 = exact_machine(1, ("a",)), exact_machine(1, ("a", "b"))
        pair = CoveringPair({"s1": "s1"}, {"a": "a"})
        wiring = CascadeWiring({("s1", "a"): "b"})
        report = lift_covering("cascade", pair, m1, m2, five_state, side="right", wiring=wiring)
        assert report
        assert report.detail == "cascade/right"
        assert report.witness == cascade(five_state, m2, CascadeWiring({("s1", "a"): "b", ("s1", "b"): "a"}))

    def test_restricted_lift_needs_one_alphabet(self, five_state):
        with pytest.raises(AlphabetMismatch):
            lift_covering(
                "restricted",
                identity_covering(five_state),
                five_state,
                five_state,
                exact_machine(2, ("x", "y")),
            )


class TestRunClaimTrials:
    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_claim_trials("telepathy")

    def test_claim_names_are_exhaustive(self):
        for claim in CLAIM_NAMES:
            reports = run_claim_trials(claim, kinds=("full",), seed=1, trials=1)
            assert reports
            assert all(r.claim == claim for r in reports)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_claim_checks_at_its_depth(self, monkeypatch, seed):
        # Every covering claim checks every word: depth 2, passed or by default.
        depths = []
        signature = inspect.signature(check_covering)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            depths.append(bound.arguments["depth"])
            return check_covering(*args, **kwargs)

        monkeypatch.setattr(propositions, "check_covering", recording)
        for claim in CLAIM_NAMES:
            depths.clear()
            for report in run_claim_trials(claim, seed=seed, trials=2):
                if claim == "associativity":
                    fresh = check_isomorphism(report.subject, report.witness, report.pair)
                else:
                    fresh = check_covering(report.subject, report.witness, report.pair, 2)
                assert report.result == fresh
            assert set(depths) == (set() if claim == "associativity" else {2})

    # sha256 over seeds 0-7 of run_claim_trials(claim, seed, trials=2):
    # each report's verdict, counterexample, maps and both machines' text.
    REPORT_DIGESTS = {
        "restricted-in-full": "4e14d876b7667cf3",
        "wreath-exchange": "52dc31d05974ca1c",
        "cascade-in-wreath": "4079881e4e10e4a6",
        "associativity": "317c8031d63735c5",
        "lift": "488c3c1726efaa41",
    }

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_reports_are_pinned(self, claim):
        digest = hashlib.sha256()
        for seed in range(8):
            for r in run_claim_trials(claim, seed=seed, trials=2):
                items = (tuple(r.pair.state_map.items()), tuple(r.pair.input_map.items()))
                digest.update(repr((r.claim, r.detail, r.holds, repr(r.counterexample), items)).encode())
                digest.update(serialize_machine(r.subject).encode())
                digest.update(serialize_machine(r.witness).encode())
        assert digest.hexdigest()[:16] == self.REPORT_DIGESTS[claim]

    def test_same_seed_reproduces_the_run(self):
        first = run_claim_trials("restricted-in-full", seed=12, trials=3)
        second = run_claim_trials("restricted-in-full", seed=12, trials=3)
        assert [str(r) for r in first] == [str(r) for r in second]


class TestWitnessReport:
    def test_failure_formatting(self, five_state):
        result = CheckResult(False, "broken", ("q1", "a"))
        report = WitnessReport("lift", five_state, five_state, None, result, detail="full/left")
        assert report.holds == result.holds
        assert not report
        assert report.counterexample == ("q1", "a")
        text = str(report)
        assert "FAILS" in text
        assert "[full/left]" in text
