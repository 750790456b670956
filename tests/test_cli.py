from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from roughfsm import (
    RoughSet,
    full_direct,
    general_direct,
    make_machine,
    make_partition,
    parse_machine,
    restricted_direct,
    serialize_machine,
    wreath,
)
from roughfsm import cli, machine
from roughfsm.cli import _parser, main
from roughfsm.generate import exact_machine
from roughfsm.products import InputBridge
from roughfsm.propositions import run_claim_trials


@pytest.fixture
def m5_path(fixtures_dir):
    return str(fixtures_dir / "five_state.machine")


@pytest.fixture
def one_state_path(tmp_path):
    path = tmp_path / "one.machine"
    path.write_text(serialize_machine(exact_machine(1, ("x",))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def letters_only_paths(tmp_path):
    """Machine, machine and map files of a covering that holds on letters only.

    It fails at (s, aa): on the covered side the run of aa unions over
    the whole block {u, v}.
    """
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
    paths = [tmp_path / "blocky.machine", tmp_path / "fine.machine", tmp_path / "pair.map"]
    paths[0].write_text(serialize_machine(blocky))
    paths[1].write_text(serialize_machine(fine))
    paths[2].write_text("state s u\nstate t v\ninput a a\n")
    return [str(path) for path in paths]


class TestValidate:
    def test_clean_file(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "validate", m5_path)
        assert code == 0
        assert out.strip() == "ok: m5: 5 states, 3 blocks, 2 inputs"

    def test_strict_reports_boundary_entries(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "validate", m5_path, "--strict")
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("violation: ") for line in lines)
        assert "(q2, b)" in lines[0]
        assert "(q3, b)" in lines[1]

    def test_plain_validate_checks_the_machine_once(self, capsys, m5_path, monkeypatch):
        calls = []
        original = machine.validate_machine

        def counted(*args, **kwargs):
            calls.append(kwargs.get("strict", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(machine, "validate_machine", counted)
        monkeypatch.setattr(cli, "validate_machine", counted)
        # The reader checks a valid machine itself, so plain validate walks it
        # no time and --strict walks it once, for realizability.
        assert run_cli(capsys, "validate", m5_path)[0] == 0
        assert calls == []
        assert run_cli(capsys, "validate", m5_path, "--strict")[0] == 1
        assert calls == [True]

    def test_semantic_problems_exit_one(self, capsys, tmp_path):
        path = tmp_path / "gappy.machine"
        path.write_text("machine m\nstates q1\nblock q1\ninputs a\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "violation: missing table entry" in out

    def test_duplicate_transition_exits_one(self, capsys, tmp_path):
        path = tmp_path / "twice.machine"
        trans = "trans q1 a lower { q1 } upper { q1 }\n"
        path.write_text("machine m\nstates q1\nblock q1\ninputs a\n" + trans + trans)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == "violation: duplicate transition for (q1, a) on line 6 (first on line 5)\n"

    def test_syntax_problems_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.machine"
        path.write_text("machine\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_unreadable_file_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(tmp_path / "absent.machine"))
        assert code == 2
        assert "cannot read" in err


class TestRun:
    def test_word_run(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "run", m5_path, "--state", "q1", "--word", "ab")
        assert code == 0
        assert out.strip() == "({q3,q5}∪{q4},{q1,q2}∪{q3,q5}∪{q4})"

    def test_empty_word_gives_the_state_block(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "run", m5_path, "--state", "q4")
        assert code == 0
        assert out.strip() == "({q4},{q4})"

    def test_multiple_states_rejected(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "run", m5_path, "--state", "q1,q2")
        assert code == 2
        assert "exactly one state" in err

    def test_ambiguous_word_exits_two(self, capsys, tmp_path):
        path = tmp_path / "overlap.machine"
        path.write_text(serialize_machine(exact_machine(1, ("a", "ab", "b"))))
        code, out, err = run_cli(capsys, "run", str(path), "--state", "s1", "--word", "ab")
        assert code == 2
        assert err == "error: 'ab' reads two ways, as 'ab' and as 'a b'\n"
        code, out, err = run_cli(capsys, "run", str(path), "--state", "s1", "--word", "a b")
        assert (code, out.strip()) == (0, "({s1},{s1})")


class TestBlocksAndApprox:
    def test_blocks_table(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "blocks", m5_path)
        assert code == 0
        lines = out.splitlines()
        assert re.split(r"\s{2,}", lines[0]) == ["D", "δD(D,a)", "δD(D,b)"]
        assert len(lines) == 4
        assert lines[3].startswith("{q3,q5}∪{q4}")

    def test_blocks_word_column(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "blocks", m5_path, "--word", "ab")
        assert code == 0
        assert "δD*(D,ab)" in out

    def test_approx(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "approx", m5_path, "--set", "q1")
        assert code == 0
        assert out.strip() == "(φ,{q1,q2})"

    def test_approx_empty_set(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "approx", m5_path, "--set", "")
        assert code == 0
        assert out.strip() == "(φ,φ)"


class TestRender:
    def test_state_table(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "render", m5_path, "--table", "state")
        assert code == 0
        lines = out.splitlines()
        assert re.split(r"\s{2,}", lines[0]) == ["Q", "δ(q,a)", "δ(q,b)"]
        assert len(lines) == 6

    def test_table_flag_is_required(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "render", m5_path)
        assert code == 2

    def test_table_choices_enforced(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "render", m5_path, "--table", "spiral")
        assert code == 2


class TestProduct:
    def test_full_to_stdout(self, capsys, m5_path, five_state):
        code, out, err = run_cli(capsys, "product", m5_path, m5_path, "--kind", "full")
        assert code == 0
        assert parse_machine(out) == full_direct(five_state, five_state)

    def test_restricted_to_file(self, capsys, tmp_path, m5_path, five_state):
        target = tmp_path / "restricted.machine"
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "restricted", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert parse_machine(target.read_text()) == restricted_direct(five_state, five_state)

    def test_unwritable_output_exits_two(self, capsys, tmp_path, m5_path):
        target = tmp_path / "missing" / "dir" / "out.machine"
        code, out, err = run_cli(capsys, "product", m5_path, m5_path, "--kind", "full", "-o", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert out == ""

    def test_general_needs_a_bridge(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "product", m5_path, m5_path, "--kind", "general")
        assert code == 2
        assert "needs --bridge" in err

    def test_general_with_bridge_file(self, capsys, tmp_path, m5_path, five_state):
        bridge_path = tmp_path / "pair.bridge"
        bridge_path.write_text("u a b\nv b a\n")
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "general", "--bridge", str(bridge_path)
        )
        assert code == 0
        bridge = InputBridge(("u", "v"), {"u": ("a", "b"), "v": ("b", "a")})
        assert parse_machine(out) == general_direct(five_state, five_state, bridge)

    def test_general_with_an_empty_bridge_exits_two(self, capsys, tmp_path, m5_path):
        bridge_path = tmp_path / "empty.bridge"
        bridge_path.write_text("# no symbols\n")
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "general", "--bridge", str(bridge_path)
        )
        assert code == 2
        assert err == "error: bridge carrier lists no symbols\n"
        assert out == ""

    def test_cascade_needs_a_wiring(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "product", m5_path, m5_path, "--kind", "cascade")
        assert code == 2
        assert "needs --omega" in err

    def test_cascade_with_wiring_file(self, capsys, tmp_path, m5_path, five_state):
        omega_path = tmp_path / "identity.wiring"
        omega_path.write_text(
            "\n".join(f"{q} {x} {x}" for q in five_state.space.states for x in five_state.alphabet)
        )
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "cascade", "--omega", str(omega_path)
        )
        assert code == 0
        assert parse_machine(out) == restricted_direct(five_state, five_state)

    def test_duplicate_wiring_line_rejected(self, capsys, tmp_path, m5_path):
        omega_path = tmp_path / "dup.wiring"
        omega_path.write_text("q1 a a\nq1 a b\n")
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "cascade", "--omega", str(omega_path)
        )
        assert code == 2
        assert "declares (q1, a) twice" in err

    def test_wreath_budget_exits_two(self, capsys, m5_path):
        code, out, err = run_cli(
            capsys, "product", m5_path, m5_path, "--kind", "wreath", "--budget", "10"
        )
        assert code == 2
        assert "wreath alphabet has 64 candidates, budget is 10" in err

    def test_wreath_within_budget(self, capsys, m5_path, five_state):
        code, out, err = run_cli(capsys, "product", m5_path, m5_path, "--kind", "wreath")
        assert code == 0
        assert parse_machine(out) == wreath(five_state, five_state)

    def test_wreath_budget_defaults_to_the_library(self, capsys, tmp_path, m5_path):
        argv = ["product", m5_path, m5_path, "--kind", "wreath", "-o"]
        unset, explicit = tmp_path / "unset.machine", tmp_path / "explicit.machine"
        assert run_cli(capsys, *argv, str(unset)) == (0, "", "")
        assert run_cli(capsys, *argv, str(explicit), "--budget", "4096") == (0, "", "")
        assert unset.read_bytes() == explicit.read_bytes()

    def test_kind_is_required(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "product", m5_path, m5_path)
        assert code == 2

    def test_colliding_state_names_exit_two(self, capsys, tmp_path):
        # States x,y and x times y,z and z: two product states print as (x,y,z).
        paths = []
        for name, states in (("m1", ("x,y", "x")), ("m2", ("y,z", "z"))):
            path = tmp_path / f"{name}.machine"
            path.write_text(
                f"machine {name}\nstates {' '.join(states)}\n"
                + "".join(f"block {q}\n" for q in states)
                + "inputs a\n"
                + "".join(f"trans {q} a lower {{ {q} }} upper {{ {q} }}\n" for q in states)
            )
            paths.append(str(path))
        out_path = tmp_path / "product.machine"
        code, out, err = run_cli(capsys, "product", *paths, "--kind", "full", "-o", str(out_path))
        assert (code, out) == (2, "")
        assert "both print as (x,y,z)" in err
        assert not out_path.exists()


class TestCheckCommands:
    def test_homomorphism_holds(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys,
            "check-hom",
            str(fixtures_dir / "relabel_source.machine"),
            str(fixtures_dir / "relabel_target.machine"),
            "--map",
            str(fixtures_dir / "relabel_pair.map"),
        )
        assert code == 0
        assert out.strip() == "holds"

    def test_perturbed_map_fails_with_a_counterexample(self, capsys, tmp_path, fixtures_dir):
        perturbed = tmp_path / "swapped.map"
        perturbed.write_text(
            "state q1 p1\nstate q2 p4\nstate q3 p3\nstate q4 p2\ninput a d\ninput b c\n"
        )
        code, out, err = run_cli(
            capsys,
            "check-hom",
            str(fixtures_dir / "relabel_source.machine"),
            str(fixtures_dir / "relabel_target.machine"),
            "--map",
            str(perturbed),
        )
        assert code == 1
        assert out.startswith("fails at (q1, a)")

    def test_homomorphism_check_takes_no_depth(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys,
            "check-hom",
            str(fixtures_dir / "relabel_source.machine"),
            str(fixtures_dir / "relabel_target.machine"),
            "--map",
            str(fixtures_dir / "relabel_pair.map"),
            "--depth",
            "2",
        )
        assert code == 2
        assert "--depth" in err

    def test_identity_covering(self, capsys, tmp_path, m5_path, five_state):
        identity = tmp_path / "identity.map"
        identity.write_text(
            "\n".join(f"state {q} {q}" for q in five_state.space.states)
            + "\ninput a a\ninput b b\n"
        )
        code, out, err = run_cli(
            capsys, "check-cover", m5_path, m5_path, "--map", str(identity)
        )
        assert code == 0
        assert out.strip() == "holds"

    def test_deep_check_equals_depth_two(self, capsys, tmp_path, five_state):
        narrow = tmp_path / "narrow.machine"
        wide = tmp_path / "wide.machine"
        narrow.write_text(serialize_machine(restricted_direct(five_state, five_state)))
        wide.write_text(serialize_machine(full_direct(five_state, five_state)))
        pair = tmp_path / "pair.map"
        states = five_state.space.states
        pair.write_text(
            "".join(f"state ({p},{q}) ({p},{q})\n" for p in states for q in states)
            + "input a (a,a)\ninput b (b,b)\n"
        )
        argv = ["check-cover", str(narrow), str(wide), "--map", str(pair), "--depth"]
        at_two = run_cli(capsys, *argv, "2")
        assert at_two == (0, "holds\n", "")
        assert run_cli(capsys, *argv, "20") == at_two

    def test_cover_depth_defaults_to_two(self, capsys, letters_only_paths):
        first, second, pair = letters_only_paths
        argv = ["check-cover", first, second, "--map", pair]
        unset = run_cli(capsys, *argv)
        assert unset == run_cli(capsys, *argv, "--depth", "2")
        assert unset[0] == 1
        assert unset[1].startswith("fails at (s, (a,a))")
        assert run_cli(capsys, *argv, "--depth", "1")[:2] == (0, "holds\n")

    def test_negative_depth_exits_two(self, capsys, tmp_path, m5_path, five_state):
        identity = tmp_path / "identity.map"
        identity.write_text(
            "\n".join(f"state {q} {q}" for q in five_state.space.states)
            + "\ninput a a\ninput b b\n"
        )
        code, out, err = run_cli(
            capsys, "check-cover", m5_path, m5_path, "--map", str(identity), "--depth", "-1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: depth must not be negative")
        code, out, err = run_cli(capsys, "search-cover", m5_path, m5_path, "--depth", "-1")
        assert (code, out) == (2, "")


class TestSearchCover:
    def test_finds_the_forced_covering(self, capsys, one_state_path, m5_path):
        code, out, err = run_cli(capsys, "search-cover", one_state_path, m5_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# found 1 covering(s)"
        assert lines[1] == "# covering 1"
        assert set(lines[2:7]) == {f"state q{i} s1" for i in range(1, 6)}
        assert lines[7] == "input x b"

    def test_no_coverings_exits_one(self, capsys, one_state_path, m5_path):
        code, out, err = run_cli(capsys, "search-cover", m5_path, one_state_path)
        assert code == 1
        assert out.strip() == "# found 0 covering(s)"

    def test_budget_exits_two(self, capsys, m5_path):
        code, out, err = run_cli(capsys, "search-cover", m5_path, m5_path, "--budget", "10")
        assert code == 2
        assert "candidates" in err

    def test_defaults_match_the_library(self, capsys, one_state_path, m5_path, letters_only_paths):
        # The default checks every word, so the pair that covers on letters only is not found.
        codes = []
        for first, second in [(one_state_path, m5_path), letters_only_paths[:2]]:
            unset = run_cli(capsys, "search-cover", first, second)
            codes.append(unset[0])
            assert unset == run_cli(
                capsys, "search-cover", first, second, "--depth", "2", "--budget", "1000000"
            )
        assert codes == [0, 1]


class TestVerify:
    def test_claim_trials_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "3.1", "--trials", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("trial 01 restricted-in-full:")
        assert lines[-1] == "2/2 hold"

    def test_kind_narrows_the_later_props(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--prop", "3.4", "--kind", "full", "--trials", "1"
        )
        assert code == 0
        assert "1/1 hold" in out

    def test_lift_runs_per_kind(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--prop", "3.5", "--kind", "cascade", "--trials", "1"
        )
        assert code == 0
        assert "1/1 hold" in out

    def test_kind_rejected_for_early_props(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "3.1", "--kind", "full")
        assert code == 2
        assert "--kind only applies" in err

    def test_unknown_prop_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "9.9")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--prop", "3.1", "--trials", trials)
        assert (code, out) == (2, "")
        assert "--trials" in err

    def test_seed_and_trials_default_to_the_library(self, capsys, monkeypatch):
        unset = run_cli(capsys, "verify", "--prop", "3.2")
        assert unset[0] == 0 and unset[1].endswith("5/5 hold\n")
        assert unset == run_cli(capsys, "verify", "--prop", "3.2", "--seed", "0", "--trials", "5")
        calls = []

        def recorded(claim, **options):
            calls.append(options)
            return run_claim_trials(claim, **options)

        monkeypatch.setattr(cli, "run_claim_trials", recorded)
        run_cli(capsys, "verify", "--prop", "3.1")
        run_cli(capsys, "verify", "--prop", "3.1", "--seed", "3", "--trials", "1")
        assert calls == [{"kinds": None}, {"kinds": None, "seed": 3, "trials": 1}]

    def test_one_trial_runs(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "3.1", "--trials", "1")
        assert code == 0
        assert out.endswith("1/1 hold\n")

    def test_budget_flag_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "3.2", "--budget", "5")
        assert (code, out) == (2, "")
        assert "--budget" in err


class TestParserReuse:
    """One parser serves every call in a process; no option carries over to the next call."""

    def test_cover_depth_does_not_carry_over(self, capsys, letters_only_paths):
        first, second, pair = letters_only_paths
        argv = ["check-cover", first, second, "--map", pair]
        assert run_cli(capsys, *argv, "--depth", "0")[:2] == (0, "holds\n")
        assert run_cli(capsys, *argv)[0] == 1

    def test_wreath_budget_does_not_carry_over(self, capsys, m5_path):
        argv = ["product", m5_path, m5_path, "--kind", "wreath"]
        assert run_cli(capsys, *argv, "--budget", "1")[0] == 2
        assert run_cli(capsys, *argv)[0] == 0

    def test_trials_do_not_carry_over(self, capsys):
        assert run_cli(capsys, "verify", "--prop", "3.1", "--trials", "0")[0] == 2
        code, out, _ = run_cli(capsys, "verify", "--prop", "3.1")
        assert code == 0 and out.endswith("5/5 hold\n")

    def test_the_parser_is_built_once(self, capsys, m5_path):
        _parser.cache_clear()
        for argv in (["validate", m5_path], ["run", m5_path, "--state", "q1"], ["pivot"], ["validate", m5_path]):
            main(argv)
        capsys.readouterr()
        assert _parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import roughfsm, roughfsm.cli\n"
            "print(len(built))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "0\n"


# Each command that reads files, with BAD where one of its paths goes.
READING_COMMANDS = {
    "validate": ["validate", "BAD"],
    "run": ["run", "BAD", "--state", "q1"],
    "blocks": ["blocks", "BAD"],
    "approx": ["approx", "BAD", "--set", "q1"],
    "render": ["render", "BAD", "--table", "state"],
    "product": ["product", "BAD", "M5", "--kind", "full"],
    "product-bridge": ["product", "M5", "M5", "--kind", "general", "--bridge", "BAD"],
    "product-omega": ["product", "M5", "M5", "--kind", "cascade", "--omega", "BAD"],
    "check-hom": ["check-hom", "M5", "BAD", "--map", "M5"],
    "check-cover-map": ["check-cover", "M5", "M5", "--map", "BAD"],
    "search-cover": ["search-cover", "M5", "BAD"],
}


@pytest.mark.parametrize("bad", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("argv", READING_COMMANDS.values(), ids=READING_COMMANDS.keys())
def test_unreadable_inputs_exit_two_without_a_traceback(tmp_path, fixtures_dir, argv, bad):
    # A fresh process, where an exception escaping main would print a traceback and exit 1.
    path = tmp_path / bad
    if bad == "directory":
        path.mkdir()
    elif bad == "not-utf8":
        path.write_bytes(b"machine m\xff\n")
    names = {"BAD": str(path), "M5": str(fixtures_dir / "five_state.machine")}
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "roughfsm.cli", *(names.get(a, a) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in done.stderr


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["pivot"]) == 2
        capsys.readouterr()


def readme_command_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("roughfsm ")]


def test_readme_has_command_examples():
    assert len(readme_command_lines()) >= 10


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "roughfsm"
    _parser().parse_args(argv[1:])
