"""The scale ladder: single library calls at n = 50, 200 and 800 states.

It reproduces the baseline table of the roadmap: a 100-letter word run,
a 100-letter block run from the full state set, parse, serialize and
equality, on `generate.random_machine(n_states=n, alphabet="abcd",
min_block_size=2)`. Each call runs in a child process of its own, one at
a time. The child builds its input, prints "ready", makes the call and
prints its time as JSON; the parent times out the call after BUDGET_S
and then records the row as over budget. A row is never shrunk to fit.

Run as a child: python3 bench/ladder.py LAYER N SEED
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SIZES = (50, 200, 800)
LAYERS = ("word_step", "block_word_step", "parse_machine", "serialize_machine", "Machine.__eq__")
BUDGET_S = 20.0
SETUP_TIMEOUT_S = 60.0


def _read_line(fd: int, timeout: float) -> bytes:
    """One line from a raw pipe, or b"" if none arrives in time."""
    deadline = perf_counter() + timeout
    data = b""
    while not data.endswith(b"\n"):
        left = deadline - perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return b""
        chunk = os.read(fd, 1)
        if not chunk:
            return b""
        data += chunk
    return data


def run_row(layer: str, n: int, seed: int) -> dict:
    row = {"layer": layer, "n": n}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "ladder.py"), layer, str(n), str(seed)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
    )
    try:
        if _read_line(proc.stdout.fileno(), SETUP_TIMEOUT_S) != b"ready\n":
            row["status"] = "setup_failed"
            return row
        try:
            out, _ = proc.communicate(timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            row.update(status="over_budget", budget_s=BUDGET_S)
            return row
        if proc.returncode != 0:
            row["status"] = "failed"
            return row
        row.update(status="ok", **json.loads(out.decode().strip().splitlines()[-1]))
        return row
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_ladder(seed: int) -> list[dict]:
    return [run_row(layer, n, seed) for n in SIZES for layer in LAYERS]


def child(layer: str, n: int, seed: int) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from roughfsm import generate, machine, textio

    def build():
        rng = random.Random(seed)
        m = generate.random_machine(rng, n_states=n, alphabet="abcd", min_block_size=2)
        return m, tuple(rng.choice("abcd") for _ in range(100))

    m, word = build()
    if layer == "word_step":
        call = lambda: machine.word_step(m, m.space.states[0], word)
    elif layer == "block_word_step":
        call = lambda: machine.block_word_step(m, m.space.full_set(), word)
    elif layer == "parse_machine":
        text = textio.serialize_machine(m)
        call = lambda: textio.parse_machine(text)
    elif layer == "serialize_machine":
        call = lambda: textio.serialize_machine(m)
    else:
        other, _ = build()
        call = lambda: m == other
    print("ready", flush=True)
    start = perf_counter()
    result = call()
    ms = (perf_counter() - start) * 1000
    if layer == "Machine.__eq__" and result is not True:
        raise SystemExit("equal machines compared unequal")
    print(json.dumps({"ms": ms}), flush=True)


if __name__ == "__main__":
    child(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
