"""Workload ``cli_scenarios``: in-process ``fockfield.cli.main`` over the user path.

Three heavy commands run once per pass (the default causality grid, a
4096-site wavepacket and a d=30 measurement with 10^6 draws), followed by
about 120 cheap ones: verify, entangle, measure, fock-check, default-size
wavepacket and short wick runs.  Each command slot has a few variants of
equal cost and the seed picks one per slot and shuffles the cheap slots.
Every variant has its exit code, stdout and artifacts recorded in
``reference.json.xz`` by ``record_reference.py``; a run compares each
output with that reference outside the timed region.  Artifacts go to a
fresh directory per command under the run's temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import os
import random
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json.xz")

# Tightest float tolerance the repository's tests use (relative, floor 1).
FLOAT_TOL = 1e-12
HEAVY = 3
VERIFY_TAGS = ("eq3", "eq8", "eq12", "eq13", "eq14", "comment6")
OUT_TOKEN = "<OUT>"


def _weights_text(counts):
    total = sum(counts)
    return ",".join(repr(c / total) for c in counts)


def command_slots():
    """The pass's command slots, built from a fixed generator.

    A pass runs every slot once; the seed picks one variant per slot.  The
    variants of a slot do the same amount of work, so a pass costs about
    the same at every seed.  Returns [(scenario, [argv, ...]), ...] with
    the three heavy slots first; argv excludes --out-dir.
    """
    rng = random.Random(150300675)
    slots = [
        ("causality", [("causality",)]),
        ("wavepacket", [("wavepacket", "--M", "4096", "--sigma0", "40", "--chirp", "1", "--times", "0:50:0.1")]),
        ("measure", [
            ("measure", "--weights", _weights_text([rng.randint(1, 9) for _ in range(30)]),
             "--n-samples", "1000000", "--seed", str(rng.randint(0, 999)))
            for _ in range(3)
        ]),
    ]
    slots += [("verify", [("verify",)])] + [("verify", [("verify", "--only", tag)]) for tag in VERIFY_TAGS]
    slots += [("verify", [("verify", "--only", "eq3,eq8")]), ("verify", [("verify", "--only", "eq12,eq13")])]
    grid = [f"{k / 4:g}" for k in range(-3, 4)]
    entangle = [("entangle", "--overlap-a", a, "--overlap-b", b) for a in grid for b in grid]
    slots += [("entangle", entangle)] * 30
    for d in (2, 3, 4, 5):
        for n in (1000, 10000, 100000):
            variants = [
                ("measure", "--weights", _weights_text([rng.randint(1, 9) for _ in range(d)]),
                 "--n-samples", str(n), "--seed", str(rng.randint(0, 99)),
                 "--apparatus-energy", rng.choice(("1", "1e3", "1e6")))
                for _ in range(4)
            ]
            slots += [("measure", variants)] * 2
    slots.append(("fock-check", [("fock-check",)]))
    for modes, nmax, pairs in ((4, 6, 200), (3, 4, 100), (2, 6, 50), (4, 3, 200),
                               (3, 2, 20), (2, 3, 100), (4, 5, 50), (3, 6, 200)):
        variants = [
            ("fock-check", "--modes", str(modes), "--nmax", str(nmax), "--pairs", str(pairs), "--seed", str(seed))
            for seed in rng.sample(range(100), 4)
        ]
        slots += [("fock-check", variants)] * 3
    slots += [("wavepacket", [argv]) for argv in (
        ("wavepacket",),
        ("wavepacket", "--chirp", "1"),
        ("wavepacket", "--chirp", "-0.5", "--x0", "-10"),
        ("wavepacket", "--p0", "0.2", "--x0", "-20"),
        ("wavepacket", "--sigma0", "6", "--chirp", "0.5"),
        ("wavepacket", "--chirp", "1", "--density-out", "density.csv"),
    )]
    labels = ("x", "y", "z", "w")
    for length in range(2, 7):
        variants = []
        for k in range(8):
            stats = rng.choice(("bose", "fermi"))
            atoms = [f"{rng.choice(('a', 'a+'))}({rng.choice(labels)})" for _ in range(length)]
            variants.append(("wick", "--expr", f"{stats}: " + " ".join(atoms)) + (("--out", "wick.txt") if k % 4 == 0 else ()))
        slots += [("wick", variants)] * 6
    return slots


def draw_commands(seed):
    """The pass's command list for a workload seed: heavy first, then the cheap slots shuffled."""
    slots = command_slots()
    rng = random.Random(seed)
    cheap = slots[HEAVY:]
    rng.shuffle(cheap)
    return [rng.choice(variants) for _, variants in slots[:HEAVY] + cheap]


def all_commands():
    """Every distinct command any seed can run, in a fixed order."""
    return list(dict.fromkeys(argv for _, variants in command_slots() for argv in variants))


def ref_key(argv):
    return json.dumps(list(argv))


def load_reference():
    with lzma.open(REFERENCE, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def call_main(cli_module, argv, out_dir):
    """Run ``cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_module.main(list(argv) + ["--out-dir", out_dir])
    return rc, out.getvalue().replace(out_dir, OUT_TOKEN), err.getvalue().replace(out_dir, OUT_TOKEN)


def collect_outputs(out_dir):
    """{file name: text} for every file a command wrote into out_dir."""
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                files[name] = handle.read()
    return files


# ----------------------------------------------------------------------
# comparison

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def numbers_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def text_matches(got: str, want: str) -> bool:
    """Equal text, except that numbers may differ within FLOAT_TOL."""
    if got == want:
        return True
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return False
    # split() alternates literal text (even indices) and numbers (odd)
    return all(a == b if i % 2 == 0 else numbers_close(a, b) for i, (a, b) in enumerate(zip(g, w)))


def csv_matches(got: str, want: str) -> bool:
    g, w = got.split("\n"), want.split("\n")
    if len(g) != len(w) or g[0] != w[0]:
        return False
    for gl, wl in zip(g[1:], w[1:]):
        gc, wc = gl.split(","), wl.split(",")
        if len(gc) != len(wc) or not all(numbers_close(a, b) for a, b in zip(gc, wc)):
            return False
    return True


def metadata_matches(got: str, want: str) -> bool:
    g, w = json.loads(got), json.loads(want)
    g.pop("timestamp", None)
    w.pop("timestamp", None)
    return g == w


class Checker:
    """Compares a command's outputs with the recorded reference."""

    def __init__(self, reference):
        self.entries = reference["entries"]
        self.identical = 0
        self.artifacts = 0

    def check(self, argv, rc, stdout, files) -> bool:
        ref = self.entries[ref_key(argv)]
        ok = rc == ref["rc"] and text_matches(stdout, ref["stdout"]) and set(files) == set(ref["files"])
        for name, want in ref["files"].items():
            got = files.get(name)
            if got is None:
                continue
            if name.endswith(".meta.json"):
                ok = ok and metadata_matches(got, want)
                continue
            self.artifacts += 1
            if got == want:
                self.identical += 1
            elif name.endswith(".csv"):
                ok = ok and csv_matches(got, want)
            else:
                ok = ok and text_matches(got, want)
        return ok


class Workload:
    name = "cli_scenarios"

    def __init__(self, seed, tmp_dir):
        self.commands = draw_commands(seed)
        self.tmp_dir = tmp_dir
        reference = load_reference()
        missing = [argv for argv in self.commands if ref_key(argv) not in reference["entries"]]
        if missing:
            raise RuntimeError(f"no reference for {len(missing)} commands; rerun record_reference.py")
        self.checker = Checker(reference)
        self.cli = sys.modules["fockfield.cli"]
        recorded = reference["entries"]
        self.sizes = {
            "causality_pairs": recorded[ref_key(self.commands[0])]["files"]["causality.csv"].count("\n") - 1,
            "wavepacket_samples": recorded[ref_key(self.commands[1])]["files"]["wavepacket.csv"].count("\n") - 1,
            "commands": len(self.commands),
            "measure_large_outcomes": len(self.commands[2][2].split(",")),
            "cheap_by_scenario": {name: sum(1 for a in self.commands[HEAVY:] if a[0] == name)
                                  for name in dict.fromkeys(a[0] for a in self.commands[HEAVY:])},
        }

    def ops(self):
        """(label, run, check) per command; run is timed, check is not."""
        for index, argv in enumerate(self.commands):
            out_dir = os.path.join(self.tmp_dir, f"op{index}")

            def run(argv=argv, out_dir=out_dir):
                return call_main(self.cli, argv, out_dir)

            def check(result, argv=argv, out_dir=out_dir):
                rc, stdout, _ = result
                files = collect_outputs(out_dir)
                shutil.rmtree(out_dir, ignore_errors=True)
                return self.checker.check(argv, rc, stdout, files)

            yield argv[0], run, check
