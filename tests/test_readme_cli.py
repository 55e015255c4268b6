"""Every `tracelift` command in README's CLI block, run in-process, gives
the recorded exit code and byte-identical output.

The digests are SHA-256 of stdout, or of the written file for ``--out``.
A refactor must keep them; a change that means to alter a report updates
the digest here and says why.
"""

import hashlib
import pathlib
import shlex

import pytest

from tracelift.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

EXPECTED = {
    "tracelift sequences --n 2 --l 1":
        (0, "278545896537018f9abc8be3d182a9493d1a18b1428491dfaed5eac997504efe"),
    "tracelift build psi-n1 --n 4 --out psi41.json":
        (0, "f49a6a5af52f58843fdceb3d34ba776d3ad619041367e61803e3664c0bb2d6fe"),
    "tracelift verify axioms --backend matrix --N 4 --trials 20 --seed 1":
        (0, "cce07590165278fed2fe5d38645ce185e1218f6090999595edf3c94e96a16f9b"),
    "tracelift verify thm11 --n 2 --l 1 --commuting --trials 20 --seed 7":
        (0, "6b2aca3ba9d96acd157613bdd00fcd564460b44f1841c5265b3b0ea5488cde31"),
    "tracelift verify thm21 --n 3 --trials 20 --seed 7":
        (0, "bbb7956df38aa12d00f3ca6eea431971ed871fdcf5da0957a92ce16b055fc35b"),
    "tracelift verify thm23 --n 2 --l 2 --trials 10 --seed 7":
        (0, "69852635dd16828b06f24dc2c5a6f6db5ac37da3a1ffc72bc985286bf47701bd"),
    "tracelift verify lemma12 --n 2 --l 1 --trials 10 --seed 7":
        (0, "e2e4b5c7f1a5f18fd9ef62b62955994d13eb276e1549164e1141c0dc804aafe7"),
    "tracelift verify lemma111 --n 2 --l 1":
        (0, "0e23623282171327bab35f78fb2f1c9ffa95c8757b35db3b59fbbc599c4472c9"),
    "tracelift verify key-lemma --n 2 --l 1 --trials 10 --seed 7":
        (0, "9b79f8cb78d80bbe66000a5dba3801ebdb8b521cd2d7e093009c68e96a8f44ce"),
    "tracelift verify bracket-series --cutoff 4":
        (0, "8d5facbfce09e7c4564bb63de969c9e44a30e3f23954f0e31c17c5cdabc3f00d"),
    "tracelift verify thm21 --backend psido --n 2 --window 12 --trials 5":
        (0, "c99424f422b89ba48ad4cda2b8360b723535c6d5486a8c0972ca74fb6041b4b3"),
    "tracelift oracle --n 2 --l 1 --trials 10 --seed 3":
        (0, "d71062b5608e4e727957b898aaeb77a54ec5586bddf3032790aff6ea1a1097ee"),
}


def readme_commands():
    """The `tracelift` lines of README's CLI block, comments stripped."""
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("tracelift ")]


def test_every_readme_command_has_a_digest():
    assert readme_commands() == list(EXPECTED)


@pytest.mark.parametrize("line", list(EXPECTED))
def test_readme_command_output_is_unchanged(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)[1:]
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    data = capsys.readouterr().out.encode()
    if "--out" in argv:
        data = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
    assert (code, hashlib.sha256(data).hexdigest()) == EXPECTED[line]
