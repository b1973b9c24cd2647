"""Seeded protocol corpora and the edit sequence of the fix-and-recheck loop.

Everything here is a pure function of the workload seed: the generator
seed, the corpus bytes and every edit.  The checker under test only ever
sees the files this module writes to disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random

#: ``generate_all``'s default seed, the one the paper tables use.
#: Workload seed 0 maps to it.
CANONICAL_GENERATOR_SEED = 0xF1A5

#: Every generated directory, in the fixed order a round visits them.
PROTOCOLS = ("bitvector", "dyn_ptr", "sci", "coma", "rac", "common")

#: The directories the edit loop works in: the smallest protocol and the
#: common code.  Two keep the cache fill and a whole round of edits
#: inside one run.
EDIT_PROTOCOLS = ("bitvector", "common")


def generator_seed(seed: int) -> int:
    """The ``generate_all`` seed derived from a workload seed."""
    return (CANONICAL_GENERATOR_SEED + 7919 * seed) % (2 ** 31)


def generate(seed: int) -> dict:
    """``{name: GeneratedProtocol}`` for a workload seed."""
    from repro.flash.codegen import generate_all
    return generate_all(seed=generator_seed(seed))


def write_corpus(protocols: dict, root: Path) -> None:
    """Write each protocol's sources and spec under ``root/<name>/``."""
    from repro.flash.spec import dump_spec
    for name, gp in protocols.items():
        directory = root / name
        directory.mkdir(parents=True)
        for filename, text in gp.files.items():
            (directory / filename).write_text(text)
        (directory / f"{name}.spec").write_text(dump_spec(gp.info))


def check_args(protocols: dict, name: str) -> list:
    """``mc-check check`` arguments for one directory, relative to the
    corpus root (so report paths do not depend on where it lives)."""
    files = sorted(f"{name}/{filename}" for filename in protocols[name].files)
    return ["check", *files, "--spec", f"{name}/{name}.spec",
            "--format", "json"]


def kloc(root: Path, protocols: dict, name: str) -> float:
    """Non-blank source lines of one directory's ``.c`` files, in kLOC."""
    lines = 0
    for filename in protocols[name].files:
        text = (root / name / filename).read_text()
        lines += sum(1 for line in text.splitlines() if line.strip())
    return lines / 1000.0


# -- the edit sequence -------------------------------------------------------

@dataclass(frozen=True)
class Edit:
    """Append a comment to one statement line; line numbers stay put."""

    step: int
    protocol: str
    file: str
    line: int          # 0-based index into the file's lines

    @property
    def comment(self) -> str:
        return f" /* edit {self.step} */"


def statement_lines(text: str) -> list:
    """0-based indices of lines that end a statement (``...;``) outside
    any block comment: appending a comment there changes no token."""
    found = []
    in_comment = False
    for index, line in enumerate(text.split("\n")):
        stripped = line.strip()
        starts_in_comment = in_comment
        position = 0
        while True:
            marker = "*/" if in_comment else "/*"
            hit = line.find(marker, position)
            if hit < 0:
                break
            in_comment = not in_comment
            position = hit + 2
        if (not starts_in_comment and not in_comment
                and stripped.endswith(";")
                and not stripped.startswith(("#", "//", "/*"))):
            found.append(index)
    return found


class EditPlan:
    """The seeded edit sequence over one generated corpus.

    A round of edits visits every non-empty file of
    :data:`EDIT_PROTOCOLS` once, in an order the seed shuffles, so every
    round checks the same mix; the seed also picks the statement line of
    each step.  Each round and step draws from its own generator, so the
    plan does not depend on how many steps a run gets through.
    """

    def __init__(self, seed: int, protocols: dict):
        self.seed = seed
        self.targets = [
            (name, filename, lines)
            for name in EDIT_PROTOCOLS
            for filename, text in sorted(protocols[name].files.items())
            if (lines := statement_lines(text))
        ]

    @property
    def round_length(self) -> int:
        return len(self.targets)

    def edit(self, step: int) -> Edit:
        round_index, position = divmod(step, self.round_length)
        order = list(range(self.round_length))
        Random(f"perfbench-round:{self.seed}:{round_index}").shuffle(order)
        protocol, filename, lines = self.targets[order[position]]
        line = Random(f"perfbench-edit:{self.seed}:{step}").choice(lines)
        return Edit(step, protocol, filename, line)


def apply_edit(root: Path, edit: Edit) -> None:
    """Apply ``edit`` to the file on disk under the corpus ``root``."""
    path = root / edit.protocol / edit.file
    lines = path.read_text().split("\n")
    lines[edit.line] += edit.comment
    path.write_text("\n".join(lines))
