"""The README's examples run as written, so the documentation cannot drift
from the code."""

import json
import re
from pathlib import Path

from krobust.cli import parse_instance, serialize_instance
from krobust.model import SETCOVER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced code block of the language after the heading."""
    start = README.index(heading)
    match = re.compile(rf"^```{language}\n(.*?)^```", re.M | re.S).search(
        README, start)
    assert match, (heading, language)
    return match.group(1)


def test_instance_format_example_parses():
    doc = json.loads(_block("### Instance format", "json"))
    inst = parse_instance(doc)
    assert inst.kind == SETCOVER and inst.payload.masks == (2, 4, 6)
    assert serialize_instance(inst) == doc


def test_library_example_runs():
    scope: dict = {}
    exec(_block("## Library", "python"), scope)
    assert scope["system"].masks == (2, 4, 6)
    assert scope["opt"] > 0 and scope["trace"].day == 0
    assert scope["report"].robcov >= scope["opt"]
