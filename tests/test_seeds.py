"""Stream tags: each of ``fsbb84.seeds`` is drawn by the library, the reference chain's apart."""

import re
from pathlib import Path

import fsbb84
import reference_chain
from fsbb84 import seeds

PACKAGE = Path(fsbb84.__file__).resolve().parent
TAGS = {name: value for name, value in vars(seeds).items() if name.startswith("STREAM_")}


def test_every_stream_tag_is_drawn_by_a_library_module():
    # a tag only the tests draw from belongs with them (tests/reference_chain.py)
    text = "\n".join(p.read_text() for p in PACKAGE.rglob("*.py") if p.name != "seeds.py")
    undrawn = [name for name in TAGS
               if not re.search(rf"\b(spawn|counter_key)\([^)]*\b{name}\b", text)]
    assert undrawn == []


def test_reference_chain_tags_collide_with_no_library_tag():
    own = [reference_chain.STREAM_CHANNEL, reference_chain.STREAM_EMIT_JITTER]
    assert len(set(TAGS.values())) == len(TAGS)
    assert len(set(own)) == len(own) and not set(own) & set(TAGS.values())
