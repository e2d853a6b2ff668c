"""The scenario reader against configparser, its oracle.

``load_scenario`` read scenario files with ``configparser.ConfigParser(
interpolation=None)`` and ``optionxform = str``. ``read_ini`` must accept and
refuse exactly the texts that parser accepts and refuses, read the same
sections, keys and values in the same order, and refuse with its message.
"""

import configparser
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplan.errors import ScenarioError
from surplan.scenario import load_scenario, read_ini

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SOURCE = "case.ini"


def configparser_read(lines, source=SOURCE):
    """Every section's items, [DEFAULT] merged in, as load_scenario read them."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_file(iter(lines), source)
    return {name: list(parser.items(name)) for name in parser.sections()}


def outcome(read, lines):
    """What a reader makes of the lines: its sections, or its refusal."""
    try:
        sections = read(lines)
    except configparser.Error as exc:
        return "refused", f"cannot parse {SOURCE}: {exc}"
    except ScenarioError as exc:
        return "refused", str(exc)
    return "read", {name: list(items.items()) if isinstance(items, dict) else items
                    for name, items in sections.items()}


def assert_agree(text):
    lines = list(io.StringIO(text))
    ours = outcome(lambda lines: read_ini(lines, SOURCE), lines)
    theirs = outcome(configparser_read, lines)
    assert ours == theirs, text
    if ours[0] == "read":
        # the section order too, which decides which keys come first
        assert list(ours[1]) == list(theirs[1])


SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\xa0", "\r", "  "])
WORD = st.sampled_from(
    ["a", "A", "sur", "q0", "x y", "r0c0", "%(x)s", "5%", "k#", "k;", "[k]", "é", "a=b", "a:b"]
)
KEY = st.one_of(WORD, st.just(""), st.text(alphabet="ab :=#;[] \t", max_size=6))
VALUE = st.one_of(
    WORD,
    st.just(""),
    st.sampled_from(["q1:2 q2:3.5", "0,0 4,1-8", "G F sur", "1 = 2", ": x", "# not a comment"]),
    st.text(alphabet="ab0:=#;[]% \t\x0c", max_size=8),
)
KEY_LINE = st.builds(
    "{}{}{}{}{}{}".format, SPACE, KEY, SPACE, st.sampled_from(["=", ":"]), SPACE, VALUE
)
HEADER = st.builds(
    "{}[{}]{}".format,
    SPACE,
    st.sampled_from(["grid", "ts", "labels", "DEFAULT", "a b", "", "x]", "[y"]),
    st.sampled_from(["", " ", " tail", "]", " = 1"]),
)
OTHER = st.sampled_from(
    ["", " ", "\t", "# comment", "; comment", "   # indented comment", "junk", "=", ":",
     "= v", ": v", "  continued", "\tmore = text", "    deeper: still", "[", "]", "\ufeff[grid]"]
)
LINE = st.one_of(KEY_LINE, HEADER, OTHER)


@settings(max_examples=600, deadline=None)
@given(lines=st.lists(LINE, max_size=25), end=st.sampled_from(["", "\n", "\n\n"]))
def test_the_reader_agrees_with_configparser(lines, end):
    assert_agree("\n".join(lines) + end)


@settings(max_examples=200, deadline=None)
@given(
    sections=st.lists(
        st.tuples(
            st.sampled_from(["ts", "transitions", "labels", "DEFAULT", "mission"]),
            st.lists(st.tuples(WORD, st.sampled_from(["=", " = ", ": "]), VALUE), max_size=6),
        ),
        max_size=5,
    ),
    indent=st.lists(st.integers(0, 3), max_size=40),
)
def test_the_reader_agrees_on_well_formed_and_indented_files(sections, indent):
    """Section blocks of key lines, some indented, so that continuation lines,
    duplicate keys and [DEFAULT] merges come up often."""
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [f"{key}{delimiter}{value}" for key, delimiter, value in items]
    lines = [" " * (indent[i] if i < len(indent) else 0) + line for i, line in enumerate(lines)]
    assert_agree("\n".join(lines) + "\n")


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.ini")), ids=lambda p: p.name)
def test_the_reader_agrees_on_the_shipped_scenarios(path):
    assert_agree(path.read_text())


@pytest.mark.parametrize(
    "text",
    [
        "a = 1\n",
        "\n# c\n  x = 1\n",
        "[s]\na = 1\n[s]\n",
        "[s]\na = 1\njunk\na = 2\n",
        "[s]\njunk\n[t]\n= x\nmore junk\n",
        "[DEFAULT]\na = 1\n[s]\nb = 2\n[DEFAULT]\nc = 3\n",
        "[DEFAULT]\na = 1\n[DEFAULT]\na = 2\n",
        "[s]\nk = v\n\n  w\n\n",
        "[s]\nk =\n  # comment\n  w\n",
        "[s]\n  k = v\n  [t]\n j = 1\n",
        "[s]\nkey:with = colon first\n",
        "[s]\nk x = 1\n",
        "",
    ],
)
def test_the_reader_agrees_on_edge_cases(text):
    assert_agree(text)


def old_loader_refusal(path):
    """The refusal of the configparser-based loader while reading ``path``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    except configparser.Error as exc:
        return f"cannot parse {path}: {exc}"
    return None


@pytest.mark.parametrize(
    "head, tail",
    [
        # undecodable bytes in the first block read: refused as unreadable
        (b"[grid]\nrows = 3\n\xe9\n", b""),
        # beyond it, a line the parser has already refused comes first
        (b"[grid]\n[grid]\n" + b"# pad\n" * 3000, b"\xe9\n"),
        (b"[grid]\n" + b"# pad\n" * 3000, b"\xe9\n"),
        (b"[grid]\njunk\n" + b"# pad\n" * 3000, b"\xe9\n"),
    ],
)
def test_a_file_is_refused_as_configparser_refused_it(tmp_path, head, tail):
    path = tmp_path / "case.ini"
    path.write_bytes(head + tail)
    expected = old_loader_refusal(path)
    assert expected is not None
    with pytest.raises(ScenarioError) as refused:
        load_scenario(path)
    assert str(refused.value) == expected
