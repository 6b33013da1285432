"""Exit-code contract under drawn input: every document, however malformed,
ends in exit 0, 2 or 3 with a report, and the same invocation gives the same
output twice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanvar.cli import run


def sometimes(rare, usual, one_in=16):
    """``usual``, or ``rare`` about once in ``one_in`` draws, so that most
    documents are well formed and reach a verdict."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == one_in else usual)


rationals = sometimes(
    st.builds("{}/0".format, st.integers(-3, 3)),
    st.integers(-3, 3).map(str) | st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)),
)
MALFORMED_TERMS = ["t^", "2/", "^3", "1.5", "1e3", "t^-1", "**", "u v w", "1//2", "x", "+", ""]
MALFORMED_DOCS = [
    "", "kind: curve\n", "kind: blob\n", "truncation: 3\n", "kind: surface\ntruncation: x\n"
]
truncations = st.integers(-1, 6)


def monomial(names):
    factors = st.tuples(st.sampled_from(names), st.integers(0, 4))
    return st.lists(factors, max_size=2).map(lambda fs: " ".join(f"{n}^{e}" for n, e in fs))


def poly(names):
    wellformed = st.builds("{} {}".format, rationals, monomial(names))
    term = sometimes(st.sampled_from(MALFORMED_TERMS), wellformed)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def closed_pair(draw):
    """x3, x4 as the gradient of a drawn potential, so the pair is integrable."""
    x3, x4 = [], []
    for i, j in [(3, 0), (2, 1), (1, 2), (0, 3), (2, 2), (1, 3)]:
        c = draw(st.integers(-2, 2))
        if c and i:
            x3.append(f"{c * i} u^{i - 1} v^{j}")
        if c and j:
            x4.append(f"{c * j} u^{i} v^{j - 1}")
    return " + ".join(x3) or "0", " + ".join(x4) or "0"


curve_docs = st.builds(
    lambda K, comps: f"kind: curve\ntruncation: {K}\n"
    + "".join(f"component: {c}\n" for c in comps),
    truncations,
    st.lists(poly(["t"]), min_size=1, max_size=4),
)
surface_docs = st.builds(
    lambda K, pair: f"kind: surface\ntruncation: {K}\nx3: {pair[0]}\nx4: {pair[1]}\n",
    truncations,
    closed_pair() | st.tuples(poly(["u", "v"]), poly(["u", "v"])),
)
entries = sometimes(st.sampled_from(MALFORMED_TERMS), rationals)
matrix_docs = sometimes(
    st.lists(entries, min_size=5, max_size=7), st.lists(entries, min_size=6, max_size=6), 4
).map(lambda row: "kind: matrix\nentries: " + " ".join(row) + "\n")
documents = curve_docs | surface_docs | matrix_docs | st.sampled_from(MALFORMED_DOCS)

# the document kind each command reads; it is also handed any other kind
COMMANDS = {
    "type": curve_docs,
    "classify": curve_docs,
    "tangent": curve_docs,
    "opening": curve_docs,
    "surface": surface_docs,
    "veronese": matrix_docs,
    "batch": documents,
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    docs = draw(st.lists(sometimes(documents, COMMANDS[command], 3), min_size=1, max_size=3))
    return command, "---\n".join(docs) if command == "batch" else docs[0]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.germ"


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_exit_code_contract(doc_path, invocation):
    command, text = invocation
    doc_path.write_text(text)
    first = run([command, str(doc_path)])
    assert first[0] in (0, 2, 3), (command, text, first)
    assert run([command, str(doc_path)]) == first
