"""Exit-code contract under drawn input: every invocation of every
subcommand, however malformed its document or options, ends in exit 0, 2 or
3 with a report, and the same invocation gives the same output twice."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanvar.classify import SINGULARITY_SLUGS
from tanvar.cli import COMMANDS, run
from tanvar.strata import CLASSES, MAX_TYPE_LENGTH
from tanvar.tangency import MAX_MORIN_VARIABLES


def sometimes(rare, usual, one_in=16):
    """``usual``, or ``rare`` about once in ``one_in`` draws, so that most
    inputs are well formed and reach a verdict."""
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


def reading(docs, most=1):
    """No options and up to ``most`` documents, usually drawn from ``docs``,
    joined into the one input file the command reads."""
    texts = st.lists(sometimes(documents, docs, 3), min_size=1, max_size=most)
    return texts.map(lambda ts: ([], "---\n".join(ts)))


def small(past_cap):
    """A small integer, negative ones included, or now and then ``past_cap``,
    the first value a cap refuses."""
    return sometimes(st.just(past_cap), st.integers(-1, 6))


def flag(name, values, required=False):
    """``--name=value``; an optional flag is left out about one time in three."""
    given = values.map(lambda v: [f"--{name}={v}"])
    return given if required else sometimes(st.just([]), given, 3)


def options(*flags):
    """Command-line options only; no input file."""
    return st.tuples(*flags).map(lambda fs: (sum(fs, []), None))


PAST_CAP_TYPE = ",".join(map(str, range(1, MAX_TYPE_LENGTH + 2)))
MALFORMED_TYPES = ["", ",", "1,,2", "2,1", "1,1", "0,1", "-1,2", "a", "1 2", "1.5,2", PAST_CAP_TYPE]
types = sometimes(
    st.sampled_from(MALFORMED_TYPES),
    st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=1, max_size=6).map(
        lambda gaps: ",".join(map(str, accumulate(gaps)))
    ),
    6,
)
class_flags = (
    flag("class", st.sampled_from(tuple(CLASSES) + ("flag",))),
    flag("N", small(MAX_TYPE_LENGTH)),
    flag("n", small(MAX_TYPE_LENGTH // 2)),
    flag("k", small(MAX_TYPE_LENGTH + 1)),
)

# every subcommand of cli.COMMANDS: what it is given, as (options, document)
STRATEGIES = {
    "type": reading(curve_docs),
    "classify": reading(curve_docs),
    "tangent": reading(curve_docs),
    "opening": reading(curve_docs),
    "surface": reading(surface_docs),
    "veronese": reading(matrix_docs),
    "batch": reading(documents, most=3),
    "codim": options(flag("type", types, required=True), *class_flags),
    "enumerate": options(*class_flags),
    "morin": options(
        flag("k", small(MAX_MORIN_VARIABLES + 1), required=True),
        flag("m", small(MAX_MORIN_VARIABLES)),
    ),
    "family": options(flag("type", types, required=True)),
    "normal-form": options(
        flag("singularity", st.sampled_from([*SINGULARITY_SLUGS, "", "cusp"]), required=True),
        flag("ambient", small(MAX_TYPE_LENGTH + 1), required=True),
    ),
}


def test_every_subcommand_is_fuzzed():
    assert sorted(STRATEGIES) == sorted(command.name for command in COMMANDS)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from([c.name for c in COMMANDS]))
    return (command, *draw(STRATEGIES[command]))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.germ"


@settings(max_examples=250, deadline=None)
@given(invocations())
def test_exit_code_contract(doc_path, invocation):
    command, argv, text = invocation
    argv = [command, *argv]
    if text is not None:
        doc_path.write_text(text)
        argv.append(str(doc_path))
    first = run(argv)
    assert first[0] in (0, 2, 3), (argv, text, first)
    assert run(argv) == first
