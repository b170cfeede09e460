import itertools
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degspan import (
    GraphParseError,
    LabelledGraph,
    LabelledTree,
    check_condition,
    degree_sum_threshold,
    find_spanning_tree,
    min_nonadjacent_degree_sum,
    parse_graph,
    random_condition_graph,
    serialize_graph,
    validate_degree_sequence,
)
from degspan.cli import run_batch
from degspan.extremal import build_extremal, extremal_order
import degspan.graph
from degspan.graph import MAX_GENERATED_N, MAX_N, _row_has, bounded_int, normalized_edge
from support import all_labelled_graphs, complete_graph, graphs, path_graph


# K_150 in serialize_graph's layout, about ten blocks, with a self-loop on
# line 3002 (in the third block) and an out-of-range endpoint on its last
# line: the bulk setting stops at the self-loop, the first error, and the
# third block's line checks raise there.
_K150 = serialize_graph(complete_graph(150)).splitlines(keepends=True)
DENSE_SELF_LOOP = "".join(_K150[:3001] + ["7 7\n"] + _K150[3001:] + ["0 150\n"])


def _block_starts(text):
    """The line numbers that open parse_graph's blocks after the count on
    line 1, for a text whose lines are all shorter than a block."""
    pos, lineno, starts = text.index("\n") + 1, 2, []
    while pos < len(text):
        starts.append(lineno)
        cut = text.rfind("\n", pos, pos + degspan.graph._BLOCK) + 1
        lineno += text.count("\n", pos, cut)
        pos = cut
    return starts


def _dense_self_loop_at_block_edge(first):
    """K_150 with a self-loop put in where it is the first (or last) line of
    an edge block after the first, and that line's number."""
    for lineno in _block_starts("".join(_K150))[1:]:
        text = "".join(_K150[: lineno - 1] + ["7 7\n"] + _K150[lineno - 1:])
        if (lineno if first else lineno + 1) in _block_starts(text):
            return text, lineno
    raise AssertionError("no block edge takes the self-loop")


class TestParse:
    def test_path_on_four_vertices(self):
        g = parse_graph("4\n0 1\n1 2\n2 3\n")
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_duplicate_lines_collapse(self):
        g = parse_graph("3\n0 1\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_reversed_duplicate_collapses(self):
        g = parse_graph("3\n0 1\n1 0\n")
        assert g.edges == ((0, 1),)

    def test_self_loop_names_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("2\n0 0\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n4\n# an edge\n0 1\n\n2 3\n"
        g = parse_graph(text)
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("3\n0 3\n")
        assert exc.value.line == 2

    def test_malformed_edge_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("3\n0 1 2\n")
        with pytest.raises(GraphParseError):
            parse_graph("3\n0 x\n")
        with pytest.raises(GraphParseError):  # only whole lines are comments
            parse_graph("3\n0 1 # x\n")

    def test_missing_vertex_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("# only a comment\n")

    def test_bad_vertex_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("zebra\n")

    def test_isolated_vertices_allowed(self):
        g = parse_graph("5\n0 1\n")
        assert g.degree(4) == 0

    @pytest.mark.parametrize("token", ["1_0", "+3", "-1", "\uff12", "\u00b2", "0x2", "2.0"])
    def test_numbers_are_ascii_digits_only(self, token):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"12\n{token} 2\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"12\n0 {token}\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"# count\n{token}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# only a comment\n", 1, "missing vertex count line"),
            ("\n# c\n4 4\n", 3, "expected vertex count, got '4 4'"),
            ("# c\n1000001\n", 2, f"vertex count exceeds the limit {MAX_N}"),
            ("3\n0 1\n\n  0 1 2 \n", 4, "expected 'u v', got '0 1 2'"),
            ("3\n0 1\n0 x\n", 3, "endpoint not in digits 0-9 in '0 x'"),
            ("3\n# c\n0 3\n", 3, "vertex index out of range [0, 3) in '0 3'"),
            ("3\n0 1\n 2 2\n", 3, "self-loop at vertex 2"),
            ("5\n0 0\n", 2, "self-loop at vertex 0"),  # sparse: list rows, never bulk
            pytest.param(DENSE_SELF_LOOP, 3002, "self-loop at vertex 7", id="dense-self-loop"),
            pytest.param(
                "".join(_K150[:100] + ["0 150\n"] + _K150[100:3000] + ["7 7\n"] + _K150[3000:]),
                101, "vertex index out of range [0, 150) in '0 150'",
                id="dense-out-of-range-before-a-later-self-loop",
            ),
            pytest.param(*_dense_self_loop_at_block_edge(first=True), "self-loop at vertex 7",
                         id="dense-self-loop-opens-a-block"),
            pytest.param(*_dense_self_loop_at_block_edge(first=False), "self-loop at vertex 7",
                         id="dense-self-loop-ends-a-block"),
            pytest.param(
                "".join(_K150[:2999] + ["007 1\n"] + _K150[2999:3000] + ["7 7\n"] + _K150[3000:]),
                3002, "self-loop at vertex 7", id="dense-self-loop-after-a-non-canonical-name",
            ),
        ],
    )
    def test_every_error_names_its_line(self, text, line, message):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_a_dense_self_loop_is_read_once(self):
        with mock.patch.object(degspan.graph, "bounded_int", wraps=bounded_int) as spy:
            with pytest.raises(GraphParseError) as exc:
                parse_graph(DENSE_SELF_LOOP)
        assert str(exc.value) == "line 3002: self-loop at vertex 7"
        # the count, then two per line of the third block up to the self-loop
        assert spy.call_count < 1000

    def test_leading_zeros_keep_their_value(self):
        g = parse_graph("0004\n00 03\n" + "0" * 5000 + "1 2\n")
        assert g == LabelledGraph.from_edges(4, [(0, 3), (1, 2)])

    def test_count_over_limit_is_rejected_before_allocating(self):
        for count in (str(MAX_N + 1), "9" * 5000):
            error, peak = _rejection(f"# big\n{count}\n0 1\n")
            assert str(error) == f"line 2: vertex count exceeds the limit {MAX_N}"
            assert peak < 100_000

    def test_no_per_vertex_table_beyond_the_neighbour_lists(self):
        n = 200_000
        text = f"{n}\n0 1\n"
        tracemalloc.start()
        try:
            lists = [[] for _ in range(n)]
            lists_bytes = tracemalloc.get_traced_memory()[0]
            del lists
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            g = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert g.edges == ((0, 1),)
        assert peak <= 1.25 * lists_bytes

    def test_huge_endpoint_is_out_of_range_without_conversion(self):
        huge = "9" * 5000  # int() refuses more than 4300 digits by default
        for text in (f"3\n0 1\n{huge} 1\n", f"3\n0 1\n1 {huge}\n"):
            error, peak = _rejection(text)
            assert error.line == 3
            assert "vertex index out of range [0, 3)" in str(error)
            assert peak < 100_000


def test_bounded_int():
    cases = [
        ("0", 0, 0),
        ("000", 5, 0),
        ("0007", 7, 7),
        ("8", 7, None),
        ("0", -1, None),
        (str(MAX_N), MAX_N, MAX_N),
        ("0" * 5000 + str(MAX_N), MAX_N, MAX_N),
        (str(MAX_N + 1), MAX_N, None),
        ("9" * 5000, MAX_N, None),  # int() refuses more than 4300 digits by default
    ]
    for digits, limit, value in cases:
        assert bounded_int(digits, limit) == value


def _rejection(text):
    """The GraphParseError parse_graph(text) raises, and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        return exc.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@given(graphs())
def test_serialize_parse_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs(), st.randoms(use_true_random=False))
def test_from_edges_ignores_order_orientation_and_duplicates(g, rng):
    pairs = list(g.edges) + [(v, u) for u, v in g.edges]
    rng.shuffle(pairs)
    h = LabelledGraph.from_edges(g.n, pairs)
    assert h == g
    assert hash(h) == hash(g)
    assert h.edges == tuple(sorted({normalized_edge(u, v) for u, v in pairs}))


@st.composite
def edge_list_texts(draw):
    """(text, n, pairs): an edge-list file with repeated and reversed pairs,
    comments, blank lines, padding and mixed line endings around its lines."""
    n = draw(st.integers(0, 9))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = []
    if n >= 2:
        pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])))
    if pairs:
        repeats = draw(st.lists(st.sampled_from(pairs), max_size=8))
        pairs = draw(st.permutations(pairs + [(v, u) for u, v in repeats] + repeats[:2]))
    pad = st.sampled_from(["", " ", "\t", " \t "])
    filler = st.lists(st.sampled_from(["", "  ", "#", "# 0 1", "  # note"]), max_size=2)
    lines = draw(filler) + [draw(pad) + str(n) + draw(pad)]
    for u, v in pairs:
        gap = draw(st.sampled_from([" ", "\t", "   "]))
        lines += draw(filler) + [f"{draw(pad)}{u}{gap}{v}{draw(pad)}"]
    lines += draw(filler)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)), n, pairs


@given(edge_list_texts())
def test_parse_equals_from_edges_of_the_same_pairs(case):
    text, n, pairs = case
    assert parse_graph(text) == LabelledGraph.from_edges(n, pairs)


def reference_parse_graph(text):
    """``parse_graph`` with every check on every line and no token memo."""
    n = None
    width = 0
    adjacency = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not (line.isascii() and line.isdigit()):
                raise GraphParseError(f"expected vertex count, got {line!r}", lineno)
            n = int(_capped(line, len(str(MAX_N))))
            if n > MAX_N:
                raise GraphParseError(f"vertex count exceeds the limit {MAX_N}", lineno)
            width = len(str(n))
            adjacency = [[] for _ in range(n)]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        a, b = parts
        if not (line.isascii() and a.isdigit() and b.isdigit()):
            raise GraphParseError(f"endpoint not in digits 0-9 in {line!r}", lineno)
        if len(a) > width or len(b) > width:
            a, b = _capped(a, width), _capped(b, width)
        u, v = int(a), int(b)
        if u >= n or v >= n:
            raise GraphParseError(f"vertex index out of range [0, {n}) in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        adjacency[u].append(v)
        adjacency[v].append(u)
    if n is None:
        raise GraphParseError("missing vertex count line", 1)
    return LabelledGraph(tuple(tuple(sorted(set(a))) for a in adjacency))


def _capped(digits, width):
    return digits.lstrip("0")[: width + 1] or "0"


# Every character str.split and str.strip treat as whitespace, and the
# subset str.splitlines also breaks lines at.
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]
LINE_BREAKS = [c for c in WHITESPACE if len(f"a{c}a".splitlines()) == 2] + ["\r\n"]
JUNK_TOKENS = ["\u0663", "\u00b2", "\uff12", "_", "+", "-1", "1_0", "+1", "x", "#", "#0"]


@st.composite
def hostile_graph_texts(draw):
    """Graph files whose well-formed edge lines repeat and pad their
    endpoints, ended by every line break, with a few hostile lines put in
    anywhere: any whitespace character, out-of-range or non-ASCII digits,
    self-loops, comment lines with two tokens, wrong token counts."""
    n = draw(st.integers(0, 12))
    names = [str(i) for i in range(n)] + (["7", "007"] if n > 7 else [])
    names += ["0" + name for name in names]
    number = st.sampled_from(names or ["0"])
    space = st.sampled_from([" ", "\t", "  ", "\x1f"])
    hostile_space = st.one_of(space, st.sampled_from(WHITESPACE))
    token = st.one_of(number, st.sampled_from([str(n), str(n + 1), "0" + str(n)] + JUNK_TOKENS))

    @st.composite
    def line(draw, tokens, space):
        words = draw(tokens)
        pad = st.one_of(st.just(""), space)
        body = words[0] if words else ""
        for word in words[1:]:
            body += draw(space) + word
        return draw(pad) + body + draw(pad)

    edge = line(st.tuples(number, number).filter(lambda p: int(p[0]) != int(p[1])), space)
    pool = draw(st.lists(edge, min_size=1, max_size=8))
    hostile = st.one_of(
        line(st.tuples(number, number), hostile_space),
        line(st.lists(token, max_size=3), hostile_space),
        line(st.tuples(st.sampled_from(["#", "#0", "# 1"]), number), hostile_space),
        # a well-formed line gone wrong: its tokens are already known
        st.tuples(st.sampled_from(pool), hostile_space, token).map("".join),
        st.tuples(st.sampled_from(["#", "0"]), st.sampled_from(pool)).map("".join),
        st.tuples(hostile_space, st.sampled_from(pool)).map(lambda p: p[0].join(p[1].split())),
        st.sampled_from(pool).map(lambda edge: 2 * (edge.split()[0] + " ")),
    )
    count = line(st.tuples(st.sampled_from([str(n), "0" + str(n)])), space)
    if draw(st.integers(0, 5)) == 3:
        count = hostile
    size = draw(st.integers(0, 30))
    lines = [draw(count)] + draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(hostile))
    ends = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(row + end for row, end in zip(lines, ends))


def lone_cr_k5(end):
    """K_5 in serialize_graph's layout, each line ending in ``end`` but line 6, "1 \\r2\\n".

    The lone carriage return breaks line 6, so it reads "1 ", not the edge
    (1, 2), whether the other lines end in LF or in CRLF: a block folds
    CRLF to LF only when that leaves no carriage return.
    """
    lines = [line + end for line in serialize_graph(complete_graph(5)).splitlines()]
    lines[5] = "1 \r2\n"
    return "".join(lines)


def _parsed(parse, text):
    """The graph parse(text) returns, or the message and line of its GraphParseError."""
    try:
        return parse(text)
    except GraphParseError as error:
        return str(error), error.line


@settings(max_examples=300, deadline=None)
@given(hostile_graph_texts())
@example("12\n007 1\n7 1\n1 007\n0 7\n007 7\n")
@example("12\n1 2\n1 2 3\n")
@example("12\n7 1\n007 1\n# 7\n1 7\n7 1\n1\xa07\n")
@example("9\r\n00 1\r\n0 1\x1f\x85 1  00 \x1c1\u30000\n")
@example("# 0\r\r\n0 1\n")
@example(lone_cr_k5("\n"))
@example(lone_cr_k5("\r\n"))
def test_parse_agrees_with_the_per_line_reference(text):
    assert _parsed(parse_graph, text) == _parsed(reference_parse_graph, text)


def read_in_bulk(text):
    """True iff ``parse_graph`` returns a graph and reads no edge line through
    the per-line checks, so ``bounded_int`` runs for the vertex count alone."""
    with mock.patch.object(degspan.graph, "bounded_int", wraps=bounded_int) as spy:
        parsed = _parsed(parse_graph, text)
    return isinstance(parsed, LabelledGraph) and spy.call_count == 1


@given(graphs(min_n=0, max_n=24))
def test_bulk_reader_agrees_with_the_line_loop(g):
    text = serialize_graph(g)
    dense = g.n * g.n <= degspan.graph._ROW_BYTES_PER_CHAR * len(text)
    assert reference_parse_graph(text) == g
    assert parse_graph(text) == g
    assert read_in_bulk(text) == (dense or not g.edges)


# A dense graph on 5 vertices in serialize_graph's layout.
CANONICAL = "5\n0 1\n0 2\n0 3\n1 2\n1 4\n2 3\n3 4\n"


@pytest.mark.parametrize(
    "text, bulk",
    [
        (CANONICAL, True),
        (CANONICAL + "0 1\n", True),  # a duplicate edge collapses
        (CANONICAL + "4 0\n", True),  # so does any order or orientation
        ("005\n" + CANONICAL[2:], True),  # the count is any run of digits
        ("0\n", True),
        ("1\n", True),
        ("5\n0 1\n", False),  # sparse: n^2 bytes of rows exceed the bound
        (CANONICAL.replace("0 2", "00 2"), False),
        (CANONICAL.replace("\n", "\r\n"), True),  # CRLF folds to LF
        (CANONICAL.replace("\n", "\r\n")[:-2], True),
        (CANONICAL.replace("0 2", "0\t2"), False),
        (CANONICAL.replace("0 2", "0  2"), False),
        (CANONICAL.replace("0 2", "0 2 "), False),
        (CANONICAL.replace("0 2", " 0 2"), False),
        (CANONICAL[:-1], True),  # the last line needs no newline
        ("# c\n" + CANONICAL, True),  # lines up to the count are read one at a time
        ("\n# c\r\n  # d\n" + CANONICAL, True),
        (CANONICAL.replace("0 2\n", "0 2\n# c\n"), False),
        (CANONICAL.replace("0 2\n", "0 2\n\n"), False),
        (CANONICAL + "2 2\n", False),
        (CANONICAL + "0 5\n", False),
        (CANONICAL + "5 0\n", False),
        (CANONICAL + "0 1 2\n", False),
        (CANONICAL + "01\n", False),
        (CANONICAL + "0 \n1 \n", False),  # one space per line, one token per line
        (CANONICAL + " 4\n", False),
        (CANONICAL + " \n", False),
        ("0\n0 1\n", False),
        ("1\n0 0\n", False),
        (CANONICAL.replace("0 2", "0 \uff12"), False),
        ("\uff15" + CANONICAL[1:], False),
        (f"{MAX_N + 1}\n0 1\n", False),
    ],
)
def test_near_canonical_texts_fall_back_to_the_line_loop(text, bulk):
    assert read_in_bulk(text) == bulk
    assert _parsed(parse_graph, text) == _parsed(reference_parse_graph, text)


def sampled_host(n, seed):
    """round(0.7 n(n-1)/2) edges drawn at random, the density of oracle-agree's graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    return LabelledGraph.from_edges(n, random.Random(seed).sample(pairs, round(0.7 * len(pairs))))


@pytest.mark.parametrize("g", [
    complete_graph(1),
    complete_graph(2),
    complete_graph(12),
    random_condition_graph(40, 3, seed=1),
    random_condition_graph(100, 4, seed=2),
    build_extremal(5, 3)[0],
    # the benchmark's shapes: n = 120 hosts, oracle-agree's sampled graphs, extremal members
    random_condition_graph(120, 3, seed=1),
    random_condition_graph(120, 4, seed=2),
    sampled_host(8, seed=1),
    sampled_host(11, seed=2),
    build_extremal(1, 3)[0],
    build_extremal(2, 4)[0],
])
def test_serialized_dense_graphs_take_the_bulk_path(g, monkeypatch):
    def no_line_loop(adjacency):
        raise AssertionError("the line loop froze neighbour lists")

    monkeypatch.setattr(degspan.graph, "_freeze", no_line_loop)
    assert parse_graph(serialize_graph(g)) == g


def _inserted(text, line):
    """text with line put in after its middle line."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2] + [line] + lines[len(lines) // 2:])


@pytest.mark.parametrize("g", [
    complete_graph(12),
    random_condition_graph(120, 3, seed=1),
    sampled_host(11, seed=2),
    build_extremal(2, 4)[0],
])
@pytest.mark.parametrize("variant", [
    lambda text: "# a leading comment\n" + text,
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text[:-1],
    lambda text: text[:-1].replace("\n", "\r\n"),
    lambda text: "# \u00e9t\u00e9 \u2211 \U0001d53e\n" + text,
    # a comment line longer than a block, in the middle of the edge lines
    lambda text: _inserted(text, "#" + "x" * degspan.graph._BLOCK + "\n"),
], ids=["comment", "crlf", "no-final-newline", "crlf-no-final-newline", "non-ascii-comment",
     "long-comment"])
def test_dense_hand_written_files_keep_the_byte_rows(g, variant, monkeypatch):
    def no_list_rows(adjacency):
        raise AssertionError("a dense graph was read into neighbour lists")

    monkeypatch.setattr(degspan.graph, "_freeze", no_list_rows)
    assert parse_graph(variant(serialize_graph(g))) == g


def test_a_comment_line_keeps_the_bulk_peak():
    bare = serialize_graph(random_condition_graph(300, 3, seed=1))
    commented = "# random_condition_graph(300, 3, seed=1)\n" + bare

    def peak(text):
        tracemalloc.start()
        try:
            g = parse_graph(text)
            return g, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    g, bare_peak = peak(bare)
    h, commented_peak = peak(commented)
    assert h == g
    assert commented_peak <= 1.5 * bare_peak


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree_vector()) == 2 * len(g.edges)


class TestAdjacency:
    def test_path_examples(self):
        g = path_graph(3)
        assert g.are_adjacent(0, 1)
        assert g.are_adjacent(1, 0)
        assert not g.are_adjacent(0, 2)

    def test_never_self_adjacent(self):
        g = complete_graph(4)
        for v in range(4):
            assert not g.are_adjacent(v, v)

    def test_index_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(IndexError, match=r"^vertex 3 out of range for n=3$"):
            g.are_adjacent(0, 3)
        with pytest.raises(IndexError, match=r"^vertex -1 out of range for n=3$"):
            g.are_adjacent(-1, 0)
        with pytest.raises(IndexError, match=r"^vertex -1 out of range for n=3$"):
            g.are_adjacent(-1, 7)  # the first endpoint is checked first
        with pytest.raises(IndexError, match=r"^vertex 5 out of range for n=3$"):
            g.degree(5)

    def test_vertices_follow_the_integer_rule(self):
        g = path_graph(3)
        assert g.degree(1.0) == 2 and g.degree(True) == 2
        assert g.are_adjacent(0, 1.0) and not g.are_adjacent(2.0, 0)
        for bad in (0.5, "1", None):
            with pytest.raises(ValueError, match=rf"^vertex = {bad!r} is not an integer$"):
                g.are_adjacent(0, bad)
            with pytest.raises(ValueError, match=rf"^vertex = {bad!r} is not an integer$"):
                g.degree(bad)
        with pytest.raises(ValueError, match=r"^vertex = 0\.5 is not an integer$"):
            g.are_adjacent(0.5, 7)  # the first endpoint is checked first
        with pytest.raises(IndexError, match=r"^vertex 3 out of range for n=3$"):
            g.degree(3.0)

    def test_is_complete(self):
        for n in (2, 3, 5):
            assert min_nonadjacent_degree_sum(complete_graph(n)) is None
            minus_edge = LabelledGraph.from_edges(n, complete_graph(n).edges[1:])
            assert min_nonadjacent_degree_sum(minus_edge) is not None

    def test_construction_rejects_bad_edges(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            LabelledGraph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            LabelledGraph.from_edges(3, [(1, 1)])

    def test_construction_rejects_negative_count(self):
        with pytest.raises(ValueError) as exc:
            LabelledGraph.from_edges(-1, [])
        assert str(exc.value) == "vertex count must be non-negative"

    def test_bool_endpoints_are_stored_as_ints(self):
        g = LabelledGraph.from_edges(2, [(True, 0)])
        assert g == LabelledGraph(((1,), (0,)))
        assert all(type(x) is int for row in g.adjacency for x in row)
        assert parse_graph(serialize_graph(g)) == g
        t = LabelledTree.from_edges(3, [(0, True), (True, 2)])
        assert t.to_json_dict()["edges"] == ((0, 1), (1, 2))
        assert all(type(x) is int for row in t.adjacency for x in row)

    def test_integral_values_read_as_ints(self):
        g = LabelledGraph.from_edges(3.0, [(2.0, 0), (1, 2)])
        assert g == LabelledGraph.from_edges(3, [(0, 2), (1, 2)])
        assert type(g.n) is int

    @pytest.mark.parametrize("bad", [1.5, "1", None])
    def test_non_integer_endpoints_are_refused(self, bad):
        with pytest.raises(ValueError, match=rf"^edge \(0, {bad!r}\) has an endpoint that is not"):
            LabelledGraph.from_edges(3, [(0, bad)])
        with pytest.raises(ValueError, match=rf"^edge \({bad!r}, 0\) has an endpoint that is not"):
            LabelledTree.from_edges(3, [(bad, 0)])

    @pytest.mark.parametrize("bad", [2.5, "2", None])
    def test_non_integer_count_is_refused(self, bad):
        for cls in (LabelledGraph, LabelledTree):
            with pytest.raises(ValueError, match=rf"^vertex count {bad!r} is not an integer$"):
                cls.from_edges(bad, [])


@given(st.sets(st.integers(-20, 20)).map(sorted).map(tuple),
       st.one_of(st.integers(-25, 25), st.integers()))
@example((), 0)
@example((0,), -1)
@example((1, 3), 4)
def test_row_has_is_membership(row, v):
    assert _row_has(row, v) == (v in row)


class TestRowsThatDoNotAscend:
    """The outcomes README documents for rows that mirror but do not ascend."""

    def test_descending_row_refuses_a_witness(self):
        g = LabelledGraph(((1, 2, 3), (0, 2, 3), (1, 0), (0, 1)))
        with pytest.raises(ValueError, match=r"^an exchange is available; nothing to witness$"):
            find_spanning_tree(g, validate_degree_sequence((1, 2, 2, 1)))

    def test_reversed_row_reports_an_edge_as_the_worst_pair(self):
        rows = ((4, 3, 2, 1), (0, 2, 3, 5), (0, 1, 3, 5), (0, 1, 2, 4, 5), (0, 3, 5), (1, 2, 3, 4))
        assert check_condition(LabelledGraph(rows), 3).worst_pair == (0, 4, 7)
        sorted_rows = LabelledGraph(tuple(tuple(sorted(row)) for row in rows))
        assert check_condition(sorted_rows, 3).worst_pair[:2] == (1, 4)


def brute_min_pair(g):
    """Reference scan of every pair: the lexicographically first minimizer, with its sum."""
    best = None
    for u, v in itertools.combinations(range(g.n), 2):
        if g.are_adjacent(u, v):
            continue
        s = g.degree(u) + g.degree(v)
        if best is None or s < best[1]:
            best = ((u, v), s)
    return best


class TestMinNonadjacentSum:
    def test_complete_graph_has_none(self):
        assert min_nonadjacent_degree_sum(complete_graph(4)) is None

    def test_path_on_three(self):
        assert min_nonadjacent_degree_sum(path_graph(3)) == ((0, 2), 2)

    def test_lexicographic_tie_break(self):
        # C4: both non-adjacent pairs sum to 4; (0, 2) < (1, 3).
        g = LabelledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert min_nonadjacent_degree_sum(g) == ((0, 2), 4)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_orders(self, n):
        assert min_nonadjacent_degree_sum(LabelledGraph.from_edges(n, [])) == (
            ((0, 1), 0) if n == 2 else None
        )
        assert min_nonadjacent_degree_sum(complete_graph(n)) is None

    def test_star(self):
        # Leaves are pairwise non-adjacent; the centre is adjacent to all.
        g = LabelledGraph.from_edges(6, [(3, v) for v in range(6) if v != 3])
        assert min_nonadjacent_degree_sum(g) == ((0, 1), 2)

    def test_complement_of_perfect_matching(self):
        # Every vertex has degree n - 2; the only non-adjacent pairs are the matching.
        n = 8
        matching = {(0, 5), (1, 7), (2, 4), (3, 6)}
        g = LabelledGraph.from_edges(
            n, (p for p in itertools.combinations(range(n), 2) if p not in matching)
        )
        assert min_nonadjacent_degree_sum(g) == ((0, 5), 2 * (n - 2))

    def test_isolated_vertex(self):
        g = LabelledGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert min_nonadjacent_degree_sum(g) == ((3, 4), 1)

    def test_tie_across_degree_buckets(self):
        # The minimum 8 is 4 + 4 at (0, 3) and 5 + 3 at (1, 2); the
        # lowest-degree vertex 2 does not lie on the first pair.
        edges = [
            (0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6),
            (2, 3), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
        ]
        g = LabelledGraph.from_edges(7, edges)
        assert g.degree_vector() == (4, 5, 3, 4, 5, 5, 4)
        assert min_nonadjacent_degree_sum(g) == ((0, 3), 8)

    @pytest.mark.parametrize("n", range(6))
    def test_every_labelled_graph_up_to_five(self, n):
        for g in all_labelled_graphs(n):
            assert min_nonadjacent_degree_sum(g) == brute_min_pair(g)

    @given(graphs(min_n=0, max_n=12))
    def test_is_minimum_over_all_nonadjacent_pairs(self, g):
        assert min_nonadjacent_degree_sum(g) == brute_min_pair(g)

    def test_seeded_random_graphs_agree_with_reference(self):
        import random

        rng = random.Random(5)
        for _ in range(3000):
            n, p = rng.randint(3, 12), rng.random()
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = LabelledGraph.from_edges(n, pairs)
            assert min_nonadjacent_degree_sum(g) == brute_min_pair(g)

    def test_cross_check_at_n100(self):
        import random

        rng = random.Random(17)
        n = 100
        for p in (0.1, 0.4, 0.9):
            g = LabelledGraph.from_edges(
                n,
                (
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < p
                ),
            )
            assert min_nonadjacent_degree_sum(g) == brute_min_pair(g)

    @pytest.mark.parametrize("host", [
        complete_graph,
        lambda n: complement_of(n, [(i, n - 1 - i) for i in range(n // 2)]),
        lambda n: complement_of(n, [(i, i + 1) for i in range(n - 1)]),
        lambda n: random_condition_graph(n, 3, 1),
        lambda n: random_condition_graph(n, 6, 2),
    ], ids=["complete", "matching-complement", "path-complement", "condition-r3", "condition-r6"])
    def test_at_most_two_row_tests_per_vertex(self, host, monkeypatch):
        # each stop rule bounds the pass: without the degree n - 1 stop K_n costs n^2 row
        # tests, and without the tie stop the matching complement does
        n = 300
        g = host(n)
        expected, tests = brute_min_pair(g), []

        def counting_row_has(row, v):
            tests.append(v)
            return _row_has(row, v)

        monkeypatch.setattr(degspan.graph, "_row_has", counting_row_has)
        assert min_nonadjacent_degree_sum(g) == expected
        assert len(tests) <= 2 * n


def complement_of(n, missing):
    """The complete graph on n vertices without the given pairs."""
    missing = {normalized_edge(u, v) for u, v in missing}
    return LabelledGraph.from_edges(
        n, (p for p in itertools.combinations(range(n), 2) if p not in missing)
    )


class TestRandomConditionGraph:
    def test_deterministic_in_seed(self):
        a = random_condition_graph(12, 3, seed=7)
        b = random_condition_graph(12, 3, seed=7)
        assert a == b

    def test_seed_follows_the_integer_rule(self):
        # Random(None) seeds from system entropy, so the graph would differ on each call
        for seed in (None, 1.5, "7"):
            message = rf"^seed = {re.escape(repr(seed))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                random_condition_graph(12, 3, seed)
        assert random_condition_graph(12, 3, 7.0) == random_condition_graph(12, 3, seed=7)

    def test_negative_seed_is_refused(self):
        # Random(-7) seeds as Random(7), so a negative seed would only repeat a graph
        with pytest.raises(ValueError, match=r"^need seed >= 0, got -7$"):
            random_condition_graph(12, 3, -7)
        assert random_condition_graph(12, 3, 0).n == 12

    def test_different_seeds_usually_differ(self):
        outputs = {random_condition_graph(15, 3, seed=s).edges for s in range(6)}
        assert len(outputs) > 1

    def test_small_order_forces_complete(self):
        # At n = 4 the r = 3 bound (11/2) exceeds any non-adjacent sum.
        g = random_condition_graph(4, 3, seed=1)
        assert g.edges == complete_graph(4).edges

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisfies_condition(self, r, seed):
        n = 14
        g = random_condition_graph(n, r, seed=seed)
        assert check_condition(g, r).satisfied

    def test_n10_r3_pairs_sum_at_least_15(self):
        g = random_condition_graph(10, 3, seed=3)
        for u, v in itertools.combinations(range(10), 2):
            if not g.are_adjacent(u, v):
                assert g.degree(u) + g.degree(v) >= 15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            random_condition_graph(3, 3, seed=0)
        with pytest.raises(ValueError, match=r"^need r >= 2, got 1$"):
            random_condition_graph(10, 1, seed=0)

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in (4, 5, 9, 16, 33, 60) for r in (2, 3, 4, 6) if n >= r + 1]
    )
    def test_same_graphs_as_the_set_based_generator(self, n, r):
        for seed in range(5):
            assert random_condition_graph(n, r, seed) == set_based_condition_graph(n, r, seed)

    def test_memory_stays_near_one_byte_per_vertex_pair(self):
        n = 600
        tracemalloc.start()
        try:
            g = random_condition_graph(n, 3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak <= 16 * n * n


def set_based_condition_graph(n, r, seed):
    """``random_condition_graph`` as it was written with one set per vertex."""
    bound = degree_sum_threshold(n, r)
    rng = random.Random(seed)
    p = rng.uniform(0.2, 0.8)
    adjacency = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adjacency[u] and len(adjacency[u]) + len(adjacency[v]) < bound:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return LabelledGraph.from_edges(n, ((u, v) for u in range(n) for v in adjacency[u] if u < v))


class TestGeneratorLimit:
    def test_orders_up_to_the_limit_are_accepted(self):
        assert extremal_order((MAX_GENERATED_N - 2) // 4, 3) <= MAX_GENERATED_N
        assert extremal_order((MAX_GENERATED_N - 2) // 6, 4) == MAX_GENERATED_N

    @pytest.mark.parametrize("generate", [
        lambda: random_condition_graph(MAX_GENERATED_N + 1, 3, seed=0),
        lambda: build_extremal((MAX_GENERATED_N - 2) // 4 + 1, 3),  # order limit + 2
        lambda: extremal_order((MAX_GENERATED_N - 2) // 6 + 1, 4),  # order limit + 6
        lambda: run_batch(MAX_GENERATED_N + 1, MAX_GENERATED_N + 1, 3, 1),
        lambda: run_batch(8, MAX_GENERATED_N + 1, 3, 0),
    ])
    def test_one_over_the_limit_is_rejected_before_allocating(self, generate):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"generator limit {MAX_GENERATED_N}"):
                generate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
