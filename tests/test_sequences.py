import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from degspan import (
    LabelledTree,
    SequenceError,
    canonical_word,
    parse_sequence_literal,
    random_degree_sequence,
    realize_tree,
    validate_degree_sequence,
)
from degspan.graph import MAX_N
from degspan.sequences import prufer_edges
from degspan.tree import tree_defect
from support import (
    decode,
    degree_sequences,
    prufer_encode,
    prufer_words,
    reference_prufer_edges,
    word_degrees,
)


class TestValidate:
    def test_path_degrees(self):
        seq = validate_degree_sequence([2, 2, 1, 1])
        assert seq.degrees == (2, 2, 1, 1)

    def test_wrong_sum(self):
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([3, 3, 1, 1])
        assert exc.value.code == "sum"

    def test_nonpositive_entry(self):
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([2, 0, 1, 1])
        assert exc.value.code == "entry"
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([3, -1, 2, 2])
        assert exc.value.code == "entry"
        for bad in ([2.7, 1, 1], [1.9, 1.1], [2, 1, 0.5, 0.5]):
            with pytest.raises(SequenceError) as exc:
                validate_degree_sequence(bad)
            assert exc.value.code == "entry"

    def test_tuple_of_ints_is_kept_and_other_numbers_converted(self):
        degrees = (2, 1, 1)
        assert validate_degree_sequence(degrees).degrees is degrees
        seq = validate_degree_sequence([2.0, 1, 1])
        assert seq.degrees == (2, 1, 1)
        assert all(type(d) is int for d in seq.degrees)
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([2.7, 1, 1])
        assert str(exc.value) == "entry 2.7 at position 0 is not an integer"
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([0])
        assert exc.value.code == "length"

    @pytest.mark.parametrize("bad, message", [
        (["x", 1, 1], "entry 'x' at position 0 is not an integer"),
        ([None, 1, 1], "entry None at position 0 is not an integer"),
        ([2, 1, float("inf")], "entry inf at position 2 is not an integer"),
    ])
    def test_unconvertible_entry_is_an_entry_error(self, bad, message):
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence(bad)
        assert exc.value.code == "entry"
        assert str(exc.value) == message

    def test_too_short(self):
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([1])
        assert exc.value.code == "length"
        with pytest.raises(SequenceError) as exc:
            validate_degree_sequence([])
        assert exc.value.code == "length"

    def test_error_codes_are_distinct(self):
        codes = set()
        for bad in ([1], [0, 2], [3, 3, 1, 1]):
            try:
                validate_degree_sequence(bad)
            except SequenceError as exc:
                codes.add(exc.code)
        assert len(codes) == 3

    def test_max_entry_is_bounded_by_validity(self):
        # positivity + the sum rule already force every entry <= n - 1
        with pytest.raises(SequenceError):
            validate_degree_sequence([4, 1, 1])  # sum wrong, can't slip through


class TestLiteral:
    def test_parse(self):
        assert parse_sequence_literal("3,1,1,1").degrees == (3, 1, 1, 1)

    def test_parse_with_spaces(self):
        assert parse_sequence_literal(" 2, 2 ,1,1 ").degrees == (2, 2, 1, 1)
        assert parse_sequence_literal("2,1,1\n").degrees == (2, 1, 1)

    def test_parse_garbage(self):
        with pytest.raises(SequenceError):
            parse_sequence_literal("2,x,1,1")
        with pytest.raises(SequenceError) as exc:
            parse_sequence_literal("")
        assert exc.value.code == "length"
        for text in ("2,,1,1", "2,1,1,", ",2,1,1", "2, ,1,1"):
            with pytest.raises(SequenceError) as exc:
                parse_sequence_literal(text)
            assert exc.value.code == "entry"

    @pytest.mark.parametrize("token", ["1_1", "+3", "-1", "\uff12", "\u00b2", "0x2", "2.0"])
    def test_entries_are_ascii_digits_only(self, token):
        with pytest.raises(SequenceError) as exc:
            parse_sequence_literal(f"{token},1,1,1,1,1,1,1,1,1,1,1")
        assert exc.value.code == "entry"
        with pytest.raises(SequenceError) as exc:
            parse_sequence_literal(f"2, {token} ,1,1\n")
        assert exc.value.code == "entry"


    def test_leading_zeros_are_read_as_decimal(self):
        assert parse_sequence_literal("0003,1,1,1").degrees == (3, 1, 1, 1)

    @pytest.mark.parametrize("text, position", [
        ("9" * 5000 + ",1,1", 0),  # int() refuses more than 4300 digits by default
        (f"1,{MAX_N + 1},1", 1),
        ("1,1," + "9" * 4000, 2),
    ], ids=["5000-digits", "max-n-plus-1", "4000-digits"])
    def test_entry_over_the_limit_names_its_position(self, text, position):
        with pytest.raises(SequenceError) as exc:
            parse_sequence_literal(text)
        assert exc.value.code == "entry"
        assert str(exc.value) == f"entry at position {position} exceeds the limit {MAX_N}"

    def test_too_many_entries_are_rejected_before_splitting(self):
        text = ",".join(["1"] * (MAX_N + 1))
        tracemalloc.start()
        try:
            with pytest.raises(SequenceError) as exc:
                parse_sequence_literal(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "length"
        assert str(exc.value) == f"{MAX_N + 1} entries exceed the limit {MAX_N}"
        assert peak < 2 * len(text)

    def test_literal_of_max_n_entries_peaks_below_ten_times_its_text(self):
        text = ",".join(["2"] * (MAX_N - 2) + ["1", "1"])
        tracemalloc.start()
        try:
            seq = parse_sequence_literal(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.degrees == (2,) * (MAX_N - 2) + (1, 1)
        assert peak <= 10 * len(text)

    def test_first_bad_field_by_position_is_reported(self):
        with pytest.raises(SequenceError) as exc:
            parse_sequence_literal("9999999,x,1")
        assert exc.value.code == "entry"
        assert str(exc.value) == f"entry at position 0 exceeds the limit {MAX_N}"


class TestDecode:
    def test_empty_word(self):
        t = decode([], 2)
        assert t.edges == ((0, 1),)

    def test_star_word(self):
        t = decode([0, 0], 4)
        assert t.edges == ((0, 1), (0, 2), (0, 3))

    def test_broom_word_by_hand(self):
        # [3, 3, 3, 4] on six vertices: smallest-leaf joins give a broom.
        t = decode([3, 3, 3, 4], 6)
        assert t.degree_vector() == (1, 1, 1, 4, 2, 1)
        assert t.edges == ((0, 3), (1, 3), (2, 3), (3, 4), (4, 5))

    def test_degree_is_one_plus_multiplicity(self):
        word = [2, 2, 5, 0]
        t = decode(word, 6)
        for v in range(6):
            assert t.degree_vector()[v] == 1 + word.count(v)


class TestDecoderReference:
    """``prufer_edges`` against the heap decoder in ``support``."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_word(self, n):
        for word in itertools.product(range(n), repeat=n - 2):
            got = list(prufer_edges(word, word_degrees(word, n)))
            assert got == reference_prufer_edges(word, n), word

    @settings(deadline=None)
    @given(prufer_words(max_n=300))
    def test_drawn_words(self, case):
        n, word = case
        assert list(prufer_edges(word, word_degrees(word, n))) == reference_prufer_edges(word, n)


class TestEncode:
    def test_single_edge(self):
        assert prufer_encode(LabelledTree.from_edges(2, [(0, 1)])) == ()

    def test_star(self):
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert prufer_encode(star) == (0, 0)

    def test_decode_then_encode(self):
        word = (2, 1, 2)
        assert prufer_encode(decode(word, 5)) == word

    def test_rejects_cycle(self):
        bad = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            prufer_encode(bad)

    def test_rejects_disconnected(self):
        bad = LabelledTree.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            prufer_encode(bad)


class TestRealize:
    def test_star_is_forced(self):
        seq = validate_degree_sequence([3, 1, 1, 1])
        assert realize_tree(seq).edges == ((0, 1), (0, 2), (0, 3))

    def test_path_internal_vertices(self):
        seq = validate_degree_sequence([2, 2, 1, 1])
        t = realize_tree(seq)
        assert t.degree_vector() == (2, 2, 1, 1)
        assert t.edges == ((0, 1), (0, 2), (1, 3))

    def test_two_vertices(self):
        assert realize_tree(validate_degree_sequence([1, 1])).edges == ((0, 1),)

    def test_larger_sequence_degrees_recount(self):
        seq = validate_degree_sequence([3, 3, 2, 1, 1, 1, 1, 2])
        t = realize_tree(seq)
        assert tree_defect(t) is None
        assert t.degree_vector() == seq.degrees

    def test_canonical_word_shape(self):
        seq = validate_degree_sequence([3, 2, 1, 1, 1])
        assert canonical_word(seq) == (0, 0, 1)

    def test_deterministic(self):
        seq = validate_degree_sequence([2, 3, 1, 1, 2, 1])
        assert realize_tree(seq) == realize_tree(seq)


@given(prufer_words(max_n=40))
def test_roundtrip_encode_decode(case):
    n, word = case
    assert prufer_encode(decode(word, n)) == word


@given(prufer_words(max_n=40))
def test_roundtrip_decode_encode(case):
    # opposite direction: trees survive a trip through their code
    n, word = case
    t = decode(word, n)
    assert decode(prufer_encode(t), n) == t


@given(degree_sequences(max_n=12))
def test_realize_matches_sequence(seq):
    t = realize_tree(seq)
    assert tree_defect(t) is None
    assert t.degree_vector() == seq.degrees


def test_exhaustive_roundtrip_small():
    for n in range(2, 6):
        for word in itertools.product(range(n), repeat=n - 2):
            assert prufer_encode(decode(word, n)) == word


class TestRandomSequence:
    def test_valid_and_capped(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 30)
            r = rng.randint(2, 6)
            seq = random_degree_sequence(n, r, rng)
            assert sum(seq.degrees) == 2 * (n - 1)
            assert max(seq.degrees) <= min(r, n - 1)
            assert min(seq.degrees) >= 1

    def test_deterministic_given_seeded_rng(self):
        a = random_degree_sequence(15, 3, random.Random(5))
        b = random_degree_sequence(15, 3, random.Random(5))
        assert a == b

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError) as exc:
            random_degree_sequence(1, 3, random.Random(0))
        assert str(exc.value) == "need n >= 2"

    def test_rejects_impossible_cap(self):
        with pytest.raises(ValueError):
            random_degree_sequence(5, 1, random.Random(0))

    def test_integral_values_read_as_ints(self):
        seq = random_degree_sequence(5.0, 3.0, random.Random(4))
        assert seq == random_degree_sequence(5, 3, random.Random(4))
        assert all(type(d) is int for d in seq.degrees)

    def test_non_integer_n_or_r_is_refused(self):
        with pytest.raises(ValueError, match=r"^n = 5\.5 is not an integer$"):
            random_degree_sequence(5.5, 3, random.Random(0))
        with pytest.raises(ValueError, match=r"^n = '5' is not an integer$"):
            random_degree_sequence("5", 3, random.Random(0))
        # a float cap never equals a degree, so it would go unenforced
        with pytest.raises(ValueError, match=r"^r = 2\.5 is not an integer$"):
            random_degree_sequence(12, 2.5, random.Random(1))
