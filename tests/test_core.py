import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancedn.core import (CRC_CHUNK, ContentName, DataPacket, InterestPacket,
                            NameFormatError, assign_resolver, crc16,
                            crc16_many, parse_name, parse_names)
from crc_reference import crc16_arc_bitwise

SEGMENT_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="/", min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12)


class TestCrc16:
    def test_empty_input_is_zero(self):
        assert crc16(b"") == 0x0000

    def test_published_check_value(self):
        # the standard check string for this CRC variant
        assert crc16(b"123456789") == 0xBB3D
        assert crc16_arc_bitwise(b"123456789") == 0xBB3D

    def test_name_bytes_match_bitwise_oracle(self):
        payload = b"/video/a.mp4"
        assert crc16(payload) == crc16_arc_bitwise(payload)

    def test_all_one_byte_inputs_match_oracle(self):
        for b in range(256):
            data = bytes([b])
            assert crc16(data) == crc16_arc_bitwise(data)

    def test_two_byte_sample_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(2000):
            data = bytes([rng.randrange(256), rng.randrange(256)])
            assert crc16(data) == crc16_arc_bitwise(data)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_random_inputs_match_oracle(self, data):
        assert crc16(data) == crc16_arc_bitwise(data)

    def test_pure_function(self):
        assert crc16(b"/a/b") == crc16(b"/a/b")


class TestCrc16Many:
    def test_empty_batch(self):
        assert crc16_many([]) == []

    def test_batch_with_empty_item(self):
        batch = [b"/a", b"", b"123456789", b""]
        assert crc16_many(batch) == [crc16_arc_bitwise(x) for x in batch]
        assert crc16_many([b""]) == [0]

    def test_published_check_value(self):
        assert crc16_many([b"123456789"]) == [0xBB3D]

    def test_all_one_and_two_byte_inputs_in_one_batch(self):
        batch = [bytes([b]) for b in range(256)]
        batch += [bytes([a, b]) for a in range(256) for b in range(256)]
        assert crc16_many(batch) == [crc16_arc_bitwise(x) for x in batch]

    def test_leading_nul_bytes_and_utf8(self):
        # leading zero bytes leave a zero-init CRC at 0, so these share a
        # checksum with their unpadded tails while sitting in other groups
        batch = [b"\x00", b"\x00\x00/a", b"/a", b"\x00" * 7 + b"/cat3/obj42",
                 "/vidéo/ü.mp4".encode(), "/名前/データ".encode(), "/😀".encode()]
        expected = [crc16_arc_bitwise(x) for x in batch]
        assert crc16_many(batch) == expected
        assert expected[1] == expected[2]

    def test_random_mixed_lengths_in_one_batch(self):
        rng = random.Random(11)
        batch = [rng.randbytes(rng.randrange(0, 301)) for _ in range(600)]
        assert len({len(x) for x in batch}) > 200
        assert crc16_many(batch) == [crc16_arc_bitwise(x) for x in batch]

    def test_one_long_item_among_short_ones(self):
        # the long item pads every short one to 1,500 bytes
        rng = random.Random(12)
        batch = [rng.randbytes(rng.randrange(0, 23)) for _ in range(200)]
        batch.insert(77, rng.randbytes(1500))
        assert crc16_many(batch) == [crc16_arc_bitwise(x) for x in batch]

    def test_narrow_batch_before_and_after_a_wide_one(self):
        # the wide item is longer than any other test's, so it grows the
        # per-distance tables; the narrow batch must hash alike before and after
        narrow = [b"/a", b"", b"123456789", "/vidéo/ü.mp4".encode()]
        wide = narrow + [bytes(range(256)) * 10]
        for batch in (narrow, wide, narrow):
            assert crc16_many(batch) == [crc16_arc_bitwise(x) for x in batch]

    @given(st.lists(st.binary(min_size=0, max_size=40), max_size=50))
    @settings(max_examples=200)
    def test_matches_per_item_crc16(self, batch):
        assert crc16_many(batch) == [crc16(x) for x in batch]


class TestParseName:
    def test_two_segments(self):
        assert parse_name("/a/b").segments == ("a", "b")

    def test_round_trip_is_identity(self):
        assert parse_name("/a/b").canonical_text == "/a/b"

    def test_empty_leading_segment_rejected(self):
        with pytest.raises(NameFormatError, match="position 1"):
            parse_name("//a")

    def test_empty_interior_segment_rejected(self):
        with pytest.raises(NameFormatError, match="position 2"):
            parse_name("/a//b")

    @pytest.mark.parametrize("bad", ["", "/", "a/b", "/a/"])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(NameFormatError):
            parse_name(bad)

    def test_equality_follows_segments(self):
        assert parse_name("/a/b") == ContentName(("a", "b"))
        assert parse_name("/a/b") != parse_name("/a/c")

    def test_segment_with_slash_rejected(self):
        with pytest.raises(NameFormatError):
            ContentName(("a/b",))

    def test_at_least_one_segment(self):
        with pytest.raises(NameFormatError):
            ContentName(())

    @given(st.lists(SEGMENT_TEXT, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_round_trip_property(self, segments):
        name = ContentName(tuple(segments))
        assert parse_name(name.canonical_text) == name


def mixed_name_texts(count):
    """``count`` valid name texts of many lengths, UTF-8 and one-segment ones included."""
    rng = random.Random(5)
    texts = [f"/cat{i % 16}/obj{i}" + "/x" * rng.randrange(4) + "-" * rng.randrange(9)
             for i in range(count)]
    # place the special names on both sides of each chunk boundary
    for i, text in zip((0, CRC_CHUNK - 1, CRC_CHUNK, 2 * CRC_CHUNK - 1, 2 * CRC_CHUNK),
                       ("/vidéo/ü.mp4", "/名前/データ", "/a", "/名前/データ", "/vidéo/ü.mp4")):
        if i < count:
            texts[i] = text
    return texts


class TestNameCrc:
    def test_batch_names_equal_single_names_across_chunks(self):
        texts = mixed_name_texts(2 * CRC_CHUNK + 100)
        assert len({len(t) for t in texts}) > 10
        names = list(parse_names(texts))
        assert names == [parse_name(t) for t in texts]
        expected = [crc16_arc_bitwise(t.encode("utf-8")) for t in texts]
        # filled by the batch hash, before any read of the property
        assert [name._crc for name in names] == expected
        assert [name.crc for name in names] == expected

    def test_malformed_text_raises_when_reached(self):
        texts = mixed_name_texts(CRC_CHUNK + 10)
        texts[CRC_CHUNK + 5] = "/a//b"
        names = parse_names(texts)
        head = [next(names) for _ in range(CRC_CHUNK + 5)]
        assert head == [parse_name(t) for t in texts[:CRC_CHUNK + 5]]
        with pytest.raises(NameFormatError, match="position 2"):
            next(names)

    def test_empty_input_yields_nothing(self):
        assert list(parse_names([])) == []

    @pytest.mark.parametrize("text", ["/a", "/video/a.mp4", "/vidéo/ü.mp4", "/名前/データ"])
    def test_single_name_hashes_its_utf8_bytes(self, text):
        expected = crc16(text.encode("utf-8"))
        assert parse_name(text).crc == expected
        assert ContentName(tuple(text[1:].split("/"))).crc == expected

    def test_crc_takes_no_part_in_equality_hash_or_repr(self):
        hashed = parse_name("/video/a.mp4")
        assert hashed.crc == crc16(b"/video/a.mp4")
        batch = next(parse_names(["/video/a.mp4"]))
        fresh = parse_name("/video/a.mp4")
        assert fresh._crc == -1 and hashed._crc == batch._crc >= 0
        assert hashed == fresh == batch
        assert hash(hashed) == hash(fresh) == hash(batch)
        assert repr(hashed) == repr(fresh) == repr(batch) == \
            "ContentName(segments=('video', 'a.mp4'))"


class TestAssignResolver:
    def test_mod_one_is_always_zero(self):
        for text in ("/a", "/video/a.mp4", "/cat9/obj1234"):
            assert assign_resolver(parse_name(text), 1) == 0

    def test_zero_resolvers_rejected(self):
        with pytest.raises(ValueError):
            assign_resolver(parse_name("/a"), 0)

    def test_check_value_arithmetic(self):
        # 0xBB3D = 47933 and 47933 mod 8 = 5; a one-segment name hashes
        # its canonical form, which carries the leading slash
        assert 0xBB3D == 47933 and 47933 % 8 == 5
        name = parse_name("/123456789")
        assert assign_resolver(name, 8) == crc16_arc_bitwise(b"/123456789") % 8

    def test_hash_covers_canonical_text(self):
        name = parse_name("/video/a.mp4")
        assert assign_resolver(name, 8) == crc16(b"/video/a.mp4") % 8

    @given(st.lists(SEGMENT_TEXT, min_size=1, max_size=4),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_index_in_range_and_stable(self, segments, count):
        name = ContentName(tuple(segments))
        index = assign_resolver(name, count)
        assert 0 <= index < count
        assert assign_resolver(name, count) == index

    def test_chi_square_over_random_names(self):
        # 1e6 uniformly random 8-32 byte names over 8 buckets
        rng = random.Random(42)
        counts = [0] * 8
        for _ in range(1_000_000):
            length = rng.randrange(8, 33)
            counts[crc16(rng.randbytes(length)) % 8] += 1
        expected = sum(counts) / 8
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 24.32  # 99.9% critical value, 7 degrees of freedom


class TestPackets:
    def test_interest_trace_invariant(self):
        interest = InterestPacket(parse_name("/a"), nonce=1, trace=(5,))
        hopped = interest.delivered_to(7)
        assert hopped.trace == (5, 7)  # one hop: len(trace) - 1
        assert hopped.nonce == interest.nonce
        assert interest.trace == (5,)  # the original is not changed

    def test_untraced_packets_stay_untraced(self):
        interest = InterestPacket(parse_name("/a"), nonce=1)
        data = DataPacket(parse_name("/a"))
        for node_id in (3, 4, 5):
            interest = interest.delivered_to(node_id)
            data = data.delivered_to(node_id)
        assert interest.trace == () and data.trace == ()
        traced = DataPacket(parse_name("/a"), trace=(5,))
        assert traced.delivered_to(4).delivered_to(3).trace == (5, 4, 3)
