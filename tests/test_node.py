import pytest

from balancedn.core import DataPacket, InterestPacket, parse_name
from balancedn.node import (FLOOD, LOCAL_FACE, NO_NAMES, PIT_LIFETIME_NS,
                            RETX_SUPPRESS_NS, NdnNode, UnknownFaceError,
                            reclaim_expired)

NAME = parse_name("/video/a.mp4")


def flooding_node(node_id=1, neighbors=(2, 3, 4)):
    return NdnNode(node_id, neighbors)


class TestOnInterest:
    def test_published_content_answers_like_a_cache_hit(self):
        node = flooding_node()
        node.publish(NAME)
        # the Data returned goes back on the Interest's in-face
        packet = node.on_interest(InterestPacket(NAME, nonce=1), in_face=3, now=5)
        assert isinstance(packet, DataPacket)
        assert packet.name == NAME
        assert not node.pit  # no PIT change on an answer

    def test_only_a_node_that_publishes_has_a_set_of_its_own(self):
        producer, other = flooding_node(1), flooding_node(2, (1, 3))
        assert producer.published is other.published is NO_NAMES
        producer.publish(NAME)
        producer.publish(parse_name("/video/b.mp4"))
        assert producer.published == {"/video/a.mp4", "/video/b.mp4"}
        assert other.published is NO_NAMES and not NO_NAMES
        assert other.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0) is FLOOD

    def test_aggregation_grows_in_faces_without_forwarding(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        out = node.on_interest(InterestPacket(NAME, nonce=2), in_face=2, now=1)
        assert out is None
        entry = node.pit[NAME.canonical_text]
        assert entry.in_faces == 1 << 1 | 1 << 2
        assert (entry.nonce, entry.more_nonces) == (1, {2})

    def test_duplicate_nonce_suppressed(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=9), in_face=1, now=0)
        out = node.on_interest(InterestPacket(NAME, nonce=9), in_face=3, now=1)
        assert out is None
        assert node.duplicates_suppressed == 1
        # the suppressed face is not added
        entry = node.pit[NAME.canonical_text]
        assert entry.in_faces == 1 << 1 and entry.more_nonces is None

    @pytest.mark.parametrize("neighbors, in_face, faces", [
        pytest.param((7, 8, 9), 1, [2, 3], id="other-faces"),
        pytest.param((5, 6, 7, 8), 2, [1, 3, 4], id="excludes-incoming-and-local"),
        pytest.param((5,), 1, [], id="single-face-dead-end"),
        pytest.param((5, 6, 7), LOCAL_FACE, [1, 2, 3], id="from-local-face-uses-all"),
    ])
    def test_flooding_forwards_to_all_other_faces(self, neighbors, in_face, faces):
        # FLOOD sends the Interest on ``faces``, every face but in_face; the
        # engine's flood plans hold them (TestFloodPlans)
        node = flooding_node(neighbors=neighbors)  # faces 1..len(neighbors)
        out = node.on_interest(InterestPacket(NAME, nonce=1), in_face=in_face, now=0)
        assert out is (FLOOD if faces else None)
        assert (NAME.canonical_text in node.pit) == bool(faces)

    def test_unknown_face_rejected(self):
        node = flooding_node()
        node.publish(NAME)
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        other = parse_name("/other")
        node.on_interest(InterestPacket(other, nonce=2), in_face=1, now=0)

        def state():
            return ({key: (e, e.in_faces, e.nonce, set(e.more_nonces or ()), e.expiry)
                     for key, e in node.pit.items()},
                    dict(node.dead_nonces), list(node.pit_reclaim),
                    node.duplicates_suppressed)

        before = state()
        for name, nonce in ((NAME, 1), (NAME, 3), (other, 2), (other, 4)):
            with pytest.raises(UnknownFaceError):
                node.on_interest(InterestPacket(name, nonce), in_face=99, now=1)
        assert state() == before

    @pytest.mark.parametrize("in_face", [-1, 4])
    def test_faces_just_outside_the_table_rejected(self, in_face):
        # faces 0..3 for three neighbours; both handlers check the range
        node = flooding_node(neighbors=(2, 3, 4))
        with pytest.raises(UnknownFaceError):
            node.on_interest(InterestPacket(NAME, nonce=1), in_face=in_face, now=0)
        with pytest.raises(UnknownFaceError):
            node.on_data(DataPacket(NAME), in_face=in_face, now=0)
        assert not node.pit and not node.pit_reclaim


class TestRetransmission:
    def test_new_nonce_past_the_interval_is_forwarded_again(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=2, now=1)
        old = node.pit[NAME.canonical_text]
        now = RETX_SUPPRESS_NS
        assert node.on_interest(InterestPacket(NAME, nonce=3), in_face=3, now=now) is FLOOD
        fresh = node.pit[NAME.canonical_text]
        assert fresh is not old
        # the old in-faces and every old nonce carry over
        assert fresh.in_faces == 1 << 1 | 1 << 2 | 1 << 3
        assert (fresh.nonce, fresh.more_nonces) == (3, {1, 2})
        assert fresh.expiry == now + PIT_LIFETIME_NS
        assert list(node.pit_reclaim) == [old, fresh]
        # a copy of an old nonce is still a duplicate
        assert node.on_interest(InterestPacket(NAME, nonce=1), in_face=2, now=now) is None
        assert node.duplicates_suppressed == 1

    def test_new_nonce_inside_the_interval_joins(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        entry = node.pit[NAME.canonical_text]
        out = node.on_interest(InterestPacket(NAME, nonce=2), in_face=2,
                               now=RETX_SUPPRESS_NS - 1)
        assert out is None and node.pit[NAME.canonical_text] is entry
        assert entry.more_nonces == {2} and list(node.pit_reclaim) == [entry]

    def test_interval_counts_from_the_last_forwarding(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=2, now=RETX_SUPPRESS_NS)
        out = node.on_interest(InterestPacket(NAME, nonce=3), in_face=3,
                               now=2 * RETX_SUPPRESS_NS - 1)
        assert out is None
        assert node.pit[NAME.canonical_text].more_nonces == {1, 3}

    def test_retransmission_at_a_dead_end_keeps_the_old_entry(self):
        # a leaf holding its own request's entry: a copy from its one
        # neighbour has nowhere to go
        node = flooding_node(neighbors=(5,))
        assert node.on_interest(InterestPacket(NAME, nonce=1), LOCAL_FACE, now=0) is FLOOD
        entry = node.pit[NAME.canonical_text]
        out = node.on_interest(InterestPacket(NAME, nonce=2), in_face=1,
                               now=RETX_SUPPRESS_NS)
        assert out is None and node.pit[NAME.canonical_text] is entry
        assert entry.in_faces == 1 << LOCAL_FACE and entry.more_nonces is None
        assert list(node.pit_reclaim) == [entry]


class TestDeadEnd:
    """A node with one neighbour and no content: every Interest from that
    neighbour has nowhere to go, so it leaves no state behind."""

    def test_transit_interest_leaves_no_entry_or_reclaim_record(self):
        node = flooding_node(neighbors=(7,))
        assert node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0) is None
        assert not node.pit and not node.pit_reclaim

    def test_repeated_nonce_leaves_no_state(self):
        # no entry is left to match the second copy, so it is not counted
        # as a duplicate either
        node = flooding_node(neighbors=(7,))
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        assert node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=1) is None
        assert node.duplicates_suppressed == 0
        assert not node.pit and not node.pit_reclaim

    def test_local_request_after_transit_copy_is_forwarded(self):
        node = flooding_node(neighbors=(7,))
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        request = InterestPacket(NAME, nonce=2)
        assert node.on_interest(request, in_face=LOCAL_FACE, now=5) is FLOOD
        entry = node.pit[NAME.canonical_text]
        assert entry.expiry == 5 + PIT_LIFETIME_NS
        assert entry.in_faces == 1 << LOCAL_FACE
        assert (entry.nonce, entry.more_nonces) == (2, None)
        assert list(node.pit_reclaim) == [entry]


class TestOnData:
    def test_single_consumer_reverse_path(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=3, now=0)
        out = node.on_data(DataPacket(NAME), in_face=1, now=1)
        assert out == [3]
        assert NAME.canonical_text not in node.pit

    def test_unsolicited_data_dropped(self):
        node = flooding_node()
        assert node.on_data(DataPacket(NAME), in_face=1, now=0) == []

    def test_aggregated_faces_both_served(self):
        # star center: interests in on faces 2 and 4, data back on another face
        node = NdnNode(0, neighbors=(10, 20, 30, 40))
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=2, now=0)
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=4, now=0)
        out = node.on_data(DataPacket(NAME), in_face=1, now=1)
        assert out == [2, 4]

    def test_arrival_face_excluded_from_copies(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=2, now=0)
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=1, now=0)
        out = node.on_data(DataPacket(NAME), in_face=1, now=1)
        assert out == [2]

    def test_fan_out_in_ascending_face_order_past_eight_faces(self):
        node = flooding_node(neighbors=range(100, 112))  # faces 1..12
        for nonce, face in enumerate((12, 3, 9, LOCAL_FACE, 10, 1, 11)):
            node.on_interest(InterestPacket(NAME, nonce=nonce), in_face=face, now=0)
        out = node.on_data(DataPacket(NAME), in_face=11, now=1)
        assert out == [LOCAL_FACE, 1, 3, 9, 10, 12]


class TestDeadNonces:
    def test_producer_answers_each_nonce_once(self):
        node = flooding_node()
        node.publish(NAME)
        answer = node.on_interest(InterestPacket(NAME, nonce=5), in_face=1, now=0)
        assert isinstance(answer, DataPacket)
        assert node.on_interest(InterestPacket(NAME, nonce=5), in_face=2, now=1) is None
        assert node.duplicates_suppressed == 1
        # another consumer's Interest has its own nonce and is answered
        answer = node.on_interest(InterestPacket(NAME, nonce=6), in_face=2, now=1)
        assert isinstance(answer, DataPacket)

    def test_consumed_entry_nonces_stop_late_copies(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=2, now=0)
        node.on_data(DataPacket(NAME), in_face=3, now=10)
        for nonce in (1, 2):
            assert node.on_interest(InterestPacket(NAME, nonce=nonce), in_face=3,
                                    now=20) is None
        assert node.duplicates_suppressed == 2 and not node.pit
        assert set(node.dead_nonces) == {(NAME.canonical_text, 1), (NAME.canonical_text, 2)}

    def test_every_aggregated_nonce_turns_dead(self):
        node = flooding_node()
        for nonce, face in ((1, 1), (2, 2), (3, 3)):
            node.on_interest(InterestPacket(NAME, nonce=nonce), in_face=face, now=0)
        entry = node.pit[NAME.canonical_text]
        assert (entry.nonce, entry.more_nonces) == (1, {2, 3})
        # a repeat of the third nonce is a duplicate, and adds nothing
        assert node.on_interest(InterestPacket(NAME, nonce=3), in_face=1, now=1) is None
        assert node.duplicates_suppressed == 1 and entry.more_nonces == {2, 3}
        node.on_data(DataPacket(NAME), in_face=2, now=10)
        assert set(node.dead_nonces) == {(NAME.canonical_text, n) for n in (1, 2, 3)}
        for nonce in (1, 2, 3):
            assert node.on_interest(InterestPacket(NAME, nonce=nonce), in_face=1,
                                    now=20) is None
        assert node.duplicates_suppressed == 4 and not node.pit

    def test_dead_nonce_lives_one_pit_lifetime(self):
        node = flooding_node()
        node.publish(NAME)
        node.on_interest(InterestPacket(NAME, nonce=5), in_face=1, now=0)
        late = InterestPacket(NAME, nonce=5)
        assert node.on_interest(late, in_face=1, now=PIT_LIFETIME_NS - 1) is None
        assert isinstance(node.on_interest(late, in_face=1, now=PIT_LIFETIME_NS), DataPacket)

    def test_reclaim_drops_expired_dead_nonces_only(self):
        node = flooding_node()
        node.publish(NAME)
        node.on_interest(InterestPacket(NAME, nonce=5), in_face=1, now=0)
        node.on_interest(InterestPacket(NAME, nonce=6), in_face=1, now=10)
        # nonce 5 answered again once its entry expired: marked dead anew
        node.on_interest(InterestPacket(NAME, nonce=5), in_face=1, now=PIT_LIFETIME_NS)
        reclaim_expired(node.pit_reclaim, PIT_LIFETIME_NS)
        assert set(node.dead_nonces) == {(NAME.canonical_text, 5), (NAME.canonical_text, 6)}
        reclaim_expired(node.pit_reclaim, PIT_LIFETIME_NS + 10)
        assert set(node.dead_nonces) == {(NAME.canonical_text, 5)}
        reclaim_expired(node.pit_reclaim, 2 * PIT_LIFETIME_NS)
        assert not node.dead_nonces and not node.pit_reclaim


class TestPitExpiry:
    def test_expiry_removes_matching_entry(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        entry = node.pit[NAME.canonical_text]
        assert node.expire_pit(NAME.canonical_text, entry.expiry - 1) is None
        removed = node.expire_pit(NAME.canonical_text, entry.expiry)
        assert removed is entry
        assert NAME.canonical_text not in node.pit

    def test_timer_of_replaced_entry_ignored(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=LOCAL_FACE, now=0)
        old = node.pit[NAME.canonical_text]
        # the entry lapses and a new Interest replaces it before the old timer fires
        node.on_interest(InterestPacket(NAME, nonce=2), in_face=1, now=old.expiry)
        new = node.pit[NAME.canonical_text]
        assert new is not old
        assert node.expire_pit(NAME.canonical_text, old.expiry) is None
        assert node.pit[NAME.canonical_text] is new

    def test_satisfaction_wins_over_expiry(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        entry = node.pit[NAME.canonical_text]
        node.on_data(DataPacket(NAME), in_face=2, now=1)
        assert node.expire_pit(NAME.canonical_text, entry.expiry) is None

    def test_entry_counts_as_absent_from_its_expiry_on(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        assert node.on_data(DataPacket(NAME), in_face=2, now=PIT_LIFETIME_NS) == []
        out = node.on_interest(InterestPacket(NAME, nonce=2), in_face=1,
                               now=PIT_LIFETIME_NS)
        assert out is FLOOD  # a fresh flood
        assert node.pit[NAME.canonical_text].expiry == 2 * PIT_LIFETIME_NS

    def test_reclaim_deletes_only_current_entries(self):
        node = flooding_node()
        node.on_interest(InterestPacket(NAME, nonce=1), in_face=1, now=0)
        other = parse_name("/other")
        node.on_interest(InterestPacket(other, nonce=2), in_face=LOCAL_FACE, now=0)
        joined = parse_name("/joined")
        node.on_interest(InterestPacket(joined, nonce=3), in_face=1, now=0)
        node.on_interest(InterestPacket(joined, nonce=4), in_face=LOCAL_FACE, now=1)
        stale = parse_name("/stale")
        node.on_interest(InterestPacket(stale, nonce=5), in_face=1, now=0)
        node.on_interest(InterestPacket(stale, nonce=6), in_face=2, now=PIT_LIFETIME_NS)
        assert len(node.pit_reclaim) == 5  # every entry, the local one too
        reclaim_expired(node.pit_reclaim, PIT_LIFETIME_NS)
        # the expired transit, local and joined entries are gone; the
        # replaced one is skipped and the re-created one stays
        assert set(node.pit) == {stale.canonical_text}
        assert node.pit[stale.canonical_text].expiry == 2 * PIT_LIFETIME_NS
        assert len(node.pit_reclaim) == 1
