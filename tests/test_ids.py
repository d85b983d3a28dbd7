"""Detection, loop correlation, localization and mitigation tests.

The sequence rules are checked against a brute-force oracle that replays
the legal publication chain and recomputes, for every prefix, the set of
(st, sq) pairs already consumed; a presented frame must alert exactly
when its pair falls lexicographically behind the publisher's current
position (an equal pair is a network duplicate and stays silent).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridshield import codec, ids
from gridshield.codec import GooseFrame, encode_goose, next_publication
from gridshield.ids import (
    LOOP_WINDOW_US,
    PUBLISHER_WHITELIST,
    RATE_LIMIT,
    RATE_MAX_FRAMES,
    RATE_WINDOW_US,
    SEQ_REGRESSION,
    SEQ_SKIP,
    TTL_BOUND,
    ObservationRecord,
    Origin,
    SubscriptionState,
    inspect,
    localize,
    mitigate,
)
from gridshield.netsim import PortRef, note_fields
from gridshield.scenarios import _build, load_scenario
from gridshield.substation import (
    IDS,
    IDS_MAIN_FEED,
    IDS_PIED_FEED,
    IDS_LOOP_RETURN,
    PBS_PIED,
    PIED_MAC,
    PROCESS_BUS,
    SBS_PIED,
    STATION_BUS,
    GOCB_REF,
)
from gridshield.util import frame_digest
from tests.test_codec import golden_goose_frame

OTHER_GOCB = "OTHER/LLN0$GO$gcb9"
HEARTBEAT_US = 1_000_000  # the shipped scenarios' publish interval


def pied_frame(**overrides) -> GooseFrame:
    frame = golden_goose_frame()
    values = {**frame._asdict(), "src": PIED_MAC, "gocb_ref": GOCB_REF, "st_num": 1, "sq_num": 0}
    values.update(overrides)
    return GooseFrame(**values)


def feed(state, frames, start_at=0, spacing=200_000):
    """Inspect a sequence of frames; return the rules each one breaks."""
    out = []
    for i, frame in enumerate(frames):
        _, rules = inspect(frame, state, start_at + i * spacing)
        out.append(rules)
    return out


class TestRules:
    def test_legal_chain_is_silent(self):
        frame = pied_frame()
        chain = [frame]
        for i in range(20):
            frame = next_publication(frame, state_changed=(i == 7), now=(i + 1) * 1_000_000)
            chain.append(frame)
        alerts = feed(SubscriptionState(HEARTBEAT_US), chain)
        assert all(not a for a in alerts)

    def test_stale_st_num_is_regression(self):
        state = SubscriptionState(HEARTBEAT_US)
        feed(state, [pied_frame(st_num=3, sq_num=2)])
        _, alerts = inspect(pied_frame(st_num=2, sq_num=9), state, 10**6)
        assert "seq_regression" in alerts

    def test_sq_rewind_without_st_change_is_regression(self):
        state = SubscriptionState(HEARTBEAT_US)
        feed(state, [pied_frame(st_num=1, sq_num=5)])
        _, alerts = inspect(pied_frame(st_num=1, sq_num=2), state, 10**6)
        assert "seq_regression" in alerts

    def test_duplicate_copy_is_not_a_regression(self):
        state = SubscriptionState(HEARTBEAT_US)
        frame = pied_frame(st_num=2, sq_num=4)
        feed(state, [frame])
        _, alerts = inspect(frame, state, 10**6)
        assert not alerts

    def test_sq_jump_is_skip(self):
        state = SubscriptionState(HEARTBEAT_US)
        feed(state, [pied_frame(st_num=1, sq_num=1)])
        _, alerts = inspect(pied_frame(st_num=1, sq_num=4), state, 10**6)
        assert "seq_skip" in alerts

    def test_abnormal_frame_does_not_poison_state(self):
        state = SubscriptionState(HEARTBEAT_US)
        good = pied_frame(st_num=2, sq_num=3)
        feed(state, [good])
        inspect(pied_frame(st_num=1, sq_num=0), state, 10**6)
        follow = next_publication(good, state_changed=False, now=2 * 10**6)
        _, alerts = inspect(follow, state, 2 * 10**6)
        assert not alerts

    def test_ttl_outside_bounds(self):
        state = SubscriptionState(HEARTBEAT_US)
        _, alerts = inspect(pied_frame(time_allowed_to_live=120_000), state, 0)
        assert "ttl_bound" in alerts

    def test_foreign_source_mac_hits_whitelist(self):
        state = SubscriptionState(HEARTBEAT_US)
        bad = pied_frame(src=golden_goose_frame().dst)
        _, alerts = inspect(bad, state, 0)
        assert "publisher_whitelist" in alerts

    def test_unknown_gocb_hits_whitelist(self):
        state = SubscriptionState(HEARTBEAT_US)
        _, alerts = inspect(pied_frame(gocb_ref=OTHER_GOCB), state, 0)
        assert "publisher_whitelist" in alerts

    def test_rate_limit_on_flood(self):
        state = SubscriptionState(HEARTBEAT_US)
        frame = pied_frame()
        flood = [frame] * 12
        alerts = feed(state, flood, spacing=1_000)  # 12 within 100ms
        assert any("rate_limit" in batch for batch in alerts)
        assert not any(a for a in alerts[:state.rate_max_frames])

    @pytest.mark.parametrize("st_num, sq_num, sequence_rule", [
        (1, 0, SEQ_REGRESSION),
        (2, 5, SEQ_SKIP),
    ])
    def test_alerts_come_in_rule_order(self, st_num, sq_num, sequence_rule):
        """A frame that breaks four rules at once gets their alerts in the
        fixed rule order, which is the order the device logs them."""
        state = SubscriptionState(HEARTBEAT_US)
        feed(state, [pied_frame(st_num=2, sq_num=3)] * state.rate_max_frames, spacing=1_000)
        bad = pied_frame(
            st_num=st_num, sq_num=sq_num, time_allowed_to_live=120_000,
            src=golden_goose_frame().dst,
        )
        _, alerts = inspect(bad, state, 10_000)
        assert alerts == [
            sequence_rule, TTL_BOUND, PUBLISHER_WHITELIST, RATE_LIMIT
        ]

    @pytest.mark.parametrize("heartbeat_us, bound", [
        (1_000_000, RATE_MAX_FRAMES + 1),
        (2_000, RATE_MAX_FRAMES + 50),
        (3_000, RATE_MAX_FRAMES + 34),  # a window holds up to 34 of them
    ])
    def test_rate_bound_adds_the_declared_heartbeat_to_the_floor(self, heartbeat_us, bound):
        state = SubscriptionState(heartbeat_us)
        frame = pied_frame()
        spacing = RATE_WINDOW_US // (bound + 2)
        alerts = feed(state, [frame] * (bound + 1), spacing=spacing)
        assert not any(alerts[:bound])
        assert alerts[bound] == [RATE_LIMIT]

    def test_a_rate_alert_alone_still_advances_the_sequence(self):
        """A burst that breaks only the rate rule leaves no latch: the
        publications after it are in sequence, not skips."""
        state = SubscriptionState(HEARTBEAT_US)
        frame, chain = pied_frame(), []
        for i in range(RATE_MAX_FRAMES + 5):
            chain.append(frame)
            frame = next_publication(frame, state_changed=False, now=(i + 1) * 1_000)
        alerts = feed(state, chain, spacing=1_000)
        assert {a for batch in alerts for a in batch} == {RATE_LIMIT}
        _, alerts = inspect(frame, state, 10**6)
        assert not alerts

    def test_a_stale_replay_never_advances_the_state(self):
        """Replays that also break the rate rule leave the position where
        the relay's last clean publication put it."""
        state = SubscriptionState(HEARTBEAT_US)
        first = pied_frame()
        frame = next_publication(first, state_changed=True, now=1_000)
        feed(state, [first, frame])
        pub = state.publisher(GOCB_REF)
        position = (pub.last_st, pub.last_sq)
        replays = feed(state, [first] * (RATE_MAX_FRAMES + 2), start_at=10**6, spacing=1_000)
        assert all(SEQ_REGRESSION in set(batch) for batch in replays)
        assert any(RATE_LIMIT in set(batch) for batch in replays)
        assert (pub.last_st, pub.last_sq) == position
        follow = next_publication(frame, state_changed=False, now=2 * 10**6)
        _, alerts = inspect(follow, state, 2 * 10**6)
        assert not alerts


class TestSequenceOracle:
    """Brute-force oracle: replay the chain, compare lexicographic order."""

    @settings(max_examples=200)
    @given(
        changes=st.lists(st.booleans(), min_size=1, max_size=30),
        pick=st.data(),
    )
    def test_replay_of_past_frame_matches_oracle(self, changes, pick):
        frame = pied_frame()
        chain = [frame]
        for i, changed in enumerate(changes):
            frame = next_publication(frame, changed, now=(i + 1) * 1_000_000)
            chain.append(frame)

        state = SubscriptionState(HEARTBEAT_US)
        feed(state, chain, spacing=1_000_000)

        candidate = chain[pick.draw(st.integers(0, len(chain) - 1))]
        _, alerts = inspect(candidate, state, (len(chain) + 2) * 1_000_000)

        # oracle: recompute the publisher position by replaying the chain
        position = max((f.st_num, f.sq_num) for f in chain)
        expected_abnormal = (candidate.st_num, candidate.sq_num) < position
        assert (SEQ_REGRESSION in alerts) == expected_abnormal


def obs(port, loop=False, time=0):
    return ObservationRecord(port, loop, time)


class TestLocalize:
    def test_switch_convicted_by_non_echo_loop_return(self):
        records = [
            obs(IDS_MAIN_FEED, time=10),
            obs(IDS_LOOP_RETURN, loop=False, time=11),
            obs(IDS_LOOP_RETURN, loop=True, time=17),
        ]
        assert localize(records) is Origin.STATION_BUS_SWITCH

    def test_foreign_identity_alone_on_main_feed_names_the_relay(self):
        """A main-feed sighting that breaks only the whitelist rule is
        evidence of where it came in, not of who it claims to be."""
        state = SubscriptionState(HEARTBEAT_US)
        foreign = pied_frame(src=golden_goose_frame().dst, gocb_ref=OTHER_GOCB)
        _, alerts = inspect(foreign, state, 5)
        assert alerts == [PUBLISHER_WHITELIST]
        assert localize([obs(IDS_MAIN_FEED, time=5)]) is Origin.PIED

    def test_relay_convicted_when_loops_all_echo(self):
        records = [
            obs(IDS_MAIN_FEED, time=10),
            obs(IDS_LOOP_RETURN, loop=True, time=16),
        ]
        assert localize(records) is Origin.PIED

    def test_empty_observations_is_a_precondition_violation(self):
        with pytest.raises(ValueError):
            localize([])

    def test_direct_feed_only_evidence_is_inconclusive(self):
        records = [obs(IDS_PIED_FEED, time=3)]
        assert localize(records) is None

    def test_echoes_only_evidence_is_inconclusive(self):
        records = [obs(IDS_LOOP_RETURN, loop=True, time=3)]
        assert localize(records) is None


def localize_by_rescan(observations):
    """Reference decision table: sort, then rescan every observation."""
    obs = tuple(sorted(observations, key=lambda o: o.time))
    if any(o.ingress_port == IDS_LOOP_RETURN and not o.loop for o in obs):
        return Origin.STATION_BUS_SWITCH
    loop_returns_all_echo = all(o.loop for o in obs if o.ingress_port == IDS_LOOP_RETURN)
    if obs[0].ingress_port == IDS_MAIN_FEED and loop_returns_all_echo:
        return Origin.PIED
    return None


observation_steps = st.lists(
    st.tuples(
        st.sampled_from([IDS_MAIN_FEED, IDS_PIED_FEED, IDS_LOOP_RETURN, 1, 8]),
        st.booleans(),
        st.integers(min_value=0, max_value=3),  # time step; 0 gives ties
    ),
    min_size=1,
    max_size=25,
)


class TestEvidence:
    @settings(max_examples=300)
    @given(observation_steps)
    def test_running_decision_equals_localize_of_the_prefix(self, steps):
        """As the device decides: on every prefix of its observations."""
        records = []
        time = 0
        for port, loop, step in steps:
            time += step
            records.append(obs(port, loop=loop, time=time))
            assert localize(records) == localize_by_rescan(records)

    def test_localize_orders_by_time_before_deciding(self):
        records = [
            obs(IDS_LOOP_RETURN, loop=True, time=16),
            obs(IDS_MAIN_FEED, time=10),
        ]
        assert localize(records) is Origin.PIED

    @pytest.mark.parametrize("port", [0, 9, -1])
    def test_a_port_the_device_does_not_have_is_rejected(self, port):
        records = [obs(IDS_MAIN_FEED, time=0), obs(port, time=1)]
        with pytest.raises(ValueError, match="outside 1..8"):
            localize(records)


class TestMitigate:
    def test_switch_culprit_keeps_only_delivery_and_relay_feed(self):
        ports = mitigate(Origin.STATION_BUS_SWITCH)
        assert all(p.node == IDS for p in ports)
        assert {p.port for p in ports} == {1, 2, 3, 4, 7, 8}

    def test_relay_culprit_disables_both_facing_switch_ports(self):
        assert set(mitigate(Origin.PIED)) == {
            PortRef(STATION_BUS, SBS_PIED),
            PortRef(PROCESS_BUS, PBS_PIED),
        }

    def test_mitigation_is_idempotent_as_port_state(self):
        ports = mitigate(Origin.STATION_BUS_SWITCH)
        assert ports == mitigate(Origin.STATION_BUS_SWITCH)
        assert all(isinstance(p, PortRef) for p in ports)
        assert len(set(ports)) == len(ports)


class TestInspectDigest:
    def test_alert_digest_matches_wire_digest(self):
        frame = pied_frame(time_allowed_to_live=999_999)
        device = ids_device()
        device.on_frame(IDS_MAIN_FEED, encode_goose(frame), 0)
        alerts = alerts_of(device)
        assert alerts and alerts[0][2] == frame_digest(encode_goose(frame))


class TestFirstSighting:
    """The device inspects each digest once and observes every sighting."""

    @pytest.fixture
    def device(self, monkeypatch):
        decoded = []

        def decode(raw):
            decoded.append(raw.digest)
            return codec.decode_goose(raw)

        monkeypatch.setattr(ids, "decode_goose", decode)
        device = ids_device()
        device.decoded = decoded
        return device

    @staticmethod
    def arrive(device, arrivals):
        for at, port, raw in sorted(arrivals, key=lambda a: a[0]):
            device.on_frame(port, raw, at)

    @staticmethod
    def alerts(device):
        return [(ev.port, ev.note) for ev in device.net.log if ev.kind == "AlertRaised"]

    def test_copies_on_three_ports_count_once_towards_the_rate_rule(self, device):
        """Publications at the heartbeat-derived bound, each seen on the
        direct and main feeds and, 6 ms later, as its own loop echo."""
        frame, raws = pied_frame(), []
        for i in range(device.state.rate_max_frames):
            raws.append(encode_goose(frame))
            frame = next_publication(frame, state_changed=False, now=(i + 1) * 5_000)
        self.arrive(device, [
            arrival
            for i, raw in enumerate(raws)
            for arrival in (
                (i * 5_000, IDS_PIED_FEED, raw),
                (i * 5_000, IDS_MAIN_FEED, raw),
                (i * 5_000 + 6_000, IDS_LOOP_RETURN, raw),
            )
        ])
        assert self.alerts(device) == []
        assert device.decoded == [raw.digest for raw in raws]
        assert len(device.state.publisher(GOCB_REF).arrivals) == len(raws)

    def test_an_abnormal_copy_is_alerted_and_observed_on_its_own_port(self, device):
        first = pied_frame()
        follow = encode_goose(next_publication(first, state_changed=True, now=1_000))
        stale = encode_goose(first)
        self.arrive(device, [
            (0, IDS_MAIN_FEED, encode_goose(first)),
            (1_000, IDS_MAIN_FEED, follow),
            # the replay, seen on the main feed and, not as an echo, on the
            # loop return before the main-feed copy's own echo
            (50_000, IDS_MAIN_FEED, stale),
            (51_000, IDS_LOOP_RETURN, stale),
            (56_000, IDS_LOOP_RETURN, stale),
        ])
        note = f"rule={SEQ_REGRESSION} gocb={GOCB_REF}"
        assert self.alerts(device) == [
            (IDS_MAIN_FEED, note), (IDS_LOOP_RETURN, note), (IDS_LOOP_RETURN, note)
        ]
        assert device.decoded[2:] == [stale.digest]  # the replay, once
        assert device.observations == [
            obs(IDS_MAIN_FEED, loop=False, time=50_000),
            obs(IDS_LOOP_RETURN, loop=False, time=51_000),
            obs(IDS_LOOP_RETURN, loop=True, time=56_000),
        ]
        assert localize(device.observations) is Origin.STATION_BUS_SWITCH

    @pytest.mark.parametrize("port", [IDS_MAIN_FEED, IDS_LOOP_RETURN])
    def test_a_flood_of_identical_frames_on_one_port_trips_the_rate_rule(self, device, port):
        """A repeat on a port that already saw the digest is a new arrival,
        not a copy: the classic GOOSE flood of one replayed publication."""
        raw = encode_goose(pied_frame())
        flood = [(i * 1_000, port, raw) for i in range(12)]  # 12 within 100 ms
        self.arrive(device, flood)
        assert device.decoded == [raw.digest] * len(flood)
        rate = (port, f"rule={RATE_LIMIT} gocb={GOCB_REF}")
        assert self.alerts(device) == [rate] * (len(flood) - device.state.rate_max_frames)

    def test_repeats_count_again_but_own_echoes_do_not(self, device):
        """After its copies, a digest's repeat on the feeds is inspected and
        counted again; the echo of a frame the device sent round the loop
        is not, though the loop return has seen the digest already."""
        raw = encode_goose(pied_frame())
        self.arrive(device, [
            (0, IDS_PIED_FEED, raw),
            (0, IDS_MAIN_FEED, raw),  # sent round the loop, back 4 ms on
            (6_000, IDS_LOOP_RETURN, raw),  # its echo: a copy
            (7_000, IDS_PIED_FEED, raw),  # a repeat
            (8_000, IDS_MAIN_FEED, raw),  # a repeat
            (9_000, IDS_LOOP_RETURN, raw),  # inside a loop window: taken for an echo
        ])
        assert device.decoded == [raw.digest] * 3
        assert len(device.state.publisher(GOCB_REF).arrivals) == 3

    def test_a_copy_after_the_window_is_inspected_again(self, device):
        raw = encode_goose(pied_frame(time_allowed_to_live=120_000))
        self.arrive(device, [
            (0, IDS_MAIN_FEED, raw),
            (LOOP_WINDOW_US, IDS_PIED_FEED, raw),
            (LOOP_WINDOW_US + 1, IDS_PIED_FEED, raw),
        ])
        assert device.decoded == [raw.digest, raw.digest]
        assert len(self.alerts(device)) == 3


def ids_device(overrides=None):
    """The inspector of a freshly built attack1 network, fed by hand."""
    return _build(load_scenario("attack1", overrides)).handlers[IDS]


def alerts_of(device):
    return [(ev.time, ev.port, ev.digest, ev.note) for ev in device.net.log if ev.kind == "AlertRaised"]


# three digests: a clean publication, one with a TTL out of bounds, and
# one from a publisher off the whitelist
MEMORY_RAWS = (
    encode_goose(pied_frame()),
    encode_goose(pied_frame(time_allowed_to_live=120_000)),
    encode_goose(pied_frame(gocb_ref=OTHER_GOCB)),
)


class TestDeviceMemory:
    """What the device remembers of each digest, seen through ``on_frame``."""

    @pytest.mark.parametrize("after_departure, echo, inspections", [
        (-1, False, 1),  # a copy on a port that has not seen it, but no echo
        (0, True, 1),
        (LOOP_WINDOW_US, True, 1),  # past the inspection's window, still an echo
        (LOOP_WINDOW_US + 1, False, 2),
    ], ids=["before_departure", "at_departure", "at_window_end", "after_window_end"])
    def test_an_echo_is_a_loop_return_inside_a_departure_window(
        self, after_departure, echo, inspections
    ):
        device = ids_device()
        raw = MEMORY_RAWS[1]  # abnormal, so every sighting is observed
        device.on_frame(IDS_MAIN_FEED, raw, 0)  # sent round the loop
        device.on_frame(IDS_LOOP_RETURN, raw, device.processing_delay + after_departure)
        assert [(o.ingress_port, o.loop) for o in device.observations] == [
            (IDS_MAIN_FEED, False), (IDS_LOOP_RETURN, echo)
        ]
        assert len(device.state.publisher(GOCB_REF).arrivals) == inspections

    def test_another_digest_is_not_an_echo(self):
        device = ids_device()
        device.on_frame(IDS_MAIN_FEED, MEMORY_RAWS[0], 0)
        device.on_frame(IDS_LOOP_RETURN, MEMORY_RAWS[1], device.processing_delay)
        assert [(o.ingress_port, o.loop) for o in device.observations] == [
            (IDS_LOOP_RETURN, False)
        ]

    def test_memory_is_bounded_at_a_2_ms_publish_interval(self):
        """Driven for a simulated 10 s: each publication seen on the direct
        and main feeds and, 6 ms on, as its own echo, and the first one
        replayed on the main feed now and then."""
        device = ids_device({"publish_interval_ms": 2})
        frame, raws = pied_frame(), []
        most_recent = most_expiry = 0
        for i in range(5_000):
            now = i * 2_000
            raws.append(encode_goose(frame))
            frame = next_publication(frame, state_changed=False, now=now + 2_000)
            if i >= 3:
                device.on_frame(IDS_LOOP_RETURN, raws[i - 3], now)
            device.on_frame(IDS_PIED_FEED, raws[i], now)
            device.on_frame(IDS_MAIN_FEED, raws[i], now)
            if i % 97 == 0:
                device.on_frame(IDS_MAIN_FEED, raws[0], now)
            most_recent = max(most_recent, len(device._recent))
            most_expiry = max(most_expiry, len(device._expiry))
        assert {digest for _, _, digest, _ in alerts_of(device)} == {raws[0].digest}
        assert most_recent <= (LOOP_WINDOW_US + device.processing_delay) // 2_000 + 3
        assert most_expiry <= 2 * ((LOOP_WINDOW_US + device.processing_delay) // 2_000 + 3)

    @settings(max_examples=300)
    @given(
        steps=st.lists(
            st.tuples(
                # time steps near the windows' edges; 0 gives ties
                st.one_of(
                    st.sampled_from(
                        [0, 1, 2_000, 4_000, LOOP_WINDOW_US - 1, LOOP_WINDOW_US, LOOP_WINDOW_US + 1]
                    ),
                    st.integers(0, 2 * LOOP_WINDOW_US),
                ),
                st.sampled_from([IDS_MAIN_FEED, IDS_PIED_FEED, IDS_LOOP_RETURN]),
                st.sampled_from(range(len(MEMORY_RAWS))),
            ),
            max_size=40,
        ),
    )
    # a repeat sent round the loop keeps its departure's window open after
    # its inspection's has closed, and its echo comes back in between
    @example(steps=[(0, IDS_MAIN_FEED, 1), (0, IDS_PIED_FEED, 1), (8_000, IDS_MAIN_FEED, 1),
                    (13_000, IDS_LOOP_RETURN, 1)])
    def test_forgetting_changes_no_alert_and_no_observation(self, steps):
        """Against a device that never forgets a digest."""
        device, reference = ids_device(), ids_device()
        reference._forget = lambda now: None
        now = 0
        for step, port, which in steps:
            now += step
            device.on_frame(port, MEMORY_RAWS[which], now)
            reference.on_frame(port, MEMORY_RAWS[which], now)
        assert alerts_of(device) == alerts_of(reference)
        assert device.observations == reference.observations


class TestDeviceAtStormRate:
    """The inspector in attack1 with the relay publishing every 2 ms."""

    @pytest.fixture(scope="class")
    def device(self):
        def parse(data, layout):
            raise AssertionError("a frame the simulator encoded was parsed")

        spec = load_scenario("attack1", {"publish_interval_ms": 2, "samples_per_second": 100})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_read_body", parse)
            net = _build(spec)
            net.run_until(spec.duration_us)
        return net.handlers[IDS]

    def test_no_frame_is_parsed(self, device):
        assert device.state.publisher(GOCB_REF).last_st > 0  # it inspected

    def test_no_observation_is_kept_after_the_verdict(self, device):
        assert device.culprit is not None
        # the verdict was decided on every sighting kept, and none came later
        verdict = next(ev for ev in device.net.log if ev.kind == "VerdictReached")
        assert int(note_fields(verdict.note)["evidence"]) == len(device.observations)
        assert all(o.time <= verdict.time for o in device.observations)

    def test_loop_memory_holds_only_the_last_window(self, device):
        # one first sighting per 2 ms publication, each remembered for
        # 10 ms; the verdict cut the loop, so no departure is remembered
        assert 0 < len(device._recent) <= LOOP_WINDOW_US // 2_000 + 1
        assert not any(rec.loops for rec in device._recent.values())
