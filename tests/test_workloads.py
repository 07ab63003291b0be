"""Tests for workload generators (Zipf, occupancy, scenarios)."""

import random

import pytest

from repro.workloads.occupancy import occupancy_membership
from repro.workloads.scenarios import (
    GameWorld,
    MessagingScenario,
    StockTickerScenario,
)
from repro.workloads.zipf import zipf_group_sizes, zipf_membership

# ---------------------------------------------------------------------------
# Zipf
# ---------------------------------------------------------------------------


def test_zipf_sizes_monotone_decreasing():
    sizes = zipf_group_sizes(128, 16)
    assert sizes == sorted(sizes, reverse=True)


def test_zipf_rank1_is_three_quarters():
    sizes = zipf_group_sizes(128, 4)
    assert sizes[0] == 96  # 0.75 * 128


def test_zipf_sizes_follow_inverse_rank():
    sizes = zipf_group_sizes(128, 8)
    assert sizes[1] == pytest.approx(sizes[0] / 2, abs=1)
    assert sizes[3] == pytest.approx(sizes[0] / 4, abs=1)


def test_zipf_min_size_clamp():
    sizes = zipf_group_sizes(128, 64, min_size=2)
    assert min(sizes) >= 2


def test_zipf_sizes_capped_at_population():
    sizes = zipf_group_sizes(16, 4, largest=100)
    assert max(sizes) <= 16


def test_zipf_custom_largest():
    sizes = zipf_group_sizes(128, 4, largest=64)
    assert sizes[0] == 64


def test_zipf_exponent_two_steeper():
    flat = zipf_group_sizes(128, 8, exponent=1.0)
    steep = zipf_group_sizes(128, 8, exponent=2.0)
    assert steep[4] < flat[4]


def test_zipf_zero_groups_rejected():
    with pytest.raises(ValueError):
        zipf_group_sizes(128, 0)


def test_zipf_membership_sizes_match():
    snapshot = zipf_membership(64, 8, rng=random.Random(0))
    sizes = zipf_group_sizes(64, 8)
    assert [len(snapshot[g]) for g in range(8)] == sizes


def test_zipf_membership_members_in_range():
    snapshot = zipf_membership(32, 8, rng=random.Random(1))
    for members in snapshot.values():
        assert all(0 <= m < 32 for m in members)


def test_zipf_membership_deterministic():
    a = zipf_membership(64, 8, rng=random.Random(5))
    b = zipf_membership(64, 8, rng=random.Random(5))
    assert a == b


# ---------------------------------------------------------------------------
# Occupancy
# ---------------------------------------------------------------------------


def test_occupancy_zero_is_empty():
    assert occupancy_membership(32, 8, 0.0, rng=random.Random(0)) == {}


def test_occupancy_one_is_full():
    snapshot = occupancy_membership(32, 8, 1.0, rng=random.Random(0))
    assert len(snapshot) == 8
    assert all(members == frozenset(range(32)) for members in snapshot.values())


def test_occupancy_density_roughly_matches():
    snapshot = occupancy_membership(100, 50, 0.3, rng=random.Random(2))
    total = sum(len(m) for m in snapshot.values())
    assert 0.25 < total / (100 * 50) < 0.35


def test_occupancy_out_of_range_rejected():
    with pytest.raises(ValueError):
        occupancy_membership(10, 5, 1.5)


def test_occupancy_group_ids_dense():
    snapshot = occupancy_membership(50, 20, 0.1, rng=random.Random(3))
    assert sorted(snapshot) == list(range(len(snapshot)))


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def test_game_world_membership_regions():
    world = GameWorld(width=3, height=3, n_players=18, rng=random.Random(0))
    membership = world.membership()
    assert membership  # some regions active
    for region, players in membership.items():
        assert 0 <= region < 9
        assert len(players) >= 2


def test_game_world_interest_radius():
    world = GameWorld(width=5, height=5, n_players=10, interest_radius=1,
                      rng=random.Random(1))
    for player in range(10):
        px, py = world.player_cell[player]
        own = world.region_id(px, py)
        regions = world.regions_of(player)
        assert own in regions
        assert len(regions) <= 9


def test_game_world_overlapping_players_share_groups():
    world = GameWorld(width=2, height=2, n_players=8, rng=random.Random(2))
    membership = world.membership()
    # With 8 players on 4 cells and radius 1, overlaps are inevitable.
    shared = [g for g, players in membership.items() if len(players) >= 3]
    assert shared


def test_game_world_schedule_senders_in_group():
    world = GameWorld(n_players=16, rng=random.Random(3))
    membership = world.membership()
    for event in world.publish_schedule(30):
        assert event.sender in membership[event.group]


def test_stock_ticker_membership_and_filters():
    scenario = StockTickerScenario(n_consumers=16, rng=random.Random(0))
    membership = scenario.membership()
    for group, consumers in membership.items():
        assert len(consumers) >= 2
        key, value = scenario.filters[group]
        assert key in ("sector", "region", "cap")


def test_stock_ticker_trades_match_filters():
    scenario = StockTickerScenario(n_consumers=16, rng=random.Random(1))
    for trade in scenario.trade_schedule(20):
        stock = trade.payload["stock"]
        key, value = scenario.filters[trade.group]
        assert scenario.stock_attrs[stock][key] == value


def test_stock_ticker_senders_are_members():
    scenario = StockTickerScenario(n_consumers=16, rng=random.Random(2))
    membership = scenario.membership()
    for trade in scenario.trade_schedule(20):
        assert trade.sender in membership[trade.group]


def test_messaging_membership_rooms_and_presence():
    scenario = MessagingScenario(n_users=12, n_rooms=4, rng=random.Random(0))
    membership = scenario.membership()
    rooms = [g for g in membership if g < 4]
    feeds = [g for g in membership if g >= 4]
    assert rooms and feeds


def test_messaging_presence_includes_owner():
    scenario = MessagingScenario(n_users=12, rng=random.Random(1))
    membership = scenario.membership()
    for user in range(12):
        feed = scenario.presence_group_id(user)
        if feed in membership:
            assert user in membership[feed]


def test_messaging_schedule_senders_are_members():
    scenario = MessagingScenario(n_users=12, rng=random.Random(2))
    membership = scenario.membership()
    for event in scenario.chat_schedule(40):
        assert event.sender in membership[event.group]
