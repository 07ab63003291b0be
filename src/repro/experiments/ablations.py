"""The A1–A9 ablations: what the paper claims beside Figures 3–8.

Each ablation is a ``run_*`` body returning structured data and a
``render_*`` helper producing its text table; :mod:`repro.experiments.tables`
declares each one as a table with its shape claims.

* A1 ``run_overhead`` — stamp bytes vs vector-timestamp bytes (§2, §4.4).
* A2 ``run_comparison`` — sequencing atoms vs the centralized sequencer vs
  propagation trees: load and latency (§1, §2, §4.3).
* A3 ``run_churn`` — incremental sequencing-graph churn, lazy vs eager
  removal; A3b ``ONLINE_CHURN`` — the same question through epoch-fenced
  online reconfiguration under live traffic (§5's future work).
* A4 ``run_ablation`` — §3.4 placement vs random scattering.
* A5 ``run_throughput`` — saturation throughput vs the central sequencer.
* A6 ``run_failure`` — the busiest sequencing node down under traffic.
* A7 — the host sweep, :mod:`repro.experiments.hosts_sweep`.
* A8 ``run_waxman`` — the Figure 3 workload on a flat Waxman underlay.
* A9 ``run_ordering_ablation`` — the order of atoms on each chain.
"""

import random

from repro.baselines.central_sequencer import CentralSequencerFabric
from repro.baselines.propagation_tree import PropagationTreeFabric
from repro.core.messages import HEADER_BYTES, VECTOR_ENTRY_BYTES, vector_timestamp_bytes
from repro.core.placement import assign_machines, co_locate_atoms, place, random_placement
from repro.core.protocol import OrderingFabric
from repro.core.sequencing_graph import SequencingGraph
from repro.experiments.common import format_table
from repro.faults.campaign import CampaignConfig
from repro.metrics.overhead import stamp_overhead_bytes
from repro.metrics.stats import percentile
from repro.metrics.stretch import latency_stretch_by_destination, rdp_by_pair
from repro.pubsub.membership import GroupMembership
from repro.topology.clusters import attach_hosts
from repro.topology.routing import RoutingTable
from repro.topology.waxman import WaxmanParams, generate_waxman
from repro.workloads.zipf import zipf_membership

# ---------------------------------------------------------------------------
# A1 — per-message ordering-metadata overhead vs vector timestamps.
#
# The stamp a message carries is proportional to the number of its group's
# overlaps (bounded by the group count), never to the group size or node
# population, so the sequencing approach beats system-wide vector
# timestamps whenever nodes outnumber groups — and beats even per-group
# vector timestamps for large groups.
# ---------------------------------------------------------------------------


def run_overhead(env, group_counts=(8, 16, 32, 64), runs=10):
    rows = []
    n_hosts = env.n_hosts
    for n_groups in group_counts:
        worst_stamp = 0
        total_stamp = 0
        total_groups = 0
        group_vector_worst = 0
        for run in range(runs):
            snapshot = zipf_membership(n_hosts, n_groups, rng=random.Random(run))
            graph = env.build_graph(snapshot, seed=run)
            overhead = stamp_overhead_bytes(graph)
            worst_stamp = max(worst_stamp, max(overhead.values()))
            total_stamp += sum(overhead.values())
            total_groups += len(overhead)
            group_vector_worst = max(
                group_vector_worst,
                HEADER_BYTES
                + VECTOR_ENTRY_BYTES * max(len(m) for m in snapshot.values()),
            )
        rows.append(
            (
                n_groups,
                total_stamp / total_groups,
                worst_stamp,
                group_vector_worst,
                vector_timestamp_bytes(n_hosts),
            )
        )
    return rows


def render_overhead(rows):
    return format_table(
        ["groups", "mean_stamp_B", "worst_stamp_B", "group_vector_B", "dense_vector_B"],
        rows,
        title="A1: ordering metadata bytes per message (128 hosts)",
    )


# ---------------------------------------------------------------------------
# A2 — sequencing atoms vs centralized sequencer vs propagation trees.
#
# A centralized coordinator processes *every* message in the system, while
# the busiest sequencing atom handles only the traffic of its overlapped
# groups; Garcia-Molina/Spauster propagation trees make destination hosts
# forward and order messages for groups they may not subscribe to.
# ---------------------------------------------------------------------------

COMPARISON_GROUPS = 16
COMPARISON_MESSAGES = 300


def run_comparison(env, seed=0):
    rng = random.Random(seed)
    snapshot = zipf_membership(env.n_hosts, COMPARISON_GROUPS, rng=rng)
    sends = []
    groups = sorted(snapshot)
    for _ in range(COMPARISON_MESSAGES):
        group = rng.choice(groups)
        sender = rng.choice(sorted(snapshot[group]))
        sends.append((sender, group))

    membership = env.membership_from(snapshot)
    ours = env.build_fabric(membership, seed=seed, trace=False)
    central = CentralSequencerFabric(
        env.membership_from(snapshot), env.hosts, env.routing, trace=False
    )
    tree = PropagationTreeFabric(
        env.membership_from(snapshot), env.hosts, env.routing, trace=False
    )
    for fabric in (ours, central, tree):
        for sender, group in sends:
            fabric.publish(sender, group)
        fabric.run()

    max_atom_load = max(
        r.messages_sequenced + r.messages_passed_through
        for p in ours.node_processes.values()
        for r in p.atom_runtimes.values()
    )
    max_node_load = max(ours.sequencing_load().values())
    coordinator_load = central.coordinator_load()
    max_tree_forwarding = max(tree.forwarding_load().values())

    return {
        "max_atom_load": max_atom_load,
        "max_seqnode_load": max_node_load,
        "coordinator_load": coordinator_load,
        "max_tree_forwarding": max_tree_forwarding,
        "latency_ours": _mean_latency(ours, env.n_hosts),
        "latency_central": _mean_latency(central, env.n_hosts),
        "latency_tree": _mean_latency(tree, env.n_hosts),
    }


def render_comparison(stats):
    return format_table(
        ["metric", "value"],
        sorted(stats.items()),
        title=(
            f"A2: load and latency, {COMPARISON_MESSAGES} messages over "
            f"{COMPARISON_GROUPS} Zipf groups, 128 hosts"
        ),
    )


def _mean_latency(fabric, n_hosts):
    total, count = 0.0, 0
    for host in range(n_hosts):
        for record in fabric.delivered(host):
            total += record.time - record.publish_time
            count += 1
    return total / count if count else float("nan")


# ---------------------------------------------------------------------------
# A3 — dynamic membership churn (the paper's Section 5 future work).
#
# "When changes in the group membership are infrequent or along existing
# patterns, we expect very little churn in the sequencing graph."  A3
# applies a stream of group add/remove operations to an incrementally
# maintained sequencing graph and counts atoms created and retired (lazy
# removal vs eager splicing).  A3b drives whole fabrics through
# epoch-fenced online reconfiguration under live traffic
# (:mod:`repro.faults.campaign`): what a switch costs in drained events.
# ---------------------------------------------------------------------------


def run_churn(n_hosts=128, n_groups=24, operations=200, lazy=True, seed=0):
    rng = random.Random(seed)
    snapshot = zipf_membership(n_hosts, n_groups, rng=rng)
    graph = SequencingGraph.build(snapshot)
    live = dict(snapshot)
    next_id = n_groups

    atoms_created = 0
    atoms_retired = 0
    max_atoms = len(graph.atoms)
    for _ in range(operations):
        if live and rng.random() < 0.5:
            victim = rng.choice(sorted(live))
            atoms_retired += len(graph.remove_group(victim, lazy=lazy))
            del live[victim]
        else:
            size = max(2, round(n_hosts * 0.75 / rng.randint(1, n_groups)))
            members = set(rng.sample(range(n_hosts), size))
            atoms_created += len(graph.add_group(next_id, members))
            live[next_id] = members
            next_id += 1
        graph.validate()
        max_atoms = max(max_atoms, len(graph.atoms))
    retired_backlog = len(graph.retired)
    graph.compact()
    graph.validate()
    return {
        "operations": operations,
        "atoms_created": atoms_created,
        "atoms_retired": atoms_retired,
        "retired_backlog_at_end": retired_backlog,
        "max_atoms_alive": max_atoms,
        "final_groups": len(graph.groups()),
    }


def render_churn(lazy_eager):
    lazy, eager = lazy_eager
    return format_table(
        ["metric", "lazy", "eager"],
        [(k, lazy[k], eager[k]) for k in sorted(lazy)],
        title=f"A3: sequencing-graph churn over {lazy['operations']} membership ops",
    )


#: A3b's campaign: sustained join/leave churn (40 membership events, a
#: workload size) applied through epoch-fenced switches on live fabrics,
#: publishes in flight at every cutover.  Fault injection is off, so the
#: drain cost is the reconfiguration's own, not failover's.
ONLINE_CHURN = CampaignConfig(
    hosts=48,
    groups=12,
    events=120,
    churn_events=40,
    switches=6,
    seed=2,
    horizon=500.0,
    loss_rate=0.0,
    node_crashes=0,
    host_crashes=0,
    link_outages=0,
    loss_windows=0,
    delay_spikes=0,
    permanent_crash=False,
    mid_switch_crash=False,
)


def render_online_churn(report):
    rows = [
        (
            e["epoch"],
            e["groups"],
            e["published"],
            e["delivered"],
            e["switch"]["drain_events"] if e["switch"] else "-",
            e["switch"]["drain_attempts"] if e["switch"] else "-",
        )
        for e in report["epochs"]
    ]
    return format_table(
        ["epoch", "groups", "published", "delivered", "drain_events",
         "drain_attempts"],
        rows,
        title=(
            f"A3b: online epoch-fenced churn — {ONLINE_CHURN.churn_events} "
            f"membership events over {ONLINE_CHURN.switches} switches, "
            "traffic in flight"
        ),
    )


# ---------------------------------------------------------------------------
# A4 — placement ablation: Section 3.4 heuristic vs random scattering.
#
# "Randomly scattering sequencing atoms throughout the network would lead
# to poor performance: because messages must traverse the path of
# sequencing atoms for the group, many needless network hops would
# result."  The same workload runs over the two-step co-location +
# neighbor-walk machine assignment and over one-atom-per-node random
# placement.
# ---------------------------------------------------------------------------

PLACEMENT_GROUPS = 16


def run_ablation(env, seed=0):
    snapshot = zipf_membership(env.n_hosts, PLACEMENT_GROUPS, rng=random.Random(seed))
    results = {}
    fabrics = {}
    for mode in ("heuristic", "random"):
        membership = env.membership_from(snapshot)
        graph = SequencingGraph.build(snapshot, rng=random.Random(seed))
        placement = (
            None
            if mode == "heuristic"
            else random_placement(graph, env.topology, rng=random.Random(seed))
        )
        fabric = OrderingFabric(
            membership,
            env.hosts,
            env.topology,
            env.routing,
            seed=seed,
            graph=graph,
            placement=placement,
            trace=False,
        )
        env.run_one_message_per_membership(fabric)
        assert fabric.pending_messages() == {}
        stretch = sorted(latency_stretch_by_destination(fabric).values())
        results[mode] = stretch
        fabrics[mode] = fabric
    return results, fabrics


def render_ablation(results_fabrics):
    results, _fabrics = results_fabrics
    rows = [
        (
            mode,
            percentile(values, 50),
            percentile(values, 90),
            max(values),
        )
        for mode, values in results.items()
    ]
    return format_table(
        ["placement", "p50_stretch", "p90_stretch", "max_stretch"],
        rows,
        title=f"A4: placement ablation, 128 hosts, {PLACEMENT_GROUPS} Zipf groups",
    )


# ---------------------------------------------------------------------------
# A5 — saturation throughput: sequencing atoms vs the central sequencer.
#
# A centralized coordinator processes every message, so system throughput
# is capped by one machine, while sequencing atoms split the ordering work
# so "the maximum message load is limited by receivers".  With a
# per-message service time of ``SERVICE_MS`` at each sequencing machine,
# the coordinator saturates at ``1000/SERVICE_MS`` msg/s.
# ---------------------------------------------------------------------------

SERVICE_MS = 1.0
THROUGHPUT_GROUPS = 16
DURATION_MS = 2_000.0
#: offered loads in messages/second; the coordinator's capacity is 1000/s
OFFERED_LOADS = (400, 800, 1600, 3200)


def _schedule_publishes(fabric, snapshot, rate_per_s, duration_ms, seed):
    """Schedule an open-loop arrival process of group-member publishes."""
    rng = random.Random(seed)
    groups = sorted(snapshot)
    interval = 1000.0 / rate_per_s
    t = 0.0
    count = 0
    while t < duration_ms:
        group = rng.choice(groups)
        sender = rng.choice(sorted(snapshot[group]))
        fabric.sim.schedule(t, fabric.publish, sender, group, None)
        t += interval
        count += 1
    return count


def run_throughput(env, seed=0):
    snapshot = zipf_membership(env.n_hosts, THROUGHPUT_GROUPS, rng=random.Random(seed))
    rows = []
    for rate in OFFERED_LOADS:
        ours = env.build_fabric(
            env.membership_from(snapshot),
            seed=seed,
            trace=False,
            service_time=SERVICE_MS,
        )
        central = CentralSequencerFabric(
            env.membership_from(snapshot),
            env.hosts,
            env.routing,
            trace=False,
            service_time=SERVICE_MS,
        )
        sent = _schedule_publishes(ours, snapshot, rate, DURATION_MS, seed)
        _schedule_publishes(central, snapshot, rate, DURATION_MS, seed)
        ours.run()
        central.run()
        max_queue = max(
            p.queue_high_water for p in ours.node_processes.values()
        )
        rows.append(
            (
                rate,
                sent,
                _mean_latency(ours, env.n_hosts),
                _mean_latency(central, env.n_hosts),
                max_queue,
                central.coordinator.queue_high_water,
            )
        )
    return rows


def render_throughput(rows):
    return format_table(
        [
            "offered_msg_per_s",
            "sent",
            "latency_ours_ms",
            "latency_central_ms",
            "max_queue_ours",
            "queue_central",
        ],
        rows,
        title=(
            f"A5: throughput with {SERVICE_MS}ms sequencer service time "
            f"(coordinator capacity = {int(1000 / SERVICE_MS)} msg/s)"
        ),
    )


# ---------------------------------------------------------------------------
# A6 — failure injection: sequencer downtime under sustained traffic.
#
# A crashed sequencing node stalls only the groups whose paths cross it,
# and the Section 3.1 retransmission buffers mask the downtime (no loss,
# no reordering).  Sustained traffic runs while the busiest node is down
# for a window; the latency penalty stays with the affected groups.
# ---------------------------------------------------------------------------

FAILURE_GROUPS = 12
FAILURE_MESSAGES = 200
DOWNTIME_MS = 50.0


def run_failure(env, seed=0):
    snapshot = zipf_membership(env.n_hosts, FAILURE_GROUPS, rng=random.Random(seed))
    results = {}
    for crash in (False, True):
        membership = env.membership_from(snapshot)
        fabric = env.build_fabric(
            membership, seed=seed, trace=False, retransmit_timeout=5.0
        )
        node = max(
            fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
        )
        affected_groups = {
            g for runtime in node.atom_runtimes.values() for g in runtime.next_atom
        }
        if crash:
            fabric.sim.schedule(5.0, node.crash, DOWNTIME_MS)
        rng = random.Random(seed + 1)
        groups = sorted(snapshot)
        t = 0.0
        for _ in range(FAILURE_MESSAGES):
            group = rng.choice(groups)
            sender = rng.choice(sorted(snapshot[group]))
            fabric.sim.schedule(t, fabric.publish, sender, group, None)
            t += 0.5
        fabric.run()
        assert fabric.pending_messages() == {}

        affected_latency, affected_count = 0.0, 0
        unaffected_latency, unaffected_count = 0.0, 0
        delivered = 0
        for host in range(env.n_hosts):
            for record in fabric.delivered(host):
                delivered += 1
                latency = record.time - record.publish_time
                if record.stamp.group in affected_groups:
                    affected_latency += latency
                    affected_count += 1
                else:
                    unaffected_latency += latency
                    unaffected_count += 1
        results[crash] = {
            "delivered": delivered,
            "affected_mean_ms": affected_latency / max(affected_count, 1),
            "unaffected_mean_ms": unaffected_latency / max(unaffected_count, 1),
            "dropped_at_node": node.packets_dropped_while_down,
        }
    return results


def render_failure(results):
    healthy, crashed = results[False], results[True]
    return format_table(
        ["metric", "healthy", "with_crash"],
        [(k, healthy[k], crashed[k]) for k in sorted(healthy)],
        title=(
            f"A6: busiest sequencing node down {DOWNTIME_MS:.0f}ms during "
            f"{FAILURE_MESSAGES} messages"
        ),
    )


# ---------------------------------------------------------------------------
# A8 — topology sensitivity: latency shapes on a flat Waxman underlay.
#
# The paper evaluates on a transit–stub topology.  Re-running the Figure 3
# workload on GT-ITM's *other* family checks that the headline shapes are
# properties of the protocol, not of the transit–stub delay hierarchy.
# ---------------------------------------------------------------------------

WAXMAN_HOSTS = 128
WAXMAN_GROUP_COUNTS = (8, 64)


def run_waxman(seed=0):
    topology = generate_waxman(WaxmanParams(n_nodes=400), seed=seed)
    routing = RoutingTable(topology)
    hosts = attach_hosts(topology, WAXMAN_HOSTS, rng=random.Random(seed))
    rows = []
    rdp_gap = None
    for n_groups in WAXMAN_GROUP_COUNTS:
        snapshot = zipf_membership(
            WAXMAN_HOSTS, n_groups, rng=random.Random(seed + n_groups)
        )
        membership = GroupMembership()
        for group, members in sorted(snapshot.items()):
            membership.create_group(members, group_id=group)
        fabric = OrderingFabric(membership, hosts, topology, routing, trace=False)
        for group in membership.groups():
            for member in sorted(membership.members(group)):
                fabric.publish(member, group)
                fabric.run()
        assert fabric.pending_messages() == {}
        stretch = sorted(latency_stretch_by_destination(fabric).values())
        rows.append(
            (
                n_groups,
                percentile(stretch, 50),
                percentile(stretch, 90),
                max(stretch),
            )
        )
        if n_groups == 64:
            points = rdp_by_pair(fabric)
            points.sort()
            quarter = max(1, len(points) // 4)
            close = max(r for _, r in points[:quarter])
            far = max(r for _, r in points[-quarter:])
            rdp_gap = (close, far)
    return rows, rdp_gap


def render_waxman(rows_gap):
    rows, _rdp_gap = rows_gap
    return format_table(
        ["groups", "p50_stretch", "p90_stretch", "max_stretch"],
        rows,
        title="A8: Figure 3 workload on a flat Waxman topology (128 hosts)",
    )


# ---------------------------------------------------------------------------
# A9 — chain-ordering ablation (the main C1/C2 design choice).
#
# The chain-per-cluster construction leaves the *order* of atoms on each
# chain open.  DESIGN.md §4.1 claims the two-pass ordering (greedy group
# affinity, then co-location-aware block reordering) keeps pass-through
# overhead and machine hops low.  Each stage on the Figure 3 workload:
#
# * ``none``          — atoms sorted by id (no affinity ordering),
# * ``greedy``        — affinity ordering only,
# * ``greedy+blocks`` — affinity ordering plus block reordering (the
#   default pipeline via ``place``).
# ---------------------------------------------------------------------------

ORDERING_GROUPS = 32


def run_ordering_ablation(env, seed=0):
    snapshot = zipf_membership(env.n_hosts, ORDERING_GROUPS, rng=random.Random(seed))
    host_router = env.host_router
    results = {}
    for mode in ("none", "greedy", "greedy+blocks"):
        optimize = "none" if mode == "none" else "greedy"
        graph = SequencingGraph.build(
            snapshot, rng=random.Random(seed), optimize=optimize
        )
        if mode == "greedy+blocks":
            placement = place(
                graph, host_router, env.topology, env.routing, rng=random.Random(seed)
            )
        else:
            nodes = co_locate_atoms(graph, rng=random.Random(seed))
            placement = assign_machines(
                nodes, graph, host_router, env.topology, env.routing,
                rng=random.Random(seed),
            )
        membership = env.membership_from(snapshot)
        fabric = OrderingFabric(
            membership,
            env.hosts,
            env.topology,
            env.routing,
            seed=seed,
            graph=graph,
            placement=placement,
            trace=False,
        )
        env.run_one_message_per_membership(fabric)
        assert fabric.pending_messages() == {}
        stretch = sorted(latency_stretch_by_destination(fabric).values())
        pass_through = sum(
            len(graph.pass_through_atoms(g)) for g in graph.groups()
        )
        results[mode] = {
            "pass_through_atoms": pass_through,
            "p50_stretch": percentile(stretch, 50),
            "p90_stretch": percentile(stretch, 90),
        }
    return results


def render_ordering_ablation(results):
    return format_table(
        ["ordering", "pass_through_atoms", "p50_stretch", "p90_stretch"],
        [
            (mode, row["pass_through_atoms"], row["p50_stretch"], row["p90_stretch"])
            for mode, row in results.items()
        ],
        title=f"A9: chain-ordering ablation, 128 hosts, {ORDERING_GROUPS} Zipf groups",
    )
