"""Per-layer attribution: where host time goes, and what each layer did.

A layer is a directory (or top-level module) under ``src/repro``.  Two
sources feed the per-layer metrics:

* the **profiled run** (stdlib ``cProfile``, started from the runner
  around the timed section, so it explains ``wall_norm``):
  ``L.self_share`` is the share of profiled self time spent in layer L,
  ``L.calls`` the exact number of calls into its functions.  Self time
  of built-ins and the standard library has no layer of its own, so it
  is charged to the layer that called it, through the profile's caller
  table (``sha256`` time lands on ``crypto``, ``heapq`` on ``sim``).
  This is the traced run of the choosing-metrics guide: a layer's self
  time is its span minus its children by construction.
* the **tracer-on run** (the program's own ``repro.observability``
  tracer): simulated stage spans, counters and histograms, read off its
  ``TraceReport``; plus public counters the workload collected.

Names that no longer exist in the program read 0 rather than failing:
the catalogue must survive the refactors it is there to judge.
"""

from __future__ import annotations

import os
import pstats
import statistics

LAYERS = (
    "sim", "host", "guest", "trie", "crypto", "encoding", "ibc",
    "lightclient", "relayer", "counterparty", "validators", "fabric",
    "state", "chaos", "workload", "observability", "accountability",
    "fisherman",
)
#: Everything else that ran: experiment drivers, metrics helpers, the
#: deployment builder and the benchmark's own probes.
OTHER = "other"

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None for built-ins and the
    standard library (whose time is charged to their callers)."""
    index = filename.rfind(_MARKER)
    if index < 0:
        return OTHER if os.sep + "bench" + os.sep in filename else None
    head = filename[index + len(_MARKER):].split(os.sep, 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in LAYERS else OTHER


def attribute(stats: pstats.Stats) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per layer from one profile."""
    table = stats.stats  # type: ignore[attr-defined]
    mixes: dict[tuple, dict[str, float]] = {}

    def mix_of(func: tuple, trail: frozenset) -> dict[str, float]:
        """Which layers a function's time belongs to, as weights."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in mixes:
            return mixes[func]
        callers = table[func][4] if func in table else {}
        weighted: dict[str, float] = {}
        total = 0.0
        for caller, edge in callers.items():
            if caller in trail:
                continue  # recursion inside the standard library
            # edge = (calls, primitive calls, self time, cumulative time)
            weight = edge[2] if edge[2] > 0 else 1e-12 * edge[0]
            for name, share in mix_of(caller, trail | {func}).items():
                weighted[name] = weighted.get(name, 0.0) + weight * share
            total += weight
        result = ({name: value / total for name, value in weighted.items()}
                  if total > 0 else {OTHER: 1.0})
        if not trail:
            mixes[func] = result
        return result

    seconds = {name: 0.0 for name in LAYERS + (OTHER,)}
    calls = {name: 0 for name in LAYERS + (OTHER,)}
    for func, (_primitive, total_calls, self_time, _cum, _callers) in table.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += self_time
            calls[layer] += total_calls
        else:
            for name, share in mix_of(func, frozenset()).items():
                seconds[name] += self_time * share
    return seconds, calls


def named_calls(stats: pstats.Stats, directory: str, names: tuple[str, ...],
                skip_files: tuple[str, ...] = ()) -> int:
    """Calls of functions called ``names`` in files under
    ``src/repro/<directory>`` (0 if none exist any more)."""
    total = 0
    for (filename, _line, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        if (name in names and layer_of(filename) == directory
                and os.path.basename(filename) not in skip_files):
            total += entry[1]
    return total


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(*, stats: pstats.Stats, trace, outcome, read_plan,
                      simulated_seconds: float, tracer_overhead: float,
                      profile_overhead: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one workload."""
    seconds, calls = attribute(stats)
    total = sum(seconds.values())
    out: dict[str, float] = {}
    for name in LAYERS + (OTHER,):
        out[f"{name}.self_share"] = seconds[name] / total if total else 0.0
        out[f"{name}.calls"] = calls[name]

    counter = trace.counter
    durations = trace.durations

    def hist(name: str) -> list[float]:
        return trace.histogram(name)

    counters = outcome.counters
    sim = outcome.sim

    out.update({
        "sim.events_dispatched": outcome.events_dispatched,
        "sim.events_scheduled": counter("sim.events.scheduled"),
        "sim.events_cancelled": counter("sim.events.cancelled"),
        "sim.events_per_sim_s": (outcome.events_dispatched / simulated_seconds
                                 if simulated_seconds else 0.0),

        "host.blocks": counter("host.blocks"),
        "host.tx_executed": counter("host.tx.executed"),
        "host.tx_failed": counter("host.tx.failed"),
        "host.bundles_deferred": counter("host.bundles.deferred"),
        "host.mempool_wait_p50_s": _p50(durations("host.mempool")),
        "host.cu_consumed_total": sum(hist("host.cu_consumed")),
        "host.fee_paid_lamports": sum(hist("host.fee_paid")),

        "guest.block_wait_p50_s": _p50(durations("packet.block_wait")),
        "guest.quorum_wait_p50_s": _p50(durations("packet.quorum_wait")),
        "guest.block_finality_p50_s": _p50(durations("guest.block")),
        "guest.blocks_finalised": counter("guest.blocks.finalised"),
        "guest.signatures": counter("guest.signatures"),
        "guest.signatures_after_quorum": counter("guest.signatures.after_quorum"),
        "guest.acks_sealed": counter("guest.acks.sealed"),
        "guest.lc_updates": counter("guest.lc.updates"),
        "guest.send_latency_p50_s": sim["send_latency_p50_s"],
        "guest.send_latency_p95_s": sim["send_latency_p95_s"],
        "guest.fig2_send_latency_p50_s": sim["fig2_send_latency_p50_s"],

        "trie.sets": named_calls(stats, "trie", ("set",), ("store.py",)),
        "trie.deletes": named_calls(stats, "trie", ("delete",), ("store.py",)),
        "trie.seals": named_calls(stats, "trie", ("seal",), ("store.py",)),
        "trie.proofs": named_calls(stats, "trie", ("prove", "prove_absence"),
                                   ("store.py",)),
        "trie.proof_bytes_p50": _p50(read_plan.proof_bytes),
        "trie.live_nodes_final": counters.get("trie.live_nodes_final", 0),
        "trie.sealed_final": counters.get("trie.sealed_final", 0),

        # keys.py holds the Keypair conveniences that call the scheme:
        # counting both would count every signature twice.
        "crypto.sign_calls": named_calls(stats, "crypto", ("sign",), ("keys.py",)),
        "crypto.verify_calls": named_calls(stats, "crypto", ("verify",), ("keys.py",)),
        "crypto.verify_batch_calls": named_calls(
            stats, "crypto", ("verify_batch",), ("keys.py",)),
        "crypto.hash_calls": named_calls(
            stats, "crypto", ("hash_bytes", "hash_concat")),

        "lightclient.updates": counter("guest.lc.updates"),
        "lightclient.verified_signers_mean": _mean(hist("guest.lc.verified_signers")),
        "lightclient.plan_txs_mean": _mean(hist("lc.plan.transactions")),
        "lightclient.plan_sig_batches_mean": _mean(hist("lc.plan.sig_batches")),
        "lightclient.staged_bytes_mean": _mean(hist("lc.plan.staged_bytes")),

        "relayer.duplicate_deliveries": counter("relay.duplicate_deliveries"),
        "relayer.batch_requeued": counter("relay.batch.requeued"),
        "relayer.e2e_to_guest_p50_s": sim["e2e_to_guest_p50_s"],
        "relayer.e2e_to_counterparty_p50_s": sim["e2e_to_counterparty_p50_s"],
        "relayer.relay_p50_s": _p50(durations("packet.relay")),
        "relayer.deliver_to_guest_p50_s": _p50(durations("packet.deliver_to_guest")),
        "relayer.lc_update_p50_s": _p50(durations("relay.lc_update")),
        "relayer.cranker_polls": counter("cranker.polls"),
        "relayer.cranker_cranks": counter("cranker.cranks"),
        "relayer.cranker_races": counter("cranker.races"),

        "fabric.per_hop_p50_s": _p50(durations("fabric.hop")),

        "state.live_bytes_mean": sim["live_bytes_mean"],
        "state.live_bytes_final": sim["live_bytes_final"],

        "chaos.service_gap_max_s": sim["service_gap_max_s"],
        "workload.e2e_latency_p99_s": sim["e2e_latency_p99_s"],

        "observability.tracer_overhead_ratio": tracer_overhead,
        "observability.profile_overhead_ratio": profile_overhead,
        "observability.spans_recorded": len(trace.spans),
        "observability.open_spans_final": len(trace.open_spans()),
    })
    # Public counters the workload read off the world (0 where a
    # workload has no such layer: no fabric on a single link).
    for name in (
        "ibc.packets_sent", "ibc.packets_received", "ibc.packets_acknowledged",
        "ibc.packets_timed_out",
        "relayer.to_guest", "relayer.to_counterparty", "relayer.lc_updates",
        "relayer.retries", "relayer.redeliveries",
        "relayer.delivery_txs_per_packet",
        "fabric.forwards_started", "fabric.forwards_settled", "fabric.unwinds",
        "fabric.establish_sim_s_per_link",
        "state.seals_offered", "state.seals_drained",
        "state.pending_seals_final", "state.rent_paid_lamports",
        "chaos.faults_armed", "chaos.faults_recovered", "chaos.recovery_p50_s",
        "accountability.slashes", "fisherman.reports",
        "workload.sent", "workload.committed", "workload.delivered",
        "workload.send_failures",
    ):
        out[name] = counters.get(name, 0)
    return out
