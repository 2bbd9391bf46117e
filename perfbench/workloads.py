"""The two workloads. Each drives the program through its public API.

Every workload builds its inputs from the seed, sets its engine up
several times (the median is ``setup_s``), then runs whole rounds of one
fixed operation schedule in a closed loop until ``seconds`` have passed.
Outputs are checked against :mod:`oracle`. The first response to each
operation is compared with the oracle's; every later response to the
same operation must equal it byte for byte, since the program is
deterministic.

With ``trace`` the workload measures per-layer numbers instead: half the
time runs untraced, half with the program's observability switched on
(the qps difference is the tracing overhead), then the query pipeline is
replayed call by call through each layer's public functions.
"""

from __future__ import annotations

import asyncio
import shutil
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import (
    BatchPlanner,
    Engine,
    EngineConfig,
    PQFastScanner,
    ProductQuantizer,
    SyntheticSIFT,
    merge_partials,
    observability_session,
)
from repro.search import scan_partition_batch
from repro.serve import MicroBatchServer
from repro.simd import fastscan_kernel, naive_kernel

from common import HostSpeed, K, Yardstick, median, peak_rss_mb, percentile, tree_bytes
from oracle import ADCOracle, exact_knn, recall_hits, topk_mismatch

#: The paper's simulated CPU.
PLATFORM = "haswell"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Whole rounds every run measures at least.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "recall_at_10": "fraction",
    "sim_cycles_per_code": "cycles/code",
    "index_bytes_per_vector": "B/vector",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serve.queue_wait_ms": "ms",
    "serve.flush_ms": "ms",
    "serve.batch_size": "requests",
    "serve.latency_p99_ms": "ms",
    "ivf.route_us_per_query": "us",
    "pq.tables_us_per_query": "us",
    "pq.train_s": "s",
    "pq.encode_us_per_vector": "us",
    "search.plan_us_per_call": "us",
    "search.merge_us_per_query": "us",
    "core.fastpq_ns_per_code": "ns",
    "core.fastpq_pruned_fraction": "fraction",
    "core.fastpq_prepare_ms": "ms",
    "scan.naive_ns_per_code": "ns",
    "shard.scatter_ms_per_batch": "ms",
    "shard.slowest_shard_ms": "ms",
    "shard.gather_overlap_ms": "ms",
    "parallel.ipc_ms_per_batch": "ms",
    "parallel.pool_spinups": "count",
    "delta.add_us_per_row": "us",
    "delta.delete_us_per_id": "us",
    "delta.dirty_read_ms": "ms",
    "delta.clean_read_ms": "ms",
    "delta.compact_encode_s": "s",
    "delta.compact_rest_s": "s",
    "delta.write_rows_per_s": "1/s",
    "delta.compact_s": "s",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "simd.instructions_per_code": "count",
    "simd.l1_loads_per_code": "count",
    "simd.ipc": "instr/cycle",
    "trace.qps_overhead_frac": "fraction",
    "host.yardstick_ms": "ms",
    "host.unscaled_qps": "1/s",
    "host.unscaled_latency_p50_ms": "ms",
}


@dataclass
class Outcome:
    """What one run reports: counts, correctness findings and metrics."""

    #: Yardstick samples taken around set-ups and between rounds.
    host: HostSpeed
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: End-to-end times as measured, before host-speed scaling.
    raw: dict[str, float] = field(default_factory=dict)

    @classmethod
    def timed_by(cls, yardstick: Yardstick) -> "Outcome":
        return cls(HostSpeed(yardstick))

    def report_times(self, n_queries, setups, round_times, round_latencies) -> None:
        """Set ``setup_s``, ``qps`` and ``latency_p50_ms``.

        Medians over set-ups and over rounds (``latency_p50_ms`` is the
        median over rounds of each round's median call latency), scaled
        by :class:`HostSpeed` for the drift of the shared host's speed,
        by the median of every yardstick sample of the run.
        """
        self.raw = {
            "setup_s": median(setups),
            **_round_stats(n_queries, round_times, round_latencies),
            "yardstick_ms": self.host.yardstick_s * 1e3,
        }
        self.metrics["setup_s"] = self.host.scale(self.raw["setup_s"])
        self.metrics["qps"] = n_queries / self.host.scale(median(round_times))
        self.metrics["latency_p50_ms"] = self.host.scale(self.raw["latency_p50_ms"])

    def expect(self, problem: str | None, where: str) -> None:
        if problem is not None and len(self.errors) < 20:
            self.errors.append(f"{where}: {problem}")


# -- shared pieces ---------------------------------------------------------------


def _round_stats(n_queries, round_times, round_latencies) -> dict[str, float]:
    """Unscaled ``qps`` and ``latency_p50_ms`` of a run's rounds."""
    return {
        "qps": n_queries / median(round_times),
        "latency_p50_ms": median([median(lat) for lat in round_latencies]) * 1e3,
    }


def _report_unscaled(out: Outcome, n_queries, round_times, round_latencies) -> None:
    """The untraced rounds' throughput and latency as measured, unscaled."""
    raw = _round_stats(n_queries, round_times, round_latencies)
    out.metrics["host.unscaled_qps"] = raw["qps"]
    out.metrics["host.unscaled_latency_p50_ms"] = raw["latency_p50_ms"]


#: The corpus is fixed, as a deployment's is; the seed draws the traffic
#: (queries, added rows, deleted ids) from the same SIFT-like mixture.
#: With a seed-drawn corpus, the 8-cell k-means split itself varied with
#: the seed and moved qps by a fifth between seeds.
CORPUS_SEED = 0
#: Vectors the seed draws queries and added rows from.
POOL = 16_384


def _inputs(seed: int, n_base: int, n_queries: int, n_adds: int = 0):
    """(base, queries, adds): a fixed corpus and seed-drawn traffic."""
    world = SyntheticSIFT(seed=CORPUS_SEED)
    rng = np.random.default_rng(seed)
    queries = world.generate(POOL, split="query")[rng.choice(POOL, n_queries, replace=False)]
    adds = None
    if n_adds:
        adds = world.generate(POOL, split="learn")[rng.choice(POOL, n_adds, replace=False)]
    return world.generate(n_base, split="base"), queries, adds


def _kernel_queries(n: int) -> np.ndarray:
    """The fixed queries the simulated kernels run on.

    The kernels' cycles per code vary by a factor of two from query to
    query (pruning power differs), so a seed-drawn sample of the few
    queries a run can afford to simulate moved ``sim_cycles_per_code``
    by 13% between seeds. On a fixed sample it is a pure function of the
    program.
    """
    return SyntheticSIFT(seed=CORPUS_SEED).generate(n, split="query")


def _oracle_for(index) -> ADCOracle:
    return ADCOracle(
        index.coarse.codebook,
        index.pq.codebooks,
        [(p.codes, p.ids) for p in index.partitions],
    )


def _same(a, b) -> bool:
    return np.array_equal(a.ids, b.ids) and np.array_equal(a.distances, b.distances)


def _check_responses(out: Outcome, responses, oracle, queries, nprobe, label):
    """Check ``responses[round][query]`` (SearchResult or None on failure).

    The first round is checked against the oracle; later rounds must
    repeat it byte for byte.
    """
    probes = oracle.route(queries, nprobe)
    first = responses[0]
    for qi, result in enumerate(first):
        if result is None:
            continue
        if tuple(result.probed) != tuple(int(p) for p in probes[qi]):
            out.expect("probed cells differ from the oracle's routing", f"{label} q{qi}")
            continue
        cand_d, cand_i = oracle.candidates(queries[qi], probes[qi])
        out.expect(
            topk_mismatch(result.ids, result.distances, cand_d, cand_i, K),
            f"{label} q{qi}",
        )
    for r, row in enumerate(responses[1:], start=1):
        for qi, result in enumerate(row):
            if result is not None and first[qi] is not None and not _same(result, first[qi]):
                out.expect("differs from the first round's answer", f"{label} round {r} q{qi}")


def _recall(results, truth) -> float:
    """Recall of the answers; a failed query (None) counts as no hits."""
    hits = sum(recall_hits(res.ids, t) for res, t in zip(results, truth) if res is not None)
    return hits / float(truth.size)


def _replay(index, scanner, queries, batch, nprobe):
    """Run the query pipeline call by call; returns (seconds, results, scans)."""
    spent: dict[str, float] = defaultdict(float)
    planner = BatchPlanner(index)
    results, scans = [], []
    for start in range(0, len(queries), batch):
        qb = queries[start : start + batch]
        t0 = perf_counter()
        index.route_batch(qb, nprobe)
        spent["route"] += perf_counter() - t0
        t0 = perf_counter()
        plan = planner.plan(qb, K, nprobe)
        spent["plan"] += perf_counter() - t0
        spent["plan_calls"] += 1
        partials = [[None] * nprobe for _ in range(len(qb))]
        for job in plan.jobs:
            part = index.partitions[job.partition_id]
            t0 = perf_counter()
            tables = index.distance_tables_for_batch(qb[job.query_rows], job.partition_id)
            spent["tables"] += perf_counter() - t0
            t0 = perf_counter()
            got = scan_partition_batch(scanner, tables, part, K)
            spent["scan"] += perf_counter() - t0
            for row, pos, res in zip(job.query_rows, job.probe_positions, got):
                partials[row][pos] = res
                scans.append(res)
        t0 = perf_counter()
        results.extend(merge_partials(plan, partials))
        spent["merge"] += perf_counter() - t0
    return spent, results, scans


def _replay_layers(out, index, scanner, queries, batch, nprobe, reference, label):
    """Per-layer timings from a replay that must equal ``reference``."""
    spent, results, scans = _replay(index, scanner, queries, batch, nprobe)
    for qi, (got, want) in enumerate(zip(results, reference)):
        if want is not None and not _same(got, want):
            out.expect("replay differs from the untraced answer", f"{label} q{qi}")
    n = len(queries)
    m = out.metrics
    m["ivf.route_us_per_query"] = spent["route"] / n * 1e6
    m["search.plan_us_per_call"] = spent["plan"] / spent["plan_calls"] * 1e6
    m["pq.tables_us_per_query"] = spent["tables"] / n * 1e6
    m["search.merge_us_per_query"] = spent["merge"] / n * 1e6
    codes = sum(s.n_scanned for s in scans)
    return spent["scan"] / max(codes, 1) * 1e9, scans


def _pq_layers(out, base, config, index) -> None:
    t0 = perf_counter()
    ProductQuantizer(
        m=config.m, bits=config.bits, max_iter=config.max_iter, seed=config.seed
    ).fit(base)
    out.metrics["pq.train_s"] = perf_counter() - t0
    sample = base[:4000]
    residuals = sample - index.coarse.decode(index.coarse.encode(sample))
    t0 = perf_counter()
    index.pq.encode(residuals)
    out.metrics["pq.encode_us_per_vector"] = (perf_counter() - t0) / len(sample) * 1e6


def _simd_layers(out, runs) -> None:
    cycles = sum(r.counters.cycles for r in runs)
    codes = sum(r.n_vectors for r in runs)
    instructions = sum(r.counters.instructions for r in runs)
    out.metrics["sim_cycles_per_code"] = cycles / codes
    out.metrics["simd.instructions_per_code"] = instructions / codes
    out.metrics["simd.l1_loads_per_code"] = sum(r.counters.l1_loads for r in runs) / codes
    out.metrics["simd.ipc"] = instructions / cycles


def _save_and_load(out, engine, path: Path, n_vectors: int, **load_kwargs) -> None:
    t0 = perf_counter()
    engine.save(path)
    out.metrics["persistence.save_s"] = perf_counter() - t0
    out.metrics["index_bytes_per_vector"] = tree_bytes(path) / n_vectors
    t0 = perf_counter()
    Engine.load(path, engine.config, **load_kwargs).close()
    out.metrics["persistence.load_s"] = perf_counter() - t0


def _batches(queries, size):
    return [queries[s : s + size] for s in range(0, len(queries), size)]


# -- batch-fastpq -----------------------------------------------------------------

BATCH_BASE = 12_000
BATCH_QUERIES = 512
BATCH_SIZE = 64
BATCH_KERNEL_QUERIES = 24


def _batch_rounds(engine, batches, seconds, out):
    """Closed loop of 64-query batches.

    Returns (round times, per-round call times, answers per round).
    """
    round_times, call_times, answers = [], [], []
    start = perf_counter()
    while len(round_times) < MIN_ROUNDS or perf_counter() - start < seconds:
        out.host.sample()
        answers_round, calls = [], []
        t_round = perf_counter()
        for qb in batches:
            out.attempted += len(qb)
            t0 = perf_counter()
            try:
                got = engine.search(qb, k=K)
            except Exception:  # counted, then the run goes on
                out.failed += len(qb)
                got = [None] * len(qb)
            calls.append(perf_counter() - t0)
            answers_round.extend(got)
        round_times.append(perf_counter() - t_round)
        call_times.append(calls)
        answers.append(answers_round)
    return round_times, call_times, answers


def batch_fastpq(
    seed: int, seconds: float, trace: bool, work: Path, yardstick: Yardstick
) -> Outcome:
    out = Outcome.timed_by(yardstick)
    base, queries, _ = _inputs(seed, BATCH_BASE, BATCH_QUERIES)
    config = EngineConfig()
    batches = _batches(queries, BATCH_SIZE)

    setups, engine = [], None
    for _ in range(1 if trace else SETUPS):
        if engine is not None:
            engine.close()
        out.host.sample()
        t0 = perf_counter()
        engine = Engine.build(base, config)
        for qb in batches:
            engine.search(qb, k=K)
        setups.append(perf_counter() - t0)
        out.host.sample()
    m = out.metrics
    try:
        if trace:
            rounds, calls, answers = _batch_rounds(engine, batches, seconds / 2, out)
            _report_unscaled(out, BATCH_QUERIES, rounds, calls)
            with observability_session():
                traced, _, _ = _batch_rounds(engine, batches, seconds / 2, out)
            m["trace.qps_overhead_frac"] = 1.0 - median(rounds) / median(traced)
        else:
            rounds, calls, answers = _batch_rounds(engine, batches, seconds, out)
            out.report_times(BATCH_QUERIES, setups, rounds, calls)
        index = engine.index
        oracle = _oracle_for(index)
        _check_responses(out, answers, oracle, queries, config.nprobe, "batch")
        m["recall_at_10"] = _recall(answers[0], exact_knn(base, np.arange(len(base)), queries, K))

        fast = PQFastScanner(index.pq, keep=config.keep)
        sim_queries = _kernel_queries(BATCH_KERNEL_QUERIES)
        runs, probes = [], oracle.route(sim_queries, 1)[:, 0]
        for q, cell in zip(sim_queries, probes):
            part = index.partitions[int(cell)]
            tables = fast.assignment.remap_tables(index.distance_tables_for(q, int(cell)))
            run = fastscan_kernel(PLATFORM, tables, fast.prepare(part), topk=K, keep=config.keep)
            cand_d, cand_i = oracle.candidates(q, [cell])
            out.expect(
                topk_mismatch(run.topk_ids, run.topk_distances, cand_d, cand_i, K),
                f"fastscan kernel cell {int(cell)}",
            )
            runs.append(run)
        _simd_layers(out, runs)
        _save_and_load(out, engine, work / "batch.npz", len(base))

        if trace:
            _pq_layers(out, base, config, index)
            scanner = config.scanner_factory(index.pq)()
            t0 = perf_counter()
            for part in index.partitions:
                scanner.prepare(part)
            m["core.fastpq_prepare_ms"] = (perf_counter() - t0) / len(index.partitions) * 1e3
            _replay(index, scanner, queries, BATCH_SIZE, config.nprobe)  # fills the cache
            ns, scans = _replay_layers(
                out, index, scanner, queries, BATCH_SIZE, config.nprobe, answers[0], "replay"
            )
            m["core.fastpq_ns_per_code"] = ns
            m["core.fastpq_pruned_fraction"] = sum(s.n_pruned for s in scans) / sum(
                s.n_scanned for s in scans
            )
            _serve_layers(out, engine, queries[:SERVED_QUERIES], answers[0])
    finally:
        engine.close()
    m["peak_rss_mb"] = peak_rss_mb()
    m["host.yardstick_ms"] = out.host.yardstick_s * 1e3
    return out


# -- served phase of the traced batch-fastpq run -----------------------------------

#: Queries of one served round, sent as single-query requests.
SERVED_QUERIES = 128
SERVE_CLIENTS = 2


async def _serve_rounds(engine, queries, seconds, out):
    """Two closed-loop clients, one single-query request at a time each.

    Every round serves through a server of its own, so the yardstick is
    sampled while no server is alive.

    Returns (round times, per-round client latencies, served results
    per round).
    """
    round_times, latencies, served = [], [], []
    start = perf_counter()
    while len(round_times) < MIN_ROUNDS or perf_counter() - start < seconds:
        out.host.sample()
        record, lat = [None] * len(queries), []
        async with MicroBatchServer.for_engine(engine, k=K) as server:

            async def client(first: int) -> None:
                for qi in range(first, len(queries), SERVE_CLIENTS):
                    t0 = perf_counter()
                    try:
                        response = await server.search(queries[qi])
                    except Exception:  # counted as failed below
                        response = None
                    lat.append(perf_counter() - t0)
                    record[qi] = response if response is not None and response.ok else None

            t_round = perf_counter()
            await asyncio.gather(*(client(c) for c in range(SERVE_CLIENTS)))
            round_times.append(perf_counter() - t_round)
        latencies.append(lat)
        out.attempted += len(queries)
        out.failed += sum(r is None for r in record)
        served.append(record)
    return round_times, latencies, served


def _serve_layers(out, engine, queries, reference) -> None:
    """Serve ``queries`` through ``MicroBatchServer`` for the serve layer.

    Runs exactly :data:`MIN_ROUNDS` rounds; every served answer must
    equal the engine's batch answer in ``reference``.
    """
    _, lat, served = asyncio.run(_serve_rounds(engine, queries, 0.0, out))
    for r, row in enumerate(served):
        for qi, s in enumerate(row):
            if s is not None and not _same(s.result, reference[qi]):
                out.expect("served answer differs from the batch answer", f"round {r} q{qi}")
    flat = [s for row in served for s in row if s is not None]
    if not flat:
        return
    m = out.metrics
    m["serve.queue_wait_ms"] = median([s.queue_wait_s for s in flat]) * 1e3
    m["serve.flush_ms"] = median([s.latency_s - s.queue_wait_s for s in flat]) * 1e3
    m["serve.batch_size"] = float(np.mean([s.batch_size for s in flat]))
    m["serve.latency_p99_ms"] = percentile([x for r in lat for x in r], 99) * 1e3


# -- churn-sharded ----------------------------------------------------------------

CHURN_BASE = 16_000
CHURN_QUERIES = 256
CHURN_BATCH = 64
CHURN_ROUNDS = 8
CHURN_ADD = 100
CHURN_DELETE = 50
CHURN_COMPACT_EVERY = 4
CHURN_KERNEL_QUERIES = 2


def _churn_schedule(seed: int, n_base: int):
    """The fixed operation list of one pass: (kind, rows or batch, ids)."""
    rng = np.random.default_rng([seed, 2])
    live = np.arange(n_base, dtype=np.int64)
    ops, next_id, row = [], n_base, 0
    for r in range(CHURN_ROUNDS):
        ids = np.arange(next_id, next_id + CHURN_ADD, dtype=np.int64)
        ops.append(("add", slice(row, row + CHURN_ADD), ids))
        live = np.concatenate([live, ids])
        next_id += CHURN_ADD
        row += CHURN_ADD
        gone = np.sort(rng.choice(live, CHURN_DELETE, replace=False))
        ops.append(("delete", None, gone))
        live = live[~np.isin(live, gone)]
        batch = r % (CHURN_QUERIES // CHURN_BATCH)
        ops.append(("read", batch, None))
        if (r + 1) % CHURN_COMPACT_EVERY == 0:
            ops.append(("compact", None, None))
            ops.append(("reread", batch, None))
    return ops


def _churn_pass(engine, ops, adds, batches, out, detailed: bool):
    """Run one pass; returns per-op (kind, seconds, payload)."""
    log = []
    for kind, rows, ids in ops:
        out.attempted += 1
        t0 = perf_counter()
        try:
            if kind == "add":
                payload = engine.add(adds[rows], ids)
            elif kind == "delete":
                payload = engine.delete(ids)
            elif kind == "compact":
                payload = engine.compact()
            elif detailed:
                payload = engine.search_detailed(batches[rows], k=K)
            else:
                payload = engine.search(batches[rows], k=K)
        except Exception:  # counted, then the pass goes on
            out.failed += 1
            payload = None
        log.append((kind, perf_counter() - t0, payload))
    return log


def _check_churn(out, ops, log, oracle, adds, batches, base, nprobe):
    """Replay the schedule on the oracle and check pass ``log`` against it.

    Returns (recall hits, recall total).
    """
    # Row i of ``vectors`` holds id i: base ids come first, added ids
    # continue from len(base) in schedule order.
    vectors = np.concatenate([base, adds])
    live = np.zeros(len(vectors), dtype=bool)
    live[: len(base)] = True
    hits = total = 0
    last_read, generation = None, 0
    for (kind, rows, ids), (_, _, payload) in zip(ops, log):
        if kind == "add":
            oracle.add(adds[rows], ids)
            live[ids] = True
        elif kind == "delete":
            oracle.delete(ids)
            live[ids] = False
        elif kind == "compact":
            if payload is None or payload.generation != generation + 1:
                out.expect("generation did not advance by one", "compact")
            generation += 1
        elif payload is not None:
            results = _results(payload)
            queries = batches[rows]
            probes = oracle.route(queries, nprobe)
            for qi, res in enumerate(results):
                if not live[res.ids].all():
                    out.expect("a deleted id surfaced", f"{kind} q{qi}")
                cand_d, cand_i = oracle.candidates(queries[qi], probes[qi])
                out.expect(
                    topk_mismatch(res.ids, res.distances, cand_d, cand_i, K), f"{kind} q{qi}"
                )
            if kind == "reread" and last_read is not None:
                if not all(_same(a, b) for a, b in zip(results, last_read)):
                    out.expect("read changed across compact()", "reread")
            last_read = results
            truth = exact_knn(vectors, np.arange(len(vectors)), queries, K, valid=live)
            hits += sum(recall_hits(r.ids, t) for r, t in zip(results, truth))
            total += truth.size
    return hits, total


def churn_sharded(
    seed: int, seconds: float, trace: bool, work: Path, yardstick: Yardstick
) -> Outcome:
    out = Outcome.timed_by(yardstick)
    n_adds = CHURN_ROUNDS * CHURN_ADD
    base, queries, adds = _inputs(seed, CHURN_BASE, CHURN_QUERIES, n_adds)
    batches = _batches(queries, CHURN_BATCH)
    config = EngineConfig(
        scanner="naive",
        n_shards=2,
        executor="process",
        n_partitions=8,
        nprobe=2,
        mutable=True,
    )
    ops = _churn_schedule(seed, len(base))
    m = out.metrics

    artifact = work / "artifact"
    source = Engine.build(base, replace(config, mutable=False, executor="thread"))
    try:
        _save_and_load(out, source, artifact, len(base), mmap=True)
        index = source.index
        oracle = _oracle_for(index)
        if trace:
            _pq_layers(out, base, config, index)
        runs = []
        sim_queries = _kernel_queries(CHURN_KERNEL_QUERIES)
        probes = oracle.route(sim_queries, 1)[:, 0]
        for q, cell in zip(sim_queries, probes):
            part = index.partitions[int(cell)]
            run = naive_kernel(PLATFORM, index.distance_tables_for(q, int(cell)), part.codes)
            # The simulated kernel adds float32 table entries.
            cand_d, _ = oracle.candidates(q, [cell])
            if not np.isclose(run.min_distance, cand_d.min(), rtol=1e-5, atol=0.0):
                out.expect("naive kernel minimum differs from the oracle", f"cell {int(cell)}")
            runs.append(run)
        _simd_layers(out, runs)
    finally:
        source.close()

    def passes(budget: float, detailed: bool, observe: bool):
        setups, loads, logs, spinups = [], [], [], []
        measured = 0.0
        while len(logs) < MIN_ROUNDS or measured < budget:
            copy = work / f"pass-{len(logs)}"
            shutil.copytree(artifact, copy)
            out.host.sample()
            with observability_session(enabled=observe) as obs:
                t0 = perf_counter()
                engine = Engine.load(copy, config, mmap=True)
                loads.append(perf_counter() - t0)
                try:
                    engine.search(batches[0], k=K)
                    setups.append(perf_counter() - t0)
                    t_pass = perf_counter()
                    logs.append(_churn_pass(engine, ops, adds, batches, out, detailed))
                    measured += perf_counter() - t_pass
                    final = engine.index
                finally:
                    engine.close()
                counter = obs.metrics.get("repro_pool_spinups_total")
                spinups.append(sum(v for _, v in counter.samples()) if counter else 0.0)
            shutil.rmtree(copy)
        return setups, loads, logs, spinups, final

    if trace:
        _, _, plain, _, _ = passes(seconds / 2, True, False)
        _report_unscaled(out, _read_queries(plain), _pass_times(plain), _read_times(plain))
        _, loads, logs, spinups, final = passes(seconds / 2, True, True)
        m["trace.qps_overhead_frac"] = 1.0 - median(_pass_times(plain)) / median(
            _pass_times(logs)
        )
        m["persistence.load_s"] = median(loads)
        m["parallel.pool_spinups"] = median(spinups)
        _churn_layers(m, logs)
        logs = plain + logs
    else:
        setups, _, logs, _, _ = passes(seconds, False, False)
        out.report_times(_read_queries(logs), setups, _pass_times(logs), _read_times(logs))

    hits, total = _check_churn(out, ops, logs[0], oracle, adds, batches, base, config.nprobe)
    m["recall_at_10"] = hits / total if total else 0.0
    for p, log in enumerate(logs[1:], start=1):
        for (kind, _, a), (_, _, b) in zip(logs[0], log):
            if kind in ("read", "reread") and a is not None and b is not None:
                if not all(_same(x, y) for x, y in zip(_results(a), _results(b))):
                    out.expect("differs from the first pass's answer", f"pass {p} {kind}")

    if trace:
        # The pass ends on a compaction and a re-read, so the final base
        # is clean and the replay must reproduce that re-read.
        last = [p for kind, _, p in logs[-1] if kind == "reread"][-1]
        reread_batch = [b for kind, b, _ in ops if kind == "reread"][-1]
        scanner = config.scanner_factory(final.pq)()
        ns, _ = _replay_layers(
            out, final, scanner, batches[reread_batch], CHURN_BATCH, config.nprobe,
            last.results, "replay",
        )
        m["scan.naive_ns_per_code"] = ns
    m["peak_rss_mb"] = peak_rss_mb()
    m["host.yardstick_ms"] = out.host.yardstick_s * 1e3
    return out


def _results(payload):
    """The SearchResults of a read: a list, or a ShardedResponse's results."""
    return payload.results if hasattr(payload, "results") else payload


def _pass_times(logs) -> list[float]:
    return [sum(t for _, t, _ in log) for log in logs]


def _read_times(logs) -> list[list[float]]:
    return [[t for kind, t, _ in log if kind in ("read", "reread")] for log in logs]


def _read_queries(logs) -> int:
    """Queries one pass reads."""
    return len(_read_times(logs)[0]) * CHURN_BATCH


def _churn_layers(m: dict[str, float], logs) -> None:
    by_kind: dict[str, list] = defaultdict(list)
    for log in logs:
        for kind, t, payload in log:
            if payload is not None:
                by_kind[kind].append((t, payload))
    # Dirty reads scan every tombstoned partition parent-side, so only
    # the clean re-reads after compact() reach the shard workers.
    responses = [p for _, p in by_kind["reread"]]
    m["shard.scatter_ms_per_batch"] = median([r.wall_time_s for r in responses]) * 1e3
    m["shard.slowest_shard_ms"] = median(
        [max(s.latency_s for s in r.shard_statuses) for r in responses]
    ) * 1e3
    m["shard.gather_overlap_ms"] = median([r.gather_overlap_s for r in responses]) * 1e3
    m["parallel.ipc_ms_per_batch"] = median(
        [
            sum(s.latency_s for s in r.shard_statuses)
            - sum(w.busy_time_s for w in r.worker_stats)
            for r in responses
        ]
    ) * 1e3
    m["delta.add_us_per_row"] = median([t for t, _ in by_kind["add"]]) / CHURN_ADD * 1e6
    m["delta.delete_us_per_id"] = median([t for t, _ in by_kind["delete"]]) / CHURN_DELETE * 1e6
    m["delta.write_rows_per_s"] = CHURN_ADD / median([t for t, _ in by_kind["add"]])
    m["delta.dirty_read_ms"] = median([t for t, _ in by_kind["read"]]) * 1e3
    m["delta.clean_read_ms"] = median([t for t, _ in by_kind["reread"]]) * 1e3
    reports = [p for _, p in by_kind["compact"]]
    m["delta.compact_s"] = median([r.wall_time_s for r in reports])
    m["delta.compact_encode_s"] = median([r.encode_time_s for r in reports])
    m["delta.compact_rest_s"] = median([r.wall_time_s - r.encode_time_s for r in reports])


WORKLOADS = {
    "batch-fastpq": batch_fastpq,
    "churn-sharded": churn_sharded,
}
