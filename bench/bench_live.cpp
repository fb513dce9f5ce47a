// Live-database benchmark (plain chrono, no external deps): mutation
// throughput and search behaviour of the epoch-snapshotted router.
//
//   ./bench_live [segments] [reads] [shards] [workers] [--json <path>]
//
// Four measured arms, one correctness gate:
//   * frozen    — the classic one-shot load + read stream (the reference
//                 timing and the reference decision digest);
//   * build     — the same database grown live: half loaded, half
//                 appended in chunks through the copy-on-write epoch path
//                 (reports appends/s). The subsequent read stream must
//                 reproduce the frozen digest BIT-FOR-BIT — global ids
//                 are placement-invariant, so a database grown by
//                 mutation is indistinguishable from one loaded frozen;
//   * churn     — the read stream again, now with a scratch block deleted
//                 and re-appended between every read (search-under-
//                 mutation overhead; the frozen rows' decisions must
//                 still match the frozen digest);
//   * retire    — a bulk tombstone pass over a quarter of the database
//                 (reports deletes/s), then one compact() call, timed
//                 alone: the epoch-boundary pause a live deployment
//                 would schedule (reports compaction_pause_seconds);
//   * growth    — per-read search time on the functional backend, one
//                 worker, on a database churned until its id space is
//                 kGrowthFactor x its live rows, over the same time on a
//                 fresh load of the same rows (reports
//                 churned_over_fresh_search). A read should cost what its
//                 rows and matches cost, so this ratio stays near 1; a
//                 merge or pass step that walks the id space shows up as
//                 a ratio that grows with the churn.
//
// Exits non-zero if either digest diverges from the frozen arm.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "align/kernels.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/bench_json.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Digest over the first `ids` decisions of every result — the frozen
/// rows' id range, shared by every arm regardless of how far the scratch
/// appends have grown the id space.
std::uint64_t digest_prefix(const std::vector<QueryResult>& results,
                            std::size_t ids) {
  DecisionDigest digest;
  for (const QueryResult& result : results)
    for (std::size_t i = 0; i < ids && i < result.decisions.size(); ++i)
      digest.add(result.decisions[i]);
  return digest.value();
}

/// Churned id space over live rows in the growth arm.
constexpr std::size_t kGrowthFactor = 16;

/// Seconds per read of `db.search` over `reads` on one worker: the best of
/// `trials` timed passes, each repeating the read list `reps` times.
double seconds_per_read(ShardedAccelerator& db,
                        const std::vector<Sequence>& reads,
                        std::size_t threshold, std::size_t reps) {
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep)
    for (const Sequence& read : reads)
      db.search(read, threshold, StrategyMode::Full, 1);
  return seconds_since(start) / static_cast<double>(reps * reads.size());
}

/// Removes a block of shard 0's live ids and re-appends the same
/// sequences (fresh ids), folding each block straight back, until the id
/// space reaches `factor` x the live rows. The fold recycles exactly the
/// slots the block vacated, so every bank keeps its rows and layout: the
/// live content and the rows a read sweeps are those of a fresh load, and
/// only the id space has grown.
void churn_id_space(ShardedAccelerator& db, std::size_t factor) {
  const std::size_t live_rows = db.live_segment_count();
  while (db.loaded_segments() < factor * live_rows) {
    const auto bank_rows = db.shard(0).live_segments();
    const std::size_t block = std::max<std::size_t>(1, bank_rows.size() / 2);
    std::vector<std::uint64_t> ids;
    std::vector<Sequence> rows;
    for (std::size_t k = 0; k < block; ++k) {
      ids.push_back(bank_rows[k].first);
      rows.push_back(bank_rows[k].second);
    }
    db.remove_segments(ids);
    db.append_segments(rows);
    db.compact();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string json_path = take_bench_json_path(args);
  const std::size_t n_segments =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 2048;
  const std::size_t n_reads =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 32;
  const std::size_t shards =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 4;
  const std::size_t workers =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 2;
  const std::size_t threshold = 4;
  if (n_segments < 16 || n_reads == 0 || shards == 0 || workers == 0) {
    std::fprintf(stderr,
                 "usage: bench_live [segments>=16] [reads>0] [shards>0] "
                 "[workers>0]\n");
    return 2;
  }

  // Bank geometry leaves headroom above the frozen database: the churn
  // arm keeps a scratch block in flight and the live build stages appends
  // in the hot bank before folding them cold.
  AsmcapConfig bank;
  bank.array_rows = 256;
  bank.array_cols = 256;
  const std::size_t per_shard = (n_segments + shards - 1) / shards;
  bank.array_count =
      (per_shard + bank.array_rows - 1) / bank.array_rows + 1;
  bank.ideal_sensing = true;  // noise-free: digests comparable bit-for-bit

  Rng rng(0x11FE'DB01);
  const Sequence reference =
      generate_reference(256 * (n_segments + 2), {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(n_segments);

  ReadSimConfig sim_config;
  sim_config.read_length = 256;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  std::vector<Sequence> reads;
  reads.reserve(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i)
    reads.push_back(
        simulator.simulate_at(rng.below(n_segments) * 256, rng).read);

  std::printf(
      "workload: %zu reads x %zu segments, T=%zu, circuit backend, "
      "%zu shards x %zu arrays, %zu workers (%zu hardware)\n\n",
      n_reads, n_segments, threshold, shards, bank.array_count, workers,
      ThreadPool::hardware_workers());

  // --- Frozen arm: one-shot load, then the read stream. -------------------
  ShardedAccelerator frozen(bank, shards);
  frozen.load_reference(segments);
  frozen.set_error_profile(sim_config.rates);
  const auto frozen_start = Clock::now();
  std::vector<QueryResult> frozen_results;
  frozen_results.reserve(n_reads);
  for (const Sequence& read : reads)
    frozen_results.push_back(
        frozen.search(read, threshold, StrategyMode::Full, workers));
  const double frozen_seconds = seconds_since(frozen_start);
  const std::uint64_t frozen_digest = digest_prefix(frozen_results, n_segments);

  // --- Build arm: grow the same database live, then stream the reads. -----
  ShardedAccelerator live(bank, shards);
  live.set_error_profile(sim_config.rates);
  const std::size_t half = n_segments / 2;
  live.load_reference(
      std::vector<Sequence>(segments.begin(), segments.begin() + half));
  const std::size_t chunk = 64;
  const auto append_start = Clock::now();
  for (std::size_t i = half; i < n_segments; i += chunk) {
    const std::size_t end = std::min(i + chunk, n_segments);
    live.append_segments(
        std::vector<Sequence>(segments.begin() + i, segments.begin() + end));
  }
  live.compact();
  const double append_seconds = seconds_since(append_start);
  const double appends_per_second =
      static_cast<double>(n_segments - half) / append_seconds;

  const auto grown_start = Clock::now();
  std::vector<QueryResult> grown_results;
  grown_results.reserve(n_reads);
  for (const Sequence& read : reads)
    grown_results.push_back(
        live.search(read, threshold, StrategyMode::Full, workers));
  const double grown_seconds = seconds_since(grown_start);
  const std::uint64_t grown_digest = digest_prefix(grown_results, n_segments);

  // --- Churn arm: reads interleaved with delete + re-append pairs. --------
  // A fresh router (so its sequential query streams align with the frozen
  // arm's) holding the same database, plus a scratch block beyond the
  // frozen id range; every read is bracketed by tombstoning the previous
  // block and staging a fresh one, so each search crosses an epoch
  // boundary published just before it.
  ShardedAccelerator churny(bank, shards);
  churny.load_reference(segments);
  churny.set_error_profile(sim_config.rates);
  std::vector<Sequence> scratch(segments.begin(), segments.begin() + 8);
  std::vector<std::uint64_t> scratch_ids = churny.append_segments(scratch);
  const auto churn_start = Clock::now();
  std::vector<QueryResult> churn_results;
  churn_results.reserve(n_reads);
  for (const Sequence& read : reads) {
    churny.remove_segments(scratch_ids);
    scratch_ids = churny.append_segments(scratch);
    churn_results.push_back(
        churny.search(read, threshold, StrategyMode::Full, workers));
  }
  const double churn_seconds = seconds_since(churn_start);
  const std::uint64_t churn_digest = digest_prefix(churn_results, n_segments);

  // --- Retire arm: bulk tombstones, then the compaction pause. ------------
  std::vector<std::uint64_t> retire_ids;
  for (std::size_t i = 0; i < n_segments / 4; ++i)
    retire_ids.push_back(static_cast<std::uint64_t>(4 * i));  // Spread out.
  const auto retire_start = Clock::now();
  const std::size_t delete_chunk = 64;
  for (std::size_t i = 0; i < retire_ids.size(); i += delete_chunk) {
    const std::size_t end = std::min(i + delete_chunk, retire_ids.size());
    churny.remove_segments(std::vector<std::uint64_t>(
        retire_ids.begin() + i, retire_ids.begin() + end));
  }
  const double retire_seconds = seconds_since(retire_start);
  const double deletes_per_second =
      static_cast<double>(retire_ids.size()) / retire_seconds;
  const auto compact_start = Clock::now();
  churny.compact();
  const double compact_seconds = seconds_since(compact_start);

  // --- Growth arm: churned vs fresh id space, same live rows. ------------
  ShardedAccelerator fresh_db(bank, shards);
  ShardedAccelerator churned_db(bank, shards);
  for (ShardedAccelerator* db : {&fresh_db, &churned_db}) {
    db->load_reference(segments);
    db->set_error_profile(sim_config.rates);
    db->set_backend(BackendKind::Functional);
  }
  churn_id_space(churned_db, kGrowthFactor);
  // Enough repetitions for ~2k reads per trial; trials alternate between
  // the two databases so host drift hits both alike, and each keeps its
  // best trial.
  const std::size_t growth_reps = std::max<std::size_t>(1, 2048 / n_reads);
  double fresh_per_read = 1e300;
  double churned_per_read = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    fresh_per_read = std::min(
        fresh_per_read,
        seconds_per_read(fresh_db, reads, threshold, growth_reps));
    churned_per_read = std::min(
        churned_per_read,
        seconds_per_read(churned_db, reads, threshold, growth_reps));
  }
  const double growth_ratio = churned_per_read / fresh_per_read;

  const double grown_overhead = grown_seconds / frozen_seconds;
  const double churn_overhead = churn_seconds / frozen_seconds;

  Table table({"arm", "wall time", "rate"});
  table.new_row()
      .add_cell("frozen load + read stream")
      .add_cell(format_si(frozen_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / frozen_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("live build (append + fold)")
      .add_cell(format_si(append_seconds, "s"))
      .add_cell(format_si(appends_per_second, " appends/s"));
  table.new_row()
      .add_cell("read stream on grown db")
      .add_cell(format_si(grown_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / grown_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("read stream under churn")
      .add_cell(format_si(churn_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / churn_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("bulk tombstone pass")
      .add_cell(format_si(retire_seconds, "s"))
      .add_cell(format_si(deletes_per_second, " deletes/s"));
  table.new_row()
      .add_cell("compaction pause")
      .add_cell(format_si(compact_seconds, "s"))
      .add_cell("-");
  table.new_row()
      .add_cell("functional search, fresh id space")
      .add_cell(format_si(fresh_per_read, "s/read"))
      .add_cell(format_si(1.0 / fresh_per_read, " reads/s"));
  table.new_row()
      .add_cell("functional search, id space x" +
                std::to_string(kGrowthFactor))
      .add_cell(format_si(churned_per_read, "s/read"))
      .add_cell(format_si(1.0 / churned_per_read, " reads/s"));
  table.print(std::cout);

  std::printf(
      "\ngrown-db search overhead %.2fx, churn overhead %.2fx, churned/fresh "
      "search %.2fx, digests %s/%s\n",
      grown_overhead, churn_overhead, growth_ratio,
      grown_digest == frozen_digest ? "match" : "DIVERGED",
      churn_digest == frozen_digest ? "match" : "DIVERGED");

  if (!json_path.empty()) {
    BenchReport report;
    report.bench = "bench_live";
    report.kernel_tier = to_string(active_kernel_tier());
    report.hardware_threads = ThreadPool::hardware_workers();
    report.workload = {{"segments", static_cast<double>(n_segments)},
                       {"reads", static_cast<double>(n_reads)},
                       {"shards", static_cast<double>(shards)},
                       {"workers", static_cast<double>(workers)},
                       {"threshold", static_cast<double>(threshold)}};
    report.timings = {
        {"frozen-read-stream", frozen_seconds,
         static_cast<double>(n_reads) / frozen_seconds},
        {"live-build", append_seconds, appends_per_second},
        {"grown-read-stream", grown_seconds,
         static_cast<double>(n_reads) / grown_seconds},
        {"churn-read-stream", churn_seconds,
         static_cast<double>(n_reads) / churn_seconds},
        {"bulk-tombstone", retire_seconds, deletes_per_second},
        {"compaction", compact_seconds, 0.0},
        {"fresh-functional-search", fresh_per_read, 1.0 / fresh_per_read},
        {"churned-functional-search", churned_per_read,
         1.0 / churned_per_read}};
    report.metrics = {
        {"appends_per_second", appends_per_second},
        {"deletes_per_second", deletes_per_second},
        {"grown_search_overhead", grown_overhead},
        {"churn_search_overhead", churn_overhead},
        {"compaction_pause_seconds", compact_seconds},
        {"churned_over_fresh_search", growth_ratio},
        {"grown_digest_matches",
         grown_digest == frozen_digest ? 1.0 : 0.0},
        {"churn_digest_matches",
         churn_digest == frozen_digest ? 1.0 : 0.0}};
    report.decision_digest = frozen_digest;
    report.floor_enforced = false;  // Mutation rates are not timing-gated.
    write_bench_json(json_path, report);
  }

  if (grown_digest != frozen_digest) {
    std::fprintf(stderr,
                 "FAIL: live-grown database diverged from the frozen load\n");
    return 1;
  }
  if (churn_digest != frozen_digest) {
    std::fprintf(stderr,
                 "FAIL: decisions under churn diverged on the frozen rows\n");
    return 1;
  }
  return 0;
}
