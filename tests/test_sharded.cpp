// Tests of the sharded multi-bank accelerator: shard-count and
// worker-count invariance of decisions, bit-identity of N == 1 with the
// monolithic accelerator (noisy circuit path included), global-index
// re-basing at shard boundaries, ledger-total equivalence against a
// monolithic bank of the same total geometry, energy as the exact sum of
// every bank's charge, capacity enforcement, the load-once contract, the
// inert pruning flag, and the sharded read mapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "asmcap/db_error.h"
#include "asmcap/readmapper.h"
#include "asmcap/sharded.h"
#include "eval/experiment.h"
#include "genome/readsim.h"
#include "genome/reference.h"

namespace asmcap {
namespace {

AsmcapConfig bank_config(std::size_t array_count, bool ideal = true) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = array_count;
  config.ideal_sensing = ideal;
  return config;
}

class ShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1201);
    reference_ = generate_reference(64 * 40 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(40);

    Rng read_rng(1202);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 24; ++i) {
      switch (i % 3) {
        case 0:
          reads_.push_back(segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))]);
          break;
        case 1:
          reads_.push_back(
              sim.simulate_at(read_rng.below(40) * 64, read_rng).read);
          break;
        default:
          reads_.push_back(Sequence::random(64, read_rng));
      }
    }
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// ------------------------------------------------ shard-count invariance --

TEST_F(ShardedTest, DecisionsInvariantInShardAndWorkerCount) {
  // Noise-free decision paths (ideal circuit sensing here) must produce
  // identical decisions however the database is sharded and however many
  // workers run the router — HDAC's selection coins included, because
  // every per-decision stream is keyed by global segment id.
  std::vector<std::vector<QueryResult>> runs;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      ShardedAccelerator accel(bank_config(4), shards);
      accel.load_reference(segments_);
      runs.push_back(accel.search_batch(reads_, 4, StrategyMode::Full,
                                        workers));
    }
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].decisions, runs[0][i].decisions)
          << "run " << run << " read " << i;
      EXPECT_EQ(runs[run][i].matched_segments, runs[0][i].matched_segments);
      EXPECT_EQ(runs[run][i].plan.total_searches(),
                runs[0][i].plan.total_searches());
    }
  }
}

TEST_F(ShardedTest, FunctionalBackendInvariantAcrossShards) {
  std::vector<std::vector<QueryResult>> runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
    ShardedAccelerator accel(bank_config(4, /*ideal=*/false), shards);
    accel.load_reference(segments_);
    accel.set_backend(BackendKind::Functional);
    runs.push_back(accel.search_batch(reads_, 4, StrategyMode::Full, 2));
  }
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    EXPECT_EQ(runs[1][i].decisions, runs[0][i].decisions) << "read " << i;
}

// ------------------------------------------------------ N == 1 identity --

TEST_F(ShardedTest, SingleShardBitIdenticalToMonolithicNoisy) {
  // The strongest contract: with one shard, the router must reproduce the
  // monolithic accelerator bit-for-bit on the noisy circuit path — same
  // silicon (same seed), same per-read streams, same ledger.
  const AsmcapConfig config = bank_config(4, /*ideal=*/false);
  ShardedAccelerator sharded(config, 1);
  AsmcapAccelerator mono(config);
  sharded.load_reference(segments_);
  mono.load_reference(segments_);
  EXPECT_EQ(sharded.load_energy_joules(), mono.load_energy_joules());
  EXPECT_EQ(sharded.load_latency_seconds(), mono.load_latency_seconds());

  const auto sharded_batch =
      sharded.search_batch(reads_, 4, StrategyMode::Full, 3);
  const auto mono_batch = mono.search_batch(reads_, 4, StrategyMode::Full, 3);
  ASSERT_EQ(sharded_batch.size(), mono_batch.size());
  for (std::size_t i = 0; i < mono_batch.size(); ++i) {
    EXPECT_EQ(sharded_batch[i].decisions, mono_batch[i].decisions);
    EXPECT_EQ(sharded_batch[i].matched_segments,
              mono_batch[i].matched_segments);
    EXPECT_EQ(sharded_batch[i].energy_joules, mono_batch[i].energy_joules);
    EXPECT_EQ(sharded_batch[i].latency_seconds, mono_batch[i].latency_seconds);
  }

  // Sequential searches after a batch evolve the same master stream.
  const QueryResult a = sharded.search(reads_[0], 4, StrategyMode::Full);
  const QueryResult b = mono.search(reads_[0], 4, StrategyMode::Full);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.energy_joules, b.energy_joules);

  EXPECT_EQ(sharded.totals().queries, mono.controller().totals().queries);
  EXPECT_EQ(sharded.totals().searches, mono.controller().totals().searches);
  EXPECT_EQ(sharded.totals().energy_joules,
            mono.controller().totals().energy_joules);
  EXPECT_EQ(sharded.totals().latency_seconds,
            mono.controller().totals().latency_seconds);
}

// ---------------------------------------------------------- re-basing ----

TEST_F(ShardedTest, GlobalIndexRebasingAtShardBoundaries) {
  // 10 segments over 3 shards partition as 4 + 3 + 3.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 10);
  ShardedAccelerator accel(bank_config(1), 3);
  accel.load_reference(segments);
  ASSERT_EQ(accel.shard_count(), 3u);
  EXPECT_EQ(accel.shard_base(0), 0u);
  EXPECT_EQ(accel.shard_base(1), 4u);
  EXPECT_EQ(accel.shard_base(2), 7u);
  EXPECT_EQ(accel.shard_segments(0), 4u);
  EXPECT_EQ(accel.shard_segments(1), 3u);
  EXPECT_EQ(accel.shard_segments(2), 3u);
  EXPECT_EQ(accel.loaded_segments(), 10u);
  EXPECT_EQ(accel.shard(1).loaded_segments(), 3u);

  // Exact copies of boundary rows must come back under their global ids:
  // the first row of shard 1 (local 0 -> global 4) and the last row of
  // shard 2 (local 2 -> global 9).
  for (const std::size_t global : {std::size_t{4}, std::size_t{9}}) {
    const QueryResult result =
        accel.search(segments[global], 0, StrategyMode::Baseline);
    ASSERT_EQ(result.decisions.size(), 10u);
    EXPECT_TRUE(result.decisions[global]) << "global " << global;
    EXPECT_NE(std::find(result.matched_segments.begin(),
                        result.matched_segments.end(), global),
              result.matched_segments.end());
  }
}

// ------------------------------------------------------------- ledger ----

TEST_F(ShardedTest, LedgerTotalsMatchMonolithicOnAlignedShards) {
  // 2 shards x 1 array x 16 rows vs one monolithic bank of 2 arrays: the
  // shard boundaries coincide with array boundaries, so the sharded
  // system scans exactly the same silicon geometry and the ledgers must
  // agree (energy up to floating-point summation order). Misaligned
  // boundaries would honestly charge extra partially-filled arrays —
  // each bank drives its search lines per pass whatever its fill.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 32);
  ShardedAccelerator sharded(bank_config(1), 2);
  AsmcapAccelerator mono(bank_config(2));
  sharded.load_reference(segments);
  mono.load_reference(segments);
  sharded.set_backend(BackendKind::Functional);
  mono.set_backend(BackendKind::Functional);

  const auto sharded_results =
      sharded.search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto mono_results = mono.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < mono_results.size(); ++i) {
    EXPECT_EQ(sharded_results[i].decisions, mono_results[i].decisions);
    EXPECT_EQ(sharded_results[i].latency_seconds,
              mono_results[i].latency_seconds);
    EXPECT_NEAR(sharded_results[i].energy_joules,
                mono_results[i].energy_joules,
                1e-9 * mono_results[i].energy_joules);
  }
  const ExecutionTotals& st = sharded.totals();
  const ExecutionTotals& mt = mono.controller().totals();
  EXPECT_EQ(st.queries, mt.queries);
  EXPECT_EQ(st.searches, mt.searches);
  EXPECT_EQ(st.hd_searches, mt.hd_searches);
  EXPECT_EQ(st.rotation_searches, mt.rotation_searches);
  EXPECT_DOUBLE_EQ(st.latency_seconds, mt.latency_seconds);
  EXPECT_NEAR(st.energy_joules, mt.energy_joules,
              1e-9 * mt.energy_joules);
}

TEST_F(ShardedTest, EnergyIsExactlyTheBanksSumInShardOrder) {
  // Every read is charged in every bank. On the functional backend pass
  // energy is a pure function of the plan and the bank's stored rows (no
  // RNG dependence), so each read's energy must rebuild exactly — same
  // summation order — from the banks' own execute() results, and its
  // latency is the slowest bank's. The last read matches no row: it still
  // merges to the all-false shape and is still charged.
  ShardedAccelerator accel(bank_config(4, /*ideal=*/false), 5);
  accel.load_reference(segments_);
  accel.set_backend(BackendKind::Functional);
  ASSERT_EQ(accel.active_shards(), 5u);
  std::vector<Sequence> reads = reads_;
  reads.emplace_back(64);  // all 'A': no row is within T
  const auto batch = accel.search_batch(reads, 4, StrategyMode::Full, 2);

  const Rng any_rng(42);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const ExecutionPlan plan = accel.controller().planner().build(
        reads[i], 4, accel.error_profile(), StrategyMode::Full);
    double energy = 0.0;
    double latency = 0.0;
    for (std::size_t s = 0; s < accel.active_shards(); ++s) {
      const QueryResult part = accel.shard(s).execute(plan, any_rng);
      energy += part.energy_joules;
      latency = std::max(latency, part.latency_seconds);
    }
    EXPECT_EQ(batch[i].energy_joules, energy) << "read " << i;
    EXPECT_EQ(batch[i].latency_seconds, latency) << "read " << i;
  }
  const QueryResult& none = batch.back();
  EXPECT_EQ(none.decisions, std::vector<bool>(segments_.size(), false));
  EXPECT_TRUE(none.matched_segments.empty());
  EXPECT_GT(none.energy_joules, 0.0);
  // The sequential path fans out and merges the same way.
  const QueryResult sequential =
      accel.search(reads.back(), 4, StrategyMode::Full, 2);
  EXPECT_EQ(sequential.decisions, none.decisions);
  EXPECT_EQ(sequential.energy_joules, none.energy_joules);
  EXPECT_EQ(sequential.latency_seconds, none.latency_seconds);
}

// ----------------------------------------------------------- capacity ----

TEST_F(ShardedTest, ShardingExtendsCapacityPastOneBank) {
  // Bank capacity 2 x 16 = 32 < 40 segments: the monolithic accelerator
  // rejects the database, two shards hold it.
  AsmcapAccelerator mono(bank_config(2));
  EXPECT_THROW(mono.load_reference(segments_), DbError);

  ShardedAccelerator sharded(bank_config(2), 2);
  EXPECT_EQ(sharded.capacity_segments(), 64u);
  sharded.load_reference(segments_);
  EXPECT_EQ(sharded.loaded_segments(), 40u);
  const QueryResult result =
      sharded.search(segments_[35], 0, StrategyMode::Baseline);
  EXPECT_TRUE(result.decisions[35]);
}

TEST_F(ShardedTest, MoreShardsThanSegmentsPopulatesOnlyActiveBanks) {
  // A tiny database must not create empty banks (which could never
  // execute a query): 8 configured shards over 5 segments populate 5
  // one-segment banks, and decisions still match the single-shard run.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 5);
  ShardedAccelerator wide(bank_config(1), 8);
  ShardedAccelerator single(bank_config(1), 1);
  wide.load_reference(segments);
  single.load_reference(segments);
  EXPECT_EQ(wide.shard_count(), 8u);
  EXPECT_EQ(wide.active_shards(), 5u);
  EXPECT_EQ(wide.shard_segments(4), 1u);
  EXPECT_THROW(wide.shard(5), std::out_of_range);

  const auto wide_results = wide.search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto single_results =
      single.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < wide_results.size(); ++i)
    EXPECT_EQ(wide_results[i].decisions, single_results[i].decisions);
}

TEST_F(ShardedTest, AccessorsThrowBeforeLoad) {
  ShardedAccelerator accel(bank_config(2), 2);
  EXPECT_THROW(accel.active_shards(), std::logic_error);
  EXPECT_THROW(accel.shard(0), std::logic_error);
  EXPECT_THROW(accel.shard_base(0), std::logic_error);
  EXPECT_THROW(accel.shard_segments(0), std::logic_error);
}

TEST_F(ShardedTest, Validation) {
  EXPECT_THROW(ShardedAccelerator(bank_config(2), 0), std::invalid_argument);
  ShardedAccelerator accel(bank_config(2), 2);
  EXPECT_THROW(accel.search(reads_[0], 2, StrategyMode::Baseline),
               std::logic_error);
  EXPECT_THROW(accel.search_batch(reads_, 2, StrategyMode::Baseline, 2),
               std::logic_error);
  std::vector<Sequence> too_many(segments_);
  for (int i = 0; i < 30; ++i) too_many.push_back(segments_[0]);
  try {
    accel.load_reference(too_many);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::CapacityExceeded);
  }
  accel.load_reference(segments_);
  EXPECT_THROW(accel.load_reference(segments_), std::logic_error);
  EXPECT_TRUE(accel.search_batch({}, 2, StrategyMode::Baseline, 2).empty());
  Rng rng(1203);
  EXPECT_THROW(accel.search(Sequence::random(32, rng), 2,
                            StrategyMode::Baseline),
               std::invalid_argument);
}

TEST_F(ShardedTest, RepeatedLoadThrowsAlreadyLoadedAndStaysSearchable) {
  ShardedAccelerator accel(bank_config(4), 5);
  accel.load_reference(segments_);
  try {
    accel.load_reference(segments_);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
  // The failed reload published nothing: the same epoch answers exactly
  // like a router that was loaded once.
  EXPECT_EQ(accel.epoch(), 1u);
  EXPECT_EQ(accel.active_shards(), 5u);
  ShardedAccelerator fresh(bank_config(4), 5);
  fresh.load_reference(segments_);
  const auto after = accel.search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto expect = fresh.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(after[i].decisions, expect[i].decisions) << "read " << i;
    EXPECT_EQ(after[i].matched_segments, expect[i].matched_segments);
    EXPECT_EQ(after[i].energy_joules, expect[i].energy_joules);
    EXPECT_EQ(after[i].latency_seconds, expect[i].latency_seconds);
  }
}

// config.pruning.enabled is read by nothing (a benchmark probe still sets
// it). Setting it must change no decision, energy, latency, or ledger
// total on any backend, through the batch, sequential, and mutation paths.
TEST_F(ShardedTest, PruningFlagIsInert) {
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  const std::vector<Sequence> loaded(segments_.begin(),
                                     segments_.begin() + 30);
  const std::vector<Sequence> appended(segments_.begin() + 30,
                                       segments_.end());
  for (const Case c : {Case{true, BackendKind::Circuit},
                       Case{false, BackendKind::Circuit},
                       Case{false, BackendKind::Functional}}) {
    std::vector<QueryResult> results[2];
    ExecutionTotals totals[2];
    for (const bool flag : {false, true}) {
      AsmcapConfig config = bank_config(4, c.ideal);
      config.pruning.enabled = flag;
      ShardedAccelerator accel(config, 5);
      accel.load_reference(loaded);
      accel.set_backend(c.backend);
      std::vector<QueryResult>& out = results[flag ? 1 : 0];
      out = accel.search_batch(reads_, 4, StrategyMode::Full, 3);
      for (const Sequence& read : reads_)
        out.push_back(accel.search(read, 4, StrategyMode::Full, 2));
      accel.append_segments(appended);
      accel.remove_segments({1, 8, 33, 38});
      accel.compact();
      for (QueryResult& result :
           accel.search_batch(reads_, 4, StrategyMode::Full, 3))
        out.push_back(std::move(result));
      totals[flag ? 1 : 0] = accel.totals();
    }
    ASSERT_EQ(results[1].size(), results[0].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(results[1][i].decisions, results[0][i].decisions)
          << "result " << i;
      EXPECT_EQ(results[1][i].matched_segments,
                results[0][i].matched_segments);
      EXPECT_EQ(results[1][i].energy_joules, results[0][i].energy_joules);
      EXPECT_EQ(results[1][i].latency_seconds, results[0][i].latency_seconds);
    }
    EXPECT_EQ(totals[1].queries, totals[0].queries);
    EXPECT_EQ(totals[1].searches, totals[0].searches);
    EXPECT_EQ(totals[1].hd_searches, totals[0].hd_searches);
    EXPECT_EQ(totals[1].rotation_searches, totals[0].rotation_searches);
    EXPECT_EQ(totals[1].latency_seconds, totals[0].latency_seconds);
    EXPECT_EQ(totals[1].energy_joules, totals[0].energy_joules);
    for (const ExecutionTotals& t : totals) {
      EXPECT_EQ(t.banks_probed, 0u);
      EXPECT_EQ(t.banks_pruned, 0u);
    }
  }
}

// ----------------------------------------------------------- read mapper --

TEST_F(ShardedTest, ShardedMapperMatchesSingleBankMapper) {
  std::vector<std::vector<MappedRead>> runs;
  std::vector<MappingStats> stats;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ReadMapper mapper(bank_config(4), segments_, 64, shards);
    std::vector<MappedRead> mapped;
    stats.push_back(
        mapper.map_batch(reads_, 4, StrategyMode::Full, &mapped, 2));
    runs.push_back(std::move(mapped));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].mapped, runs[1][i].mapped);
    EXPECT_EQ(runs[0][i].segment, runs[1][i].segment);
    EXPECT_EQ(runs[0][i].edit_distance, runs[1][i].edit_distance);
    EXPECT_EQ(runs[0][i].candidates, runs[1][i].candidates);
  }
  EXPECT_EQ(stats[0].mapped, stats[1].mapped);
  EXPECT_EQ(stats[0].total_candidates, stats[1].total_candidates);
  EXPECT_EQ(stats[0].host_dp_cells, stats[1].host_dp_cells);
}

// ------------------------------------------------------ eval comparison --

TEST_F(ShardedTest, ShardedComparisonRunsOnMultiBankDatabase) {
  Dataset dataset;
  dataset.rows = segments_;
  dataset.rates = ErrorRates::condition_a();
  dataset.name = "sharded";
  Rng rng(1204);
  ReadSimConfig sim_config;
  sim_config.read_length = 64;
  sim_config.rates = dataset.rates;
  const ReadSimulator sim(reference_, sim_config);
  for (int i = 0; i < 16; ++i) {
    DatasetQuery query;
    query.true_row = rng.below(40);
    query.read = sim.simulate_at(query.true_row * 64, rng).read;
    dataset.queries.push_back(query);
  }

  ShardedComparisonConfig config;
  config.bank = bank_config(2);  // capacity 32 < 40 rows: needs 2 banks
  config.shards = 2;
  config.threshold = 4;
  config.workers = 2;
  config.kraken.k = 16;
  config.live_mutation = true;  // delete / re-insert a tail block mid-run
  config.live_block = 8;
  const ShardedComparisonResult result =
      run_sharded_comparison(config, dataset);
  EXPECT_EQ(result.segments, 40u);
  EXPECT_EQ(result.cm_asmcap.total(), 16u * 40u);
  EXPECT_GT(result.asmcap_f1, 0.8);
  EXPECT_GE(result.asmcap_f1, result.kraken_f1);
  EXPECT_GT(result.accel_energy_joules, 0.0);
  EXPECT_GT(result.cmcpu_seconds, 0.0);

  // Live-mutation arm: deleting a contamination block must not harm the
  // surviving rows' accuracy, no tombstoned row may ever match, and the
  // re-inserted rows must classify as well as they did before deletion.
  EXPECT_EQ(result.live_deleted, 8u);
  EXPECT_TRUE(result.live_dead_rows_silent);
  EXPECT_GT(result.live_f1_after_delete, 0.8);
  EXPECT_GE(result.live_f1_after_reinsert, result.asmcap_f1 - 1e-12);
  EXPECT_GT(result.live_final_epoch, 1u);

  // One bank cannot hold the dataset: the capacity check must fire.
  config.shards = 1;
  EXPECT_THROW(run_sharded_comparison(config, dataset), DbError);
}

TEST_F(ShardedTest, Fig7RunnerEnforcesShardedCapacity) {
  Dataset dataset;
  dataset.rows = segments_;
  dataset.rates = ErrorRates::condition_a();
  Fig7Config config;
  config.asmcap = bank_config(2);  // capacity 32 < 40 rows
  config.shards = 1;
  Rng rng(1205);
  EXPECT_THROW(Fig7Runner(config).run(dataset, {4}, rng), DbError);
}

}  // namespace
}  // namespace asmcap
