// Word-level pass glue and the sparse merge:
//  * PassResult words — tail bits past the last slot and tombstoned bits
//    stay zero at rows % 64 in {0, 1, 63}, on the functional and the
//    ideal circuit backend alike, and execute() extracts exactly the set
//    bits;
//  * count-domain energy — a functional pass books exactly
//    arrays_in_use * E_SL * W + (sum of k(W-k) over live rows) / W * C * V^2;
//  * sparse merge under churn — after remove/re-append cycles that recycle
//    slots and grow the id space far past the live row count, every
//    merged result's matched_segments is ascending and equals the set
//    bits of its decisions bitmap, matches brute-force ED* truth, and the
//    streaming service stays bit-identical to search_batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "align/edstar.h"
#include "align/kernels.h"
#include "asmcap/accelerator.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "cam/periphery.h"
#include "genome/reference.h"

namespace asmcap {
namespace {

constexpr std::size_t kWidth = 64;

AsmcapConfig bank_config(std::size_t array_rows, std::size_t array_count) {
  AsmcapConfig config;
  config.array_rows = array_rows;
  config.array_cols = kWidth;
  config.array_count = array_count;
  config.ideal_sensing = true;
  return config;
}

std::vector<Sequence> make_segments(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Sequence reference = generate_reference(kWidth * (n + 2), {}, rng);
  std::vector<Sequence> segments = segment_reference(reference, kWidth);
  segments.resize(n);
  return segments;
}

/// Reads that hit some segments exactly, some nearly, some not at all.
std::vector<Sequence> make_reads(const std::vector<Sequence>& segments,
                                 std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < n; ++i) {
    Sequence read = segments[rng.below(segments.size())];
    if (i % 3 == 1) read = Sequence::random(kWidth, rng);
    reads.push_back(read);
  }
  return reads;
}

/// The set bits of a dense bitmap, ascending.
std::vector<std::size_t> set_bits(const std::vector<bool>& bitmap) {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < bitmap.size(); ++g)
    if (bitmap[g]) out.push_back(g);
  return out;
}

// ------------------------------------------------------------- word tails --

// Slot counts at every word-boundary case (rows % 64 in {0, 1, 63}), with
// tombstones in the last word: the pass words carry exactly the live
// slots' decisions and nothing past the last slot, and execute() returns
// the same bits as its bitmap and its ascending match list.
TEST(PassWords, TailsAndTombstonesInTheLastWord) {
  const std::vector<Sequence> pool = make_segments(200, 0x7A11);
  for (const std::size_t rows : {64u, 65u, 127u, 128u, 129u, 191u}) {
    SCOPED_TRACE(rows);
    const std::vector<Sequence> segments(pool.begin(), pool.begin() + rows);
    // Tombstones: the last slot, one more in the last word, one early.
    std::vector<std::uint64_t> dead = {rows - 1, 3};
    if (rows % 64 != 1) dead.push_back(rows - 2);
    for (const BackendKind kind :
         {BackendKind::Functional, BackendKind::Circuit}) {
      SCOPED_TRACE(to_string(kind));
      AsmcapAccelerator bank(bank_config(64, 4));
      bank.set_backend(kind);
      bank.load_reference(segments);
      bank.remove_segments(dead);

      // T = W: every live row matches, so the words must equal the live
      // mask exactly — a stray tail or tombstone bit cannot hide.
      PassResult all;
      bank.backend().run_pass(segments[0], MatchMode::EdStar, kWidth,
                              Rng(1), 0, all);
      ASSERT_EQ(all.slots, rows);
      ASSERT_EQ(all.words.size(), decision_words(rows));
      for (std::size_t w = 0; w < all.words.size(); ++w)
        EXPECT_EQ(all.words[w], bank.directory().live_word(w)) << "word " << w;
      if (rows % 64 != 0) {
        EXPECT_EQ(all.words.back() >> (rows % 64), 0u) << "tail bits set";
      }

      // A real threshold: each live bit is the ED* decision.
      const Sequence& read = segments[rows - 2];
      PassResult pass;
      bank.backend().run_pass(read, MatchMode::EdStar, 4, Rng(1), 0, pass);
      for (std::size_t slot = 0; slot < rows; ++slot) {
        const bool live = bank.directory().slot_live(slot);
        EXPECT_EQ(pass.decision(slot),
                  live && ed_star(segments[slot], read) <= 4)
            << "slot " << slot;
      }

      const ExecutionPlan plan =
          bank.planner().build(read, 4, bank.error_profile(),
                               StrategyMode::Baseline);
      const QueryResult result = bank.execute(plan, Rng(7));
      ASSERT_EQ(result.decisions.size(), rows);
      EXPECT_EQ(result.matched_segments, set_bits(result.decisions));
      for (std::size_t slot = 0; slot < rows; ++slot)
        EXPECT_EQ(result.decisions[slot], pass.decision(slot)) << slot;
    }
  }
}

// ----------------------------------------------------------------- energy --

// The functional pass books matchline energy in the count domain: one
// exact integer sum of k(W-k) over live rows, multiplied by C V^2 / W
// once, plus the SL drivers of every array holding a live row.
TEST(PassWords, FunctionalEnergyIsExactCountDomainSum) {
  const std::vector<Sequence> segments = make_segments(150, 0xE4E4);
  AsmcapAccelerator bank(bank_config(64, 3));
  bank.set_backend(BackendKind::Functional);
  bank.load_reference(segments);
  // Kill all of array 1 (slots 64..127) and a few rows elsewhere.
  std::vector<std::uint64_t> dead = {0, 5, 149};
  for (std::uint64_t id = 64; id < 128; ++id) dead.push_back(id);
  bank.remove_segments(dead);
  ASSERT_EQ(bank.arrays_in_use(), 2u);

  const PackedRowMatrix matrix(segments, kWidth);
  const ChargeDomainParams& charge = bank.config().process.charge;
  const SearchlineDriverParams sl;
  std::vector<std::uint32_t> counts(segments.size());
  for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
    for (std::size_t r = 0; r < 4; ++r) {
      const Sequence& read = segments[10 + 37 * r];
      const PackedReadView view(read);
      if (mode == MatchMode::EdStar)
        ed_star_packed_block(matrix.data(), matrix.rows(), view,
                             counts.data());
      else
        hamming_packed_block(matrix.data(), matrix.rows(), view,
                             counts.data());
      std::uint64_t products = 0;
      for (std::size_t slot = 0; slot < segments.size(); ++slot)
        if (bank.directory().slot_live(slot))
          products += std::uint64_t{counts[slot]} * (kWidth - counts[slot]);
      const double expected =
          static_cast<double>(bank.arrays_in_use()) * sl.energy_per_base *
              static_cast<double>(kWidth) +
          static_cast<double>(products) / static_cast<double>(kWidth) *
              charge.cap_mean * charge.vdd * charge.vdd;

      PassResult pass;
      bank.backend().run_pass(read, mode, 8, Rng(3), 0, pass);
      EXPECT_EQ(pass.energy_joules, expected) << "read " << r;
    }
  }
}

// ------------------------------------------------------------ sparse merge --

/// A router churned until its id space is many times its live rows: each
/// cycle tombstones a block of live ids and re-appends the same sequences
/// under fresh ids (the hot bank recycles slots, and compaction folds it
/// into the cold banks' recycled slots).
void churn(ShardedAccelerator& router, std::size_t cycles, std::size_t block,
           std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c) {
    const auto live = router.live_segments();
    const std::size_t start = rng.below(live.size() - block);
    std::vector<std::uint64_t> ids;
    std::vector<Sequence> rows;
    for (std::size_t k = 0; k < block; ++k) {
      ids.push_back(live[start + k].first);
      rows.push_back(live[start + k].second);
    }
    router.remove_segments(ids);
    router.append_segments(rows);
    if (c % 5 == 4) router.compact();
  }
}

void expect_consistent(const QueryResult& result, std::size_t id_space) {
  ASSERT_EQ(result.decisions.size(), id_space);
  EXPECT_TRUE(std::is_sorted(result.matched_segments.begin(),
                             result.matched_segments.end()));
  EXPECT_EQ(result.matched_segments, set_bits(result.decisions));
}

/// Brute-force ED* truth: the ids of the live pairs within `threshold`
/// of `read`, ascending.
std::vector<std::size_t> truth_ids(
    const std::vector<std::pair<std::uint64_t, Sequence>>& live,
    const Sequence& read, std::size_t threshold) {
  std::vector<std::size_t> ids;
  for (const auto& [id, row] : live)
    if (ed_star(row, read) <= threshold)
      ids.push_back(static_cast<std::size_t>(id));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Thresholds: a tight one (a read matches its source row) and a loose one
// where about half of all rows match, so every bank contributes matches
// whose recycled-slot order differs from id order.
constexpr std::size_t kThresholds[] = {4, 26};

// After heavy churn (id space ~10x the live rows, slots recycled), the
// merged results are internally consistent and equal brute-force ED*
// truth over the live (id, segment) pairs; Full-mode results equal a
// fresh bank holding the same live pairs.
TEST(PassWords, ChurnedMergeMatchesTruthAndBitmap) {
  const std::vector<Sequence> segments = make_segments(60, 0xC4C4);
  const std::vector<Sequence> reads = make_reads(segments, 24, 0xC4C5);
  AsmcapConfig config = bank_config(16, 2);
  config.live.hot_array_rows = 16;
  config.live.hot_array_count = 2;
  for (const BackendKind kind :
       {BackendKind::Functional, BackendKind::Circuit}) {
    SCOPED_TRACE(to_string(kind));
    ShardedAccelerator router(config, 4);
    router.set_backend(kind);
    router.load_reference(segments);
    churn(router, 60, 8, 0xC4C6);
    const std::size_t id_space = router.loaded_segments();
    ASSERT_GE(id_space, 8 * router.live_segment_count());

    // The replay bank for Full mode (rotations + HDAC coins keyed by
    // global id): one fresh bank holding the live pairs at their ids,
    // which answers through its own rebase path, stream for stream.
    const auto live = router.live_segments();
    AsmcapConfig mono_config = config;
    mono_config.array_count = 8;
    AsmcapAccelerator mono(mono_config);
    mono.set_backend(kind);
    std::vector<std::uint64_t> ids;
    std::vector<Sequence> rows;
    for (const auto& [id, row] : live) {
      ids.push_back(id);
      rows.push_back(row);
    }
    mono.append_segments(rows, ids);

    for (const std::size_t t : kThresholds) {
      SCOPED_TRACE(t);
      const std::vector<QueryResult> baseline =
          router.search_batch(reads, t, StrategyMode::Baseline, 2);
      for (std::size_t i = 0; i < reads.size(); ++i) {
        expect_consistent(baseline[i], id_space);
        EXPECT_EQ(baseline[i].matched_segments, truth_ids(live, reads[i], t))
            << "read " << i;
      }
      for (const Sequence& read : reads) {
        const QueryResult a = router.search(read, t, StrategyMode::Full);
        const QueryResult b = mono.search(read, t, StrategyMode::Full);
        expect_consistent(a, id_space);
        EXPECT_EQ(a.matched_segments, b.matched_segments);
        EXPECT_EQ(a.decisions, b.decisions);
      }
    }
  }
}

// A single bank that recycles slots (so its layout is no longer the
// identity) rebases sparsely: same invariants, same truth.
TEST(PassWords, RecycledBankRebaseMatchesTruth) {
  const std::vector<Sequence> segments = make_segments(40, 0xB4B4);
  const std::vector<Sequence> reads = make_reads(segments, 12, 0xB4B5);
  AsmcapAccelerator bank(bank_config(16, 3));
  bank.set_backend(BackendKind::Functional);
  bank.load_reference(segments);
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> ids;
    std::vector<Sequence> rows;
    for (const auto& [id, row] : bank.live_segments())
      if (ids.size() < 6 && id % 7 == round % 7) {
        ids.push_back(id);
        rows.push_back(row);
      }
    if (ids.empty()) continue;
    bank.remove_segments(ids);
    bank.append_segments(rows);
  }
  ASSERT_FALSE(bank.identity_layout());
  const auto live = bank.live_segments();
  for (const std::size_t t : kThresholds) {
    SCOPED_TRACE(t);
    const std::vector<QueryResult> results =
        bank.search_batch(reads, t, StrategyMode::Baseline, 2);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      EXPECT_GT(results[i].decisions.size(), bank.loaded_segments());
      expect_consistent(results[i], results[i].decisions.size());
      EXPECT_EQ(results[i].matched_segments, truth_ids(live, reads[i], t))
          << "read " << i;
    }
  }
}

// The streaming service merges each read as its last shard finishes; on a
// churned database it must still equal search_batch bit for bit
// (decisions, match ids, energy, latency) on an identically churned twin.
TEST(PassWords, ServiceBitIdenticalToSearchBatchAfterChurn) {
  const std::vector<Sequence> segments = make_segments(60, 0x5E5E);
  const std::vector<Sequence> reads = make_reads(segments, 30, 0x5E5F);
  AsmcapConfig config = bank_config(16, 2);
  config.live.hot_array_rows = 16;
  config.live.hot_array_count = 2;
  ShardedAccelerator sync(config, 4);
  ShardedAccelerator async(config, 4);
  for (ShardedAccelerator* router : {&sync, &async}) {
    router->set_backend(BackendKind::Functional);
    router->load_reference(segments);
    churn(*router, 40, 8, 0x5E60);
  }
  const std::vector<QueryResult> expected =
      sync.search_batch(reads, 4, StrategyMode::Full, 1);

  SearchService service(async);
  SearchService::Options options;
  options.workers = 3;
  const std::vector<QueryResult> got =
      service.submit(reads, 4, StrategyMode::Full, options)->drain();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_consistent(got[i], async.loaded_segments());
    EXPECT_EQ(got[i].decisions, expected[i].decisions) << "read " << i;
    EXPECT_EQ(got[i].matched_segments, expected[i].matched_segments);
    EXPECT_EQ(got[i].energy_joules, expected[i].energy_joules);
    EXPECT_EQ(got[i].latency_seconds, expected[i].latency_seconds);
  }
}

}  // namespace
}  // namespace asmcap
