// Property tests of the live (mutable, epoch-snapshotted) database:
//  * epoch equivalence — after any append/delete/compact history, querying
//    the router is bit-identical (decisions, match ids, latency, ledger op
//    counts) to a fresh monolithic accelerator holding exactly the live
//    (id, segment) pairs, on every backend INCLUDING noisy circuit
//    sensing (per-id silicon keying makes noise placement-invariant);
//  * suffix-delete exactness — tombstoning a suffix leaves the bank
//    bit-identical to a fresh prefix load, energy included;
//  * pinned-ticket isolation — a SearchTicket launched against epoch E
//    returns epoch E's exact results no matter what mutations publish
//    while it is in flight;
//  * tombstone lifecycle — slot recycling, id stability, and the typed
//    DbError taxonomy;
//  * hot-bank overflow and compaction — staging-bank geometry changes
//    never change decisions;
//  * an epoch with no bank (every segment removed, then compacted)
//    searches to all-false on every path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/edam.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
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

class LiveDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2301);
    reference_ = generate_reference(64 * 50 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(50);

    Rng read_rng(2302);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 18; ++i) {
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

  std::vector<Sequence> first(std::size_t n) const {
    return std::vector<Sequence>(segments_.begin(), segments_.begin() + n);
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// After load + append + mid-database deletes + compact, the router must
// answer every query exactly like a fresh monolithic bank that holds the
// surviving (id, segment) pairs and nothing else — decisions, global
// match ids, latency, and ledger operation counts all equal, on the noisy
// circuit path too. This is the core guarantee of the live database: a
// mutation history is indistinguishable from the database it produced.
TEST_F(LiveDbTest, EpochEquivalentToFreshLoadOfLiveSegments) {
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  const Case cases[] = {{true, BackendKind::Circuit},
                       {false, BackendKind::Circuit},
                       {true, BackendKind::Functional}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.ideal ? "ideal" : "noisy");
    ShardedAccelerator router(bank_config(2, c.ideal), 2);
    router.set_backend(c.backend);
    router.set_error_profile(ErrorRates::condition_a());
    router.load_reference(first(30));
    const std::vector<std::uint64_t> fresh = router.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.begin() + 40));
    ASSERT_EQ(fresh.front(), 30u);
    router.remove_segments({3, 17, 25, 31});
    router.compact();
    ASSERT_EQ(router.live_segment_count(), 36u);

    // The replay bank: same seed (hence the same silicon root and query
    // streams), explicit ids at the router's surviving global ids.
    AsmcapAccelerator mono(bank_config(4, c.ideal));
    mono.set_backend(c.backend);
    mono.set_error_profile(ErrorRates::condition_a());
    std::vector<Sequence> live_rows;
    std::vector<std::uint64_t> live_ids;
    for (const auto& [id, row] : router.live_segments()) {
      live_ids.push_back(id);
      live_rows.push_back(row);
    }
    mono.append_segments(live_rows, live_ids);

    for (const Sequence& read : reads_) {
      const QueryResult a = router.search(read, 4, StrategyMode::Full);
      const QueryResult b = mono.search(read, 4, StrategyMode::Full);
      EXPECT_EQ(a.decisions, b.decisions);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
    }
    const ExecutionTotals& rt = router.totals();
    const ExecutionTotals& mt = mono.controller().totals();
    EXPECT_EQ(rt.queries, mt.queries);
    EXPECT_EQ(rt.searches, mt.searches);
    EXPECT_EQ(rt.hd_searches, mt.hd_searches);
    EXPECT_EQ(rt.rotation_searches, mt.rotation_searches);
    EXPECT_EQ(rt.latency_seconds, mt.latency_seconds);
  }
}

// Deleting a suffix of ids leaves the surviving rows in exactly the slots
// a fresh prefix load would use, so EVERYTHING must be bit-identical —
// energy included: a tombstoned row's all-ones mask has zero matchline
// swing, and a fully-dead array drops out of the SL-driver term.
TEST_F(LiveDbTest, SuffixDeleteBitIdenticalToPrefixLoadIncludingEnergy) {
  for (const bool ideal : {true, false}) {
    SCOPED_TRACE(ideal ? "ideal" : "noisy");
    AsmcapAccelerator pruned(bank_config(3, ideal));
    pruned.set_error_profile(ErrorRates::condition_a());
    pruned.load_reference(first(40));
    std::vector<std::uint64_t> tail;
    for (std::uint64_t id = 30; id < 40; ++id) tail.push_back(id);
    pruned.remove_segments(tail);

    AsmcapAccelerator fresh(bank_config(3, ideal));
    fresh.set_error_profile(ErrorRates::condition_a());
    fresh.load_reference(first(30));

    for (const Sequence& read : reads_) {
      const QueryResult a = pruned.search(read, 4, StrategyMode::Full);
      const QueryResult b = fresh.search(read, 4, StrategyMode::Full);
      ASSERT_EQ(a.decisions.size(), 40u);
      ASSERT_EQ(b.decisions.size(), 30u);
      for (std::size_t i = 0; i < 30; ++i)
        EXPECT_EQ(a.decisions[i], b.decisions[i]);
      for (std::size_t i = 30; i < 40; ++i) EXPECT_FALSE(a.decisions[i]);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
      EXPECT_EQ(a.energy_joules, b.energy_joules);
    }
  }
}

// A ticket submitted against epoch E must return epoch E's exact results
// even when appends, deletes, and a compaction all publish while it is in
// flight: the ticket pins the epoch snapshot at launch, and copy-on-write
// means no mutation can touch a pinned bank. The quiesced reference is an
// identical router that never mutates.
TEST_F(LiveDbTest, PinnedTicketIsIsolatedFromConcurrentMutations) {
  ShardedAccelerator quiet(bank_config(2), 2);
  quiet.load_reference(first(40));
  const std::vector<QueryResult> expected =
      quiet.search_batch(reads_, 4, StrategyMode::Full, 2);

  ShardedAccelerator live(bank_config(2), 2);
  live.load_reference(first(40));
  SearchService service(live);
  SearchService::Options options;
  options.workers = 2;
  auto ticket =
      service.submit_borrowed(reads_, 4, StrategyMode::Full, options);

  // Mutate while the ticket is in flight (whatever the interleaving, the
  // pinned epoch makes the outcome identical).
  live.append_segments(
      std::vector<Sequence>(segments_.begin() + 40, segments_.begin() + 48));
  live.remove_segments({0, 11, 39});
  live.compact();

  ticket->wait();
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const QueryResult& got = ticket->result(i);
    EXPECT_EQ(got.decisions, expected[i].decisions);
    EXPECT_EQ(got.matched_segments, expected[i].matched_segments);
    EXPECT_EQ(got.latency_seconds, expected[i].latency_seconds);
    EXPECT_EQ(got.energy_joules, expected[i].energy_joules);
  }

  // A search AFTER the mutations sees the new epoch: a wider id space and
  // silent tombstones.
  const QueryResult after = live.search(segments_[5], 0, StrategyMode::Full);
  EXPECT_EQ(after.decisions.size(), 48u);
  EXPECT_FALSE(after.decisions[0]);
  EXPECT_FALSE(after.decisions[11]);
  EXPECT_FALSE(after.decisions[39]);
  EXPECT_TRUE(after.decisions[5]);
}

// Slot recycling and the id lifecycle: a tombstoned slot is reused by the
// next append, its old id becomes Unknown (never reusable), double
// deletes and duplicate ids are typed errors, and decisions index the
// GLOBAL id space (recycled slots answer under their new id only).
TEST_F(LiveDbTest, TombstoneRecyclingKeepsIdsStable) {
  AsmcapAccelerator accel(bank_config(1));
  accel.load_reference(first(10));
  EXPECT_TRUE(accel.identity_layout());

  accel.remove_segments({3, 7});
  EXPECT_EQ(accel.live_segment_count(), 8u);
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Slots, not live rows.
  EXPECT_EQ(accel.segment_state(3), SegmentState::Dead);

  // A dead row never matches, even its exact content.
  const QueryResult dead = accel.search(segments_[3], 0, StrategyMode::Full);
  EXPECT_FALSE(dead.decisions[3]);

  // Recycle both tombstones; ids continue from the high-water mark.
  const std::vector<std::uint64_t> fresh = accel.append_segments(
      {segments_[40], segments_[41]});
  EXPECT_EQ(fresh, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Reused slots 3 and 7.
  EXPECT_FALSE(accel.identity_layout());
  EXPECT_EQ(accel.segment_state(3), SegmentState::Unknown);  // Recycled.
  EXPECT_EQ(accel.segment_state(10), SegmentState::Live);

  // The new rows answer under their NEW global ids.
  const QueryResult hit = accel.search(segments_[40], 0, StrategyMode::Full);
  ASSERT_EQ(hit.decisions.size(), 12u);
  EXPECT_TRUE(hit.decisions[10]);
  EXPECT_FALSE(hit.decisions[3]);

  try {
    accel.remove_segments({3});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }
  accel.remove_segments({10});
  try {
    accel.remove_segments({10});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DoubleDelete);
  }
  try {
    accel.append_segments({segments_[42]}, {5});  // Id 5 is still live.
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DuplicateId);
  }
}

// Hot-bank overflow folds the staging rows into the cold tier mid-append,
// and explicit compaction does the same at an epoch boundary; neither may
// change a single decision. Two routers with identical mutation history —
// one compacted, one not — must agree bit-for-bit.
TEST_F(LiveDbTest, HotBankOverflowAndCompactionAreDecisionNeutral) {
  AsmcapConfig config = bank_config(2);
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 2;  // Hot capacity 8 < the 20 appends.

  auto build = [&]() {
    auto router = std::make_unique<ShardedAccelerator>(config, 2);
    router->load_reference(first(25));
    router->append_segments(
        std::vector<Sequence>(segments_.begin() + 25, segments_.begin() + 45));
    router->remove_segments({2, 30, 44});
    return router;
  };
  auto plain = build();
  auto compacted = build();
  const std::uint64_t before = compacted->epoch();
  EXPECT_GT(compacted->compact(), before);
  // A second compact is a no-op: nothing is staged any more.
  EXPECT_EQ(compacted->compact(), compacted->epoch());

  EXPECT_EQ(plain->live_segment_count(), compacted->live_segment_count());
  EXPECT_EQ(plain->live_segments(), compacted->live_segments());

  const std::vector<QueryResult> a =
      plain->search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      compacted->search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
  }
}

// Removing every segment and compacting folds the hot bank into nothing,
// so the epoch holds no bank at all. Reads against it — sequential, batch
// and through the service — must merge to all-false decisions over the id
// space with zero energy and latency, and a later append must make the
// database searchable again.
TEST_F(LiveDbTest, EpochWithNoBankSearchesToAllFalse) {
  ShardedAccelerator router(bank_config(2), 2);
  const std::vector<std::uint64_t> ids = router.append_segments(first(6));
  router.remove_segments(ids);
  router.compact();
  ASSERT_EQ(router.active_shards(), 0u);
  EXPECT_EQ(router.live_segment_count(), 0u);

  const std::vector<bool> all_false(ids.size(), false);
  auto expect_empty = [&](const QueryResult& result) {
    EXPECT_EQ(result.decisions, all_false);
    EXPECT_TRUE(result.matched_segments.empty());
    EXPECT_EQ(result.energy_joules, 0.0);
    EXPECT_EQ(result.latency_seconds, 0.0);
  };
  expect_empty(router.search(segments_[0], 4, StrategyMode::Full, 2));
  for (const std::size_t workers : {1u, 3u})
    for (const QueryResult& result :
         router.search_batch(reads_, 4, StrategyMode::Full, workers))
      expect_empty(result);
  SearchService service(router);
  const std::vector<QueryResult> streamed =
      service.submit_borrowed(reads_, 4, StrategyMode::Full, {})->drain();
  ASSERT_EQ(streamed.size(), reads_.size());
  for (const QueryResult& result : streamed) expect_empty(result);

  const std::vector<std::uint64_t> back = router.append_segments(first(1));
  const QueryResult found = router.search(segments_[0], 4, StrategyMode::Full);
  EXPECT_EQ(found.matched_segments,
            std::vector<std::size_t>{static_cast<std::size_t>(back[0])});
}

// The typed error taxonomy shared by the ASMCap banks, the router, and
// the EDAM comparator.
TEST_F(LiveDbTest, DbErrorKindsAreShared) {
  AsmcapAccelerator accel(bank_config(1));
  try {
    accel.search(reads_[0], 4, StrategyMode::Full);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::NotLoaded);
  }
  accel.load_reference(first(8));
  try {
    accel.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
  try {
    accel.remove_segments({});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::EmptyMutation);
  }

  ShardedAccelerator router(bank_config(1), 2);
  router.load_reference(first(8));
  try {
    router.remove_segments({99});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }

  EdamConfig edam_config;
  edam_config.array_rows = 16;
  edam_config.array_cols = 64;
  edam_config.array_count = 1;
  EdamAccelerator edam(edam_config);
  edam.load_reference(first(8));
  try {
    edam.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
}

}  // namespace
}  // namespace asmcap
