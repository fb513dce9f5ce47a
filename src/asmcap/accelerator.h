#pragma once
// Top-level ASMCap accelerator (paper Fig. 4a): global buffer + controller
// + a bank of ASMCap arrays, structured as a layered execution engine:
//
//   QueryPlanner  — turns (read, T, mode) into an immutable ExecutionPlan
//   ExecutionBackend — runs the plan's passes (cell-accurate CircuitBackend
//                      or the fast FunctionalBackend)
//   batch engine  — fans a batch of reads across a worker pool with
//                   deterministic per-read RNG forking, so search_batch
//                   results are identical for any worker count
//
// The reference is a LIVE database (docs/architecture.md "Live database"):
// load_reference seeds it, append_segments adds rows (re-using tombstoned
// row slots first), remove_segments tombstones rows — dead rows are masked
// out of decisions, draw no RNG forks, charge exactly zero matchline
// energy, and an array whose rows are all dead is skipped whole (no
// SL-driver energy). Every segment gets a stable GLOBAL id; per-decision
// RNG streams AND the row's manufactured silicon are keyed by that id
// (config.silicon_seed), so a segment decides identically wherever it is
// stored — the invariant behind the sharded router's epoch scheme and
// determinism rule 8. Mutation errors are typed (asmcap/db_error.h) and
// validated in full before any state changes.
//
// Ownership: the accelerator owns its array units, backends, controller,
// and session pool; backends hold non-owning references into it (hence
// not movable). Thread-safety: the mutating entry points (load_reference,
// append_segments, remove_segments, search, search_batch, set_*) belong
// to one control thread at a time; execute() is const and thread-safe and
// is what the batch engine, the sharded router, and the streaming service
// fan across workers. Mutations must not run while this bank has
// execute() calls in flight — the sharded router guarantees that by
// mutating clones and publishing them as a new epoch. Reentrancy: never
// call back into the accelerator's blocking entry points from inside a
// pool task — parallel_for is not reentrant (see util/thread_pool.h).
// RNG discipline: docs/determinism.md.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asmcap/array_unit.h"
#include "asmcap/backend.h"
#include "asmcap/config.h"
#include "asmcap/controller.h"
#include "asmcap/db_error.h"
#include "asmcap/planner.h"
#include "circuit/timing.h"
#include "genome/edits.h"
#include "genome/sequence.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace asmcap {

/// Result of one read query. From search()/search_batch(), decisions are
/// indexed by (global id - segment_base) over the bank's id space and
/// matched_segments holds those indices ascending; on a frozen database
/// that is exactly the historical per-segment bitmap. From the const
/// execute() entry point, decisions are row-SLOT-indexed (the sharded
/// router maps slots to global ids through the bank's LiveDirectory).
struct QueryResult {
  /// Global ids of the segments whose rows reported 'match'.
  std::vector<std::size_t> matched_segments;
  /// Per-segment decision bitmap (see above; dead segments are false).
  std::vector<bool> decisions;
  QueryPlan plan;
  double latency_seconds = 0.0;
  double energy_joules = 0.0;
};

/// Lifecycle of a global segment id within one bank.
enum class SegmentState : std::uint8_t {
  Unknown,  ///< Never stored here (or its tombstoned slot was recycled).
  Live,
  Dead,  ///< Tombstoned; the id is never reused.
};

class AsmcapAccelerator {
 public:
  explicit AsmcapAccelerator(AsmcapConfig config);

  // Not movable: the backends hold pointers into units_ and the live
  // directory, which a move would leave dangling.
  AsmcapAccelerator(AsmcapAccelerator&&) = delete;
  AsmcapAccelerator& operator=(AsmcapAccelerator&&) = delete;

  /// Seeds the database with `segments` (each must match the array width),
  /// assigning global ids segment_base .. segment_base + n. Only valid on
  /// an empty database (DbErrorKind::AlreadyLoaded otherwise) — use
  /// append_segments to grow it afterwards.
  void load_reference(const std::vector<Sequence>& segments);

  /// Appends segments with auto-assigned global ids (returned, ascending).
  /// Tombstoned row slots are recycled first (lowest slot first), then
  /// fresh rows are allocated; arrays are manufactured on demand. Throws
  /// DbError (CapacityExceeded) when the live count would exceed
  /// capacity_segments(); validation happens before any state changes.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);
  /// Appends with explicit (fresh, never-seen) global ids — the sharded
  /// router's path, and the replay path of the epoch-equivalence tests.
  void append_segments(const std::vector<Sequence>& segments,
                       const std::vector<std::uint64_t>& ids);

  /// Tombstones the given global ids. DbError: UnknownSegment for an id
  /// this bank never held, DoubleDelete for an already-dead id (also for
  /// duplicates within one call); nothing changes when it throws.
  void remove_segments(const std::vector<std::uint64_t>& ids);

  SegmentState segment_state(std::uint64_t id) const;
  /// The live (id, segment) pairs, ascending by row slot.
  std::vector<std::pair<std::uint64_t, Sequence>> live_segments() const;

  /// Deep copy with the exact same row layout, ids, tombstones, silicon
  /// (per-id keyed, so replaying the writes reproduces it), RNG state, and
  /// load ledger — the copy-on-write primitive of the sharded router's
  /// epoch scheme: search results on the clone are bit-identical to the
  /// original, energy included.
  std::unique_ptr<AsmcapAccelerator> clone() const;

  /// True while every slot s still holds id segment_base + s (always true
  /// for a frozen database; cleared by slot recycling or explicit
  /// out-of-order ids). When true, a slot-indexed execute() result is
  /// already id-indexed.
  bool identity_layout() const { return identity_layout_; }

  /// Sets the workload error profile used by the offline pre-processing of
  /// HDAC's p and TASR's T_l. Defaults to Condition A rates.
  void set_error_profile(const ErrorRates& rates) { rates_ = rates; }
  const ErrorRates& error_profile() const { return rates_; }

  /// Selects the execution backend for subsequent searches. The circuit
  /// backend (default) is cell-accurate; the functional backend computes
  /// the same decisions (identically under ideal_sensing) an order of
  /// magnitude faster. May be switched at any time.
  void set_backend(BackendKind kind) { backend_kind_ = kind; }
  BackendKind backend_kind() const { return backend_kind_; }
  /// The active backend (valid once the database is non-empty).
  const ExecutionBackend& backend() const;

  /// Searches one read against every live segment.
  QueryResult search(const Sequence& read, std::size_t threshold,
                     StrategyMode mode);

  /// Searches a batch of reads, fanning them across `workers` threads.
  /// Each read draws from its own deterministically forked RNG stream, so
  /// the results are identical for any worker count (and never perturb the
  /// accelerator's sequential RNG state). Ledger totals are recorded in
  /// read order.
  std::vector<QueryResult> search_batch(const std::vector<Sequence>& reads,
                                        std::size_t threshold,
                                        StrategyMode mode,
                                        std::size_t workers = 1);

  /// Runs one materialised plan with an explicit query stream. Const and
  /// thread-safe: it never touches the ledger, the sequential RNG, or any
  /// other shared mutable state, and `query_rng` is only forked, never
  /// advanced. Decisions are row-SLOT-indexed (see QueryResult). This is
  /// the entry point the sharded router fans across banks (every bank
  /// executing the same plan against the same stream).
  QueryResult execute(const ExecutionPlan& plan, const Rng& query_rng) const;

  /// The session-owned worker pool (see SessionPool), reused across
  /// search_batch/map_batch calls. NOTE: ThreadPool::parallel_for is not
  /// reentrant — never call back into the pool from inside a task it is
  /// running.
  ThreadPool& worker_pool(std::size_t workers = 0) {
    return pool_.get(workers);
  }

  /// Allocated row slots (live + tombstoned). On a frozen database this is
  /// the loaded segment count, as it always was.
  std::size_t loaded_segments() const { return dir_.slots(); }
  std::size_t live_segment_count() const { return dir_.live_count; }
  /// Rows still available for appends (recycled tombstones + fresh rows).
  std::size_t free_capacity() const {
    return config_.capacity_segments() - dir_.live_count;
  }
  /// Arrays holding at least one live row — the arrays that pay SL-driver
  /// energy on a pass.
  std::size_t arrays_in_use() const { return dir_.arrays_in_use(); }
  /// Slot-indexed id / tombstone tables (what the router uses to map an
  /// execute() result's slots to global ids).
  const LiveDirectory& directory() const { return dir_; }
  /// Cumulative cost of loading + appending reference rows (decoder + WL +
  /// SRAM writes; rows of different arrays are written in parallel).
  double load_energy_joules() const { return load_energy_; }
  double load_latency_seconds() const { return load_latency_; }
  const AsmcapConfig& config() const { return config_; }
  const Controller& controller() const { return controller_; }
  Controller& controller() { return controller_; }
  const QueryPlanner& planner() const { return controller_.planner(); }
  const TimingModel& timing() const { return timing_; }

 private:
  void check_read(const Sequence& read) const;
  void check_loaded() const;
  void ensure_units(std::size_t arrays);
  /// The shared write path: stores (id, segment) at `slot`, re-manufactures
  /// the row's silicon from the per-id stream, and updates the directory
  /// and the packed functional row. No cost accounting.
  void write_slot(std::size_t slot, std::uint64_t id,
                  const Sequence& segment);
  /// Converts a slot-indexed execute() result into the id-indexed shape
  /// search()/search_batch() return. Identity on a frozen database.
  QueryResult rebase_to_ids(QueryResult raw) const;
  /// Cost accounting of one append burst (count rows, the fullest touched
  /// array writing `burst_rows` of them sequentially).
  void book_write_cost(std::size_t count, std::size_t burst_rows);

  AsmcapConfig config_;
  ErrorRates rates_ = ErrorRates::condition_a();
  Controller controller_;
  TimingModel timing_;
  /// Root of the manufactured-silicon stream tree
  /// (Rng(silicon_seed or seed).fork(0x51C0)); row silicon forks per
  /// global id, construction-time array silicon per array index.
  Rng silicon_root_;
  std::vector<AsmcapArrayUnit> units_;  ///< Manufactured on demand.
  LiveDirectory dir_;
  std::unordered_map<std::uint64_t, std::size_t> id_to_slot_;
  std::unique_ptr<CircuitBackend> circuit_backend_;
  std::unique_ptr<FunctionalBackend> functional_backend_;
  BackendKind backend_kind_ = BackendKind::Circuit;
  std::uint64_t next_auto_id_;
  bool identity_layout_ = true;
  double load_energy_ = 0.0;
  double load_latency_ = 0.0;
  std::uint64_t batch_epoch_ = 0;
  Rng rng_;
  SessionPool pool_;
};

}  // namespace asmcap
