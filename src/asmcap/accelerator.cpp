#include "asmcap/accelerator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "cam/periphery.h"

namespace asmcap {

namespace {
// Pass salts for the per-query RNG tree (see backend.h): ED* pass p forks
// stream p; the HD pass and the HDAC selection coins get their own salts,
// out of reach of any realistic rotation-schedule length.
constexpr std::uint64_t kHdPassSalt = 0x4844'0000ULL;
constexpr std::uint64_t kHdacSelectSalt = 0x5E1E'C700ULL;
// Salt of the construction-time array silicon streams (silicon_root_ fork
// per array index). Kept far above any global segment id so the per-row
// streams (forked per id) and the per-array streams never collide. The
// construction-time draw is decision-irrelevant — every written row is
// re-manufactured from its per-id stream, and unwritten rows never decide
// — it only has to be deterministic per array so clone() and lazy growth
// manufacture identical silicon in any order.
constexpr std::uint64_t kUnitSalt = 0x517E'C0DE'0000'0000ULL;
}  // namespace

AsmcapAccelerator::AsmcapAccelerator(AsmcapConfig config)
    : config_(config),
      controller_(config),
      timing_(config.process),
      silicon_root_(
          Rng(config.silicon_seed != 0 ? config.silicon_seed : config.seed)
              .fork(0x51C0)),
      next_auto_id_(static_cast<std::uint64_t>(config.segment_base)),
      rng_(config.seed) {
  validate(config_.process);
  circuit_backend_ =
      std::make_unique<CircuitBackend>(units_, dir_, config_.array_rows);
  functional_backend_ = std::make_unique<FunctionalBackend>(config_, dir_);
}

void AsmcapAccelerator::ensure_units(std::size_t arrays) {
  if (arrays > config_.array_count)
    throw DbError(DbErrorKind::CapacityExceeded,
                  "AsmcapAccelerator: array count exceeded");
  while (units_.size() < arrays) {
    Rng unit_rng = silicon_root_.fork(
        kUnitSalt + static_cast<std::uint64_t>(units_.size()));
    units_.emplace_back(config_.array_rows, config_.array_cols,
                        config_.process.charge, config_.ideal_sensing,
                        unit_rng);
  }
}

void AsmcapAccelerator::write_slot(std::size_t slot, std::uint64_t id,
                                   const Sequence& segment) {
  const std::size_t a = slot / config_.array_rows;
  const std::size_t r = slot % config_.array_rows;
  ensure_units(a + 1);
  if (slot < dir_.slots() && !dir_.slot_live(slot)) {
    // Recycling a tombstoned slot: the previous occupant's id is forgotten
    // for good (its state becomes Unknown — ids are never resurrected).
    id_to_slot_.erase(dir_.ids[slot]);
  }
  dir_.grow(slot + 1);
  if (a >= dir_.array_live.size()) dir_.array_live.resize(a + 1, 0);
  // The row's analog silicon is a pure function of its global id: the
  // segment decides identically in whichever slot, array, or bank it
  // lands (docs/determinism.md rule 8).
  Rng silicon = silicon_root_.fork(id);
  units_[a].write_row(r, segment, silicon);
  functional_backend_->write_slot(slot, segment);
  dir_.ids[slot] = id;
  dir_.set_live(slot, true);
  ++dir_.array_live[a];
  ++dir_.live_count;
  id_to_slot_[id] = slot;
  if (id != static_cast<std::uint64_t>(config_.segment_base) + slot)
    identity_layout_ = false;
  if (id + 1 > next_auto_id_) next_auto_id_ = id + 1;
}

void AsmcapAccelerator::book_write_cost(std::size_t count,
                                        std::size_t burst_rows) {
  // Every row write burns decoder+WL+SRAM energy; arrays write their rows
  // in parallel, so the burst latency is set by the fullest touched array.
  const WriteCostParams write_cost;
  load_energy_ += static_cast<double>(count) *
                  row_write_energy(config_.array_cols, write_cost);
  load_latency_ +=
      static_cast<double>(burst_rows) * write_cost.latency_per_row;
}

void AsmcapAccelerator::load_reference(const std::vector<Sequence>& segments) {
  if (dir_.slots() != 0)
    throw DbError(DbErrorKind::AlreadyLoaded,
                  "AsmcapAccelerator: reference already loaded");
  append_segments(segments);
}

std::vector<std::uint64_t> AsmcapAccelerator::append_segments(
    const std::vector<Sequence>& segments) {
  std::vector<std::uint64_t> ids(segments.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = next_auto_id_ + static_cast<std::uint64_t>(i);
  append_segments(segments, ids);
  return ids;
}

void AsmcapAccelerator::append_segments(
    const std::vector<Sequence>& segments,
    const std::vector<std::uint64_t>& ids) {
  if (segments.size() != ids.size())
    throw std::invalid_argument(
        "AsmcapAccelerator: append ids/segments size mismatch");
  if (segments.empty()) return;
  // Validate everything before touching any state (strong exception
  // safety, see db_error.h).
  for (const Sequence& segment : segments)
    if (segment.size() != config_.array_cols)
      throw std::invalid_argument(
          "AsmcapAccelerator: segment width mismatch");
  std::unordered_set<std::uint64_t> fresh;
  fresh.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (id < static_cast<std::uint64_t>(config_.segment_base))
      throw std::invalid_argument(
          "AsmcapAccelerator: segment id below segment_base");
    if (id_to_slot_.count(id) != 0 || !fresh.insert(id).second)
      throw DbError(DbErrorKind::DuplicateId,
                    "AsmcapAccelerator: segment id already known");
  }
  if (dir_.live_count + segments.size() > config_.capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "AsmcapAccelerator: reference exceeds capacity");

  // Target slots: recycled tombstones first (lowest slot first), then
  // fresh rows. The capacity check above guarantees enough of both.
  std::vector<std::size_t> targets;
  targets.reserve(segments.size());
  for (std::size_t slot = 0;
       slot < dir_.slots() && targets.size() < segments.size(); ++slot)
    if (!dir_.slot_live(slot)) targets.push_back(slot);
  for (std::size_t next = dir_.slots(); targets.size() < segments.size();
       ++next)
    targets.push_back(next);

  std::vector<std::size_t> burst_per_array;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    write_slot(targets[i], ids[i], segments[i]);
    const std::size_t a = targets[i] / config_.array_rows;
    if (a >= burst_per_array.size()) burst_per_array.resize(a + 1, 0);
    ++burst_per_array[a];
  }
  book_write_cost(segments.size(),
                  *std::max_element(burst_per_array.begin(),
                                    burst_per_array.end()));
}

void AsmcapAccelerator::remove_segments(
    const std::vector<std::uint64_t>& ids) {
  if (ids.empty())
    throw DbError(DbErrorKind::EmptyMutation,
                  "AsmcapAccelerator: remove_segments with no ids");
  // Validate everything before touching any state.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    const auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
      throw DbError(DbErrorKind::UnknownSegment,
                    "AsmcapAccelerator: unknown segment id");
    if (!dir_.slot_live(it->second) || !seen.insert(id).second)
      throw DbError(DbErrorKind::DoubleDelete,
                    "AsmcapAccelerator: segment already deleted");
  }
  std::vector<std::size_t> burst_per_array;
  for (const std::uint64_t id : ids) {
    const std::size_t slot = id_to_slot_.at(id);
    const std::size_t a = slot / config_.array_rows;
    const std::size_t r = slot % config_.array_rows;
    units_[a].invalidate_row(r);  // all-mismatch mask: zero search energy
    dir_.set_live(slot, false);
    --dir_.array_live[a];
    --dir_.live_count;
    if (a >= burst_per_array.size()) burst_per_array.resize(a + 1, 0);
    ++burst_per_array[a];
  }
  // Tombstoning writes the row's all-mismatch mask: same decoder+WL+SRAM
  // cost as a row write.
  book_write_cost(ids.size(),
                  *std::max_element(burst_per_array.begin(),
                                    burst_per_array.end()));
}

SegmentState AsmcapAccelerator::segment_state(std::uint64_t id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return SegmentState::Unknown;
  return dir_.slot_live(it->second) ? SegmentState::Live : SegmentState::Dead;
}

std::vector<std::pair<std::uint64_t, Sequence>>
AsmcapAccelerator::live_segments() const {
  std::vector<std::pair<std::uint64_t, Sequence>> out;
  out.reserve(dir_.live_count);
  for (std::size_t slot = 0; slot < dir_.slots(); ++slot) {
    if (!dir_.slot_live(slot)) continue;
    const std::size_t a = slot / config_.array_rows;
    const std::size_t r = slot % config_.array_rows;
    out.emplace_back(dir_.ids[slot], units_[a].array().row_segment(r));
  }
  return out;
}

std::unique_ptr<AsmcapAccelerator> AsmcapAccelerator::clone() const {
  auto copy = std::make_unique<AsmcapAccelerator>(config_);
  copy->rates_ = rates_;
  copy->backend_kind_ = backend_kind_;
  // Replay the live rows into the same slots: silicon is keyed per global
  // id, so the copy's analog state is identical where it matters (dead and
  // unwritten rows are masked out of every decision and charge exactly
  // zero search energy).
  for (std::size_t slot = 0; slot < dir_.slots(); ++slot) {
    if (!dir_.slot_live(slot)) continue;
    const std::size_t a = slot / config_.array_rows;
    const std::size_t r = slot % config_.array_rows;
    copy->write_slot(slot, dir_.ids[slot], units_[a].array().row_segment(r));
  }
  copy->dir_ = dir_;
  copy->id_to_slot_ = id_to_slot_;
  copy->functional_backend_->ensure_slots(dir_.slots());
  copy->next_auto_id_ = next_auto_id_;
  copy->identity_layout_ = identity_layout_;
  copy->load_energy_ = load_energy_;
  copy->load_latency_ = load_latency_;
  copy->batch_epoch_ = batch_epoch_;
  copy->rng_ = rng_;
  return copy;
}

const ExecutionBackend& AsmcapAccelerator::backend() const {
  check_loaded();
  if (backend_kind_ == BackendKind::Functional) return *functional_backend_;
  return *circuit_backend_;
}

void AsmcapAccelerator::check_loaded() const {
  if (dir_.slots() == 0)
    throw DbError(DbErrorKind::NotLoaded,
                  "AsmcapAccelerator: no reference loaded");
}

void AsmcapAccelerator::check_read(const Sequence& read) const {
  check_loaded();
  if (read.size() != config_.array_cols)
    throw std::invalid_argument("AsmcapAccelerator: read width mismatch");
}

QueryResult AsmcapAccelerator::execute(const ExecutionPlan& plan,
                                       const Rng& query_rng) const {
  const ExecutionBackend& backend = this->backend();

  QueryResult result;
  result.plan = plan.summary;

  // Per-thread pass scratch: the words keep their capacity from read to
  // read, so a steady-state read allocates only its own result.
  thread_local PassResult decided;
  thread_local PassResult pass;

  // ED* pass(es): the original read, plus the rotation schedule when TASR
  // triggered (Algorithm 2's OR-accumulation, a word at a time).
  double energy = 0.0;
  for (std::size_t p = 0; p < plan.ed_star_passes.size(); ++p) {
    PassResult& out = p == 0 ? decided : pass;
    backend.run_pass(plan.ed_star_passes[p], MatchMode::EdStar,
                     plan.threshold, query_rng, p, out);
    energy += out.energy_joules;
    if (p != 0)
      for (std::size_t w = 0; w < decided.words.size(); ++w)
        decided.words[w] |= pass.words[w];
  }

  // HDAC pass: HD search and probabilistic selection (Algorithm 1). Only
  // rows where HD and ED* disagree (the XOR bits) draw a coin; each coin is
  // forked from the row's global segment id, so the outcome does not
  // depend on which slot or bank stores it (a dead slot decides false on
  // both passes and draws no coin).
  if (plan.hd_pass) {
    backend.run_pass(plan.ed_star_passes.front(), MatchMode::Hamming,
                     plan.threshold, query_rng, kHdPassSalt, pass);
    energy += pass.energy_joules;
    const Hdac& hdac = planner().hdac();
    const Rng select_rng = query_rng.fork(kHdacSelectSalt);
    for (std::size_t w = 0; w < decided.words.size(); ++w) {
      const std::uint64_t hd = pass.words[w];
      for (std::uint64_t differ = decided.words[w] ^ hd; differ != 0;
           differ &= differ - 1) {
        const int bit = std::countr_zero(differ);
        const std::uint64_t mask = std::uint64_t{1} << bit;
        Rng coin = select_rng.fork(dir_.ids[w * 64 + bit]);
        if (hdac.combine((hd & mask) != 0, (decided.words[w] & mask) != 0,
                         plan.hdac_p, coin))
          decided.words[w] |= mask;
        else
          decided.words[w] &= ~mask;
      }
    }
  }

  // Match extraction: only the set bits are visited.
  result.decisions.assign(decided.slots, false);
  for (std::size_t w = 0; w < decided.words.size(); ++w)
    for (std::uint64_t bits = decided.words[w]; bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      result.decisions[slot] = true;
      result.matched_segments.push_back(slot);
    }

  result.latency_seconds =
      timing_.asmcap_query_latency(plan.summary.total_searches());
  result.energy_joules = energy;
  return result;
}

QueryResult AsmcapAccelerator::rebase_to_ids(QueryResult raw) const {
  // On a frozen database slot s holds id segment_base + s, so the raw
  // slot-indexed result already IS the id-indexed result.
  if (identity_layout_) return raw;
  // Map the matched slots through the directory and sort: the cost is the
  // match count, whatever the width of the id space.
  const std::uint64_t base =
      static_cast<std::uint64_t>(config_.segment_base);
  for (std::size_t& match : raw.matched_segments)
    match = static_cast<std::size_t>(dir_.ids[match] - base);
  std::sort(raw.matched_segments.begin(), raw.matched_segments.end());
  raw.decisions.assign(static_cast<std::size_t>(next_auto_id_ - base), false);
  for (const std::size_t id : raw.matched_segments) raw.decisions[id] = true;
  return raw;
}

QueryResult AsmcapAccelerator::search(const Sequence& read,
                                      std::size_t threshold,
                                      StrategyMode mode) {
  check_read(read);
  const ExecutionPlan plan = planner().build(read, threshold, rates_, mode);
  // One advance of the sequential stream per query; everything inside the
  // query forks from the resulting stream (see backend.h).
  const Rng query_rng = rng_.fork(rng_.next());
  QueryResult result = rebase_to_ids(execute(plan, query_rng));
  controller_.record(result.plan, result.latency_seconds,
                     result.energy_joules);
  return result;
}

std::vector<QueryResult> AsmcapAccelerator::search_batch(
    const std::vector<Sequence>& reads, std::size_t threshold,
    StrategyMode mode, std::size_t workers) {
  for (const Sequence& read : reads) check_read(read);
  if (reads.empty()) {
    check_loaded();
    return {};
  }

  // Per-read streams are forked from the current RNG state and a batch
  // epoch: deterministic in read index, independent of worker count, and
  // non-perturbing (fork() leaves rng_ untouched, so a batch never shifts
  // the sequential search() stream).
  const std::uint64_t epoch = ++batch_epoch_;

  std::vector<QueryResult> results(reads.size());
  worker_pool(workers).parallel_for(reads.size(), [&](std::size_t i) {
    const ExecutionPlan plan =
        planner().build(reads[i], threshold, rates_, mode);
    const Rng query_rng =
        rng_.fork((epoch << 32) | static_cast<std::uint64_t>(i));
    results[i] = rebase_to_ids(execute(plan, query_rng));
  });

  // Ledger totals are recorded sequentially in read order.
  for (const QueryResult& result : results)
    controller_.record(result.plan, result.latency_seconds,
                       result.energy_joules);
  return results;
}

}  // namespace asmcap
