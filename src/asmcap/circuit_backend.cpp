#include <stdexcept>

#include "asmcap/backend.h"

namespace asmcap {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Circuit: return "circuit";
    case BackendKind::Functional: return "functional";
  }
  return "?";
}

BitVec row_mismatch_mask(const std::uint64_t* row, const PackedReadView& view,
                         MatchMode mode) {
  thread_local std::vector<std::uint64_t> flags;
  flags.resize(view.words);
  if (mode == MatchMode::EdStar)
    ed_star_mismatch_words(row, view, flags.data());
  else
    hamming_mismatch_words(row, view, flags.data());
  return lane_flags_to_bitvec(flags.data(), view.n);
}

CircuitBackend::CircuitBackend(const AsmcapConfig& config,
                               const PackedRowMatrix& rows,
                               const std::vector<ChargeArrayReadout>& readouts,
                               const LiveDirectory& directory)
    : rows_(&rows),
      readouts_(&readouts),
      dir_(&directory),
      array_rows_(config.array_rows),
      ideal_sensing_(config.ideal_sensing),
      sl_energy_(SearchlineDriverParams{}.energy_per_base *
                 static_cast<double>(config.array_cols)) {}

void CircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                              std::size_t threshold, const Rng& query_rng,
                              std::uint64_t pass_salt,
                              PassResult& out) const {
  if (read.size() != rows_->cols())
    throw std::invalid_argument("CircuitBackend: read width mismatch");
  const Rng pass_rng = query_rng.fork(pass_salt);
  out.reset(dir_->slots());
  // One shared PackedReadView per pass: the read-derived kernel work is
  // done once for the whole bank, not once per row.
  const PackedReadView view(read, mode != MatchMode::Hamming);
  for (std::size_t a = 0; a < readouts_->size(); ++a) {
    // An array with no live rows is never driven: its SL drivers stay
    // quiet and its matchlines never charge — the live database pays only
    // for silicon that holds live segments.
    if (a >= dir_->array_live.size() || dir_->array_live[a] == 0) continue;
    const ChargeArrayReadout& readout = (*readouts_)[a];
    double pass_energy = sl_energy_;
    for (std::size_t r = 0; r < array_rows_; ++r) {
      const std::size_t slot = a * array_rows_ + r;
      if (slot >= dir_->slots()) break;
      if (!dir_->slot_live(slot)) continue;
      const BitVec mask = row_mismatch_mask(rows_->row(slot), view, mode);
      const std::size_t count = mask.popcount();
      // Matchline energy per row (paper Eq. 1 with M = 1).
      pass_energy += readout.matchline(r).search_energy(count);
      // Ideal sensing decides on the count alone, so the row is never
      // settled.
      bool match = ChargeArrayReadout::ideal_decision(count, threshold);
      if (!ideal_sensing_) {
        // SA noise keyed by global segment id: placement-invariant, and a
        // dead slot's never-taken fork cannot shift any live slot's draw.
        Rng decide_rng = pass_rng.fork(dir_->ids[slot]);
        match = readout.decide(readout.settle_row(r, mask), threshold,
                               decide_rng);
      }
      if (match) out.set(slot);
    }
    out.energy_joules += pass_energy;
  }
}

}  // namespace asmcap
