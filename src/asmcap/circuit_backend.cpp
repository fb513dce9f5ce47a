#include "asmcap/backend.h"

namespace asmcap {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Circuit: return "circuit";
    case BackendKind::Functional: return "functional";
  }
  return "?";
}

CircuitBackend::CircuitBackend(const std::vector<AsmcapArrayUnit>& units,
                               const LiveDirectory& directory,
                               std::size_t array_rows)
    : units_(&units), dir_(&directory), array_rows_(array_rows) {}

void CircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                              std::size_t threshold, const Rng& query_rng,
                              std::uint64_t pass_salt,
                              PassResult& out) const {
  const Rng pass_rng = query_rng.fork(pass_salt);
  out.reset(dir_->slots());
  for (std::size_t a = 0; a < units_->size(); ++a) {
    // An array with no live rows is never driven: its SL drivers stay
    // quiet and its matchlines never charge — the live database pays only
    // for silicon that holds live segments.
    if (a >= dir_->array_live.size() || dir_->array_live[a] == 0) continue;
    const AsmcapArrayUnit& unit = (*units_)[a];
    double pass_energy = 0.0;
    // Tombstoned rows present the all-mismatch mask: their matchline
    // search energy is k*(n-k)/n at k == n — exactly zero.
    const RawSearch raw = unit.measure(read, mode, &pass_energy);
    out.energy_joules += pass_energy;
    for (std::size_t r = 0; r < array_rows_; ++r) {
      const std::size_t slot = a * array_rows_ + r;
      if (!dir_->slot_live(slot)) continue;
      // SA noise keyed by global segment id: placement-invariant, and a
      // dead slot's never-taken fork cannot shift any live slot's draw.
      Rng decide_rng = pass_rng.fork(dir_->ids[slot]);
      if (unit.decide(raw.counts[r], raw.vml[r], threshold, decide_rng))
        out.set(slot);
    }
  }
}

}  // namespace asmcap
