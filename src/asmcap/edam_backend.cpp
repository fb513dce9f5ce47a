// EDAM execution backends (see backend.h): the comparator's two paths
// through the shared ExecutionBackend seam. Both follow the engine's RNG
// discipline — per-decision streams forked from the pass stream, keyed by
// global segment id (docs/determinism.md) — so EDAM decisions are
// worker-count- and query-order-invariant like ASMCap's.

#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"

namespace asmcap {

EdamCircuitBackend::EdamCircuitBackend(
    const PackedRowMatrix& rows,
    const std::vector<CurrentArrayReadout>& readouts, std::size_t array_rows,
    bool ideal_sensing)
    : rows_(&rows),
      readouts_(&readouts),
      array_rows_(array_rows),
      ideal_sensing_(ideal_sensing) {}

void EdamCircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                                  std::size_t threshold, const Rng& query_rng,
                                  std::uint64_t pass_salt,
                                  PassResult& out) const {
  if (read.size() != rows_->cols())
    throw std::invalid_argument("EdamCircuitBackend: read width mismatch");
  const Rng pass_rng = query_rng.fork(pass_salt);
  const std::size_t rows = rows_->rows();
  out.reset(rows);
  // One shared PackedReadView per pass; each row's mismatch mask comes
  // from its packed words.
  const PackedReadView view(read, mode != MatchMode::Hamming);
  for (std::size_t g = 0; g < rows; ++g) {
    const BitVec mask = row_mismatch_mask(rows_->row(g), view, mode);
    // Sensing noise keyed by global segment id: placement-invariant.
    Rng decide_rng = pass_rng.fork(static_cast<std::uint64_t>(g));
    double row_energy = 0.0;
    const RowDecision decision =
        (*readouts_)[g / array_rows_].measure_row(
            g % array_rows_, mask, threshold, decide_rng, &row_energy);
    out.energy_joules += row_energy;
    if (ideal_sensing_ ? mask.popcount() <= threshold : decision.match)
      out.set(g);
  }
}

EdamFunctionalBackend::EdamFunctionalBackend(
    const PackedRowMatrix& rows, const CurrentDomainParams& params)
    : rows_(&rows), params_(params) {}

void EdamFunctionalBackend::run_pass(const Sequence& read, MatchMode mode,
                                     std::size_t threshold,
                                     const Rng& /*query_rng*/,
                                     std::uint64_t /*pass_salt*/,
                                     PassResult& out) const {
  const std::size_t rows = rows_->rows();
  const std::size_t cols = rows_->cols();
  if (read.size() != cols)
    throw std::invalid_argument("EdamFunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed segment matrix into per-thread
  // count scratch.
  const PackedReadView view(read, mode != MatchMode::Hamming);
  thread_local std::vector<std::uint32_t> counts;
  if (counts.size() < rows) counts.resize(rows);
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      rows_->data(), rows, view, counts.data());

  // Energy stays a per-row sum in row order: that is what keeps it
  // bit-identical to EdamCircuitBackend's row-by-row readout.
  out.reset(rows);
  for (std::size_t g = 0; g < rows; ++g) {
    if (counts[g] <= threshold) out.set(g);
    out.energy_joules += current_row_search_energy(counts[g], cols, params_);
  }
}

}  // namespace asmcap
