#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"

namespace asmcap {

FunctionalBackend::FunctionalBackend(const AsmcapConfig& config,
                                     const PackedRowMatrix& rows,
                                     const LiveDirectory& directory)
    : rows_(&rows),
      dir_(&directory),
      charge_(config.process.charge),
      sl_params_() {}

void FunctionalBackend::run_pass(const Sequence& read, MatchMode mode,
                                 std::size_t threshold,
                                 const Rng& /*query_rng*/,
                                 std::uint64_t /*pass_salt*/,
                                 PassResult& out) const {
  const std::size_t rows = rows_->rows();
  const std::size_t cols = rows_->cols();
  if (read.size() != cols)
    throw std::invalid_argument("FunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed slot matrix (tombstoned slots are
  // counted too — cheaper than scattering — and masked below). The
  // Hamming kernels read only the packed read, so their view skips the
  // neighbour alignments.
  const PackedReadView view(read, mode != MatchMode::Hamming);
  thread_local std::vector<std::uint32_t> counts;
  if (counts.size() < rows) counts.resize(rows);
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      rows_->data(), rows, view, counts.data());

  // Decisions a word at a time, masked by the live words; matchline
  // energy as the exact integer sum of k(n-k) over live rows.
  out.reset(rows);
  const std::uint64_t n = cols;
  std::uint64_t mismatch_products = 0;
  for (std::size_t w = 0; w < out.words.size(); ++w) {
    const std::uint64_t live = dir_->live_word(w);
    if (live == 0) continue;
    const std::size_t first = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, rows - first);
    const std::uint32_t* row_counts = counts.data() + first;
    std::uint64_t hits = 0;
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::uint64_t k = row_counts[j];
      const std::uint64_t alive = 0 - ((live >> j) & 1U);  // all ones if live
      hits |= static_cast<std::uint64_t>(k <= threshold) << j;
      mismatch_products += (k * (n - k)) & alive;
    }
    out.words[w] = hits & live;
  }
  // Every array holding at least one live row drives its search lines once
  // per pass, whichever backend evaluates the rows; all-dead arrays are
  // never driven (same SL gating as the circuit path).
  out.energy_joules =
      static_cast<double>(dir_->arrays_in_use()) * sl_params_.energy_per_base *
          static_cast<double>(cols) +
      static_cast<double>(mismatch_products) / static_cast<double>(cols) *
          charge_.cap_mean * charge_.vdd * charge_.vdd;
}

}  // namespace asmcap
