#pragma once
// Execution backends: the layer between a materialised ExecutionPlan and
// the per-segment match decisions (engine layering: planner -> backend ->
// batch engine). Two implementations share one interface:
//
//  * CircuitBackend — cell-accurate: every pass builds each live row's
//    mismatch mask and settles it over that row's manufactured silicon
//    (capacitor mismatch, settled matchline voltages, SA noise unless
//    ideal_sensing). This is the fidelity path the paper's accuracy claims
//    rest on.
//  * FunctionalBackend — fast: the same match decisions computed with the
//    word-parallel ED*/Hamming kernels and nominal analytic energy, an
//    order of magnitude faster for large sweeps. Under ideal_sensing the
//    two backends are decision-identical (enforced by test_engine).
//
// The EDAM comparator runs through the same seam with its own pair:
//
//  * EdamCircuitBackend — cell-accurate current-domain sensing (pre-charge,
//    discharge, sample-and-hold) via CurrentArrayReadout::measure_row.
//  * EdamFunctionalBackend — the packed word-parallel kernels with the
//    count-pure current-domain energy model (bit-identical energy to the
//    circuit path; decision-identical under ideal_sensing, enforced by
//    test_edam).
//
// Ownership: backends are owned by their accelerator and hold non-owning
// references into it and own no rows. A bank's bases live once, in the
// accelerator's PackedRowMatrix, which both backends of a pair sweep; the
// circuit backends also read the accelerator's per-array readout silicon,
// and the ASMCap pair reads its LiveDirectory. The accelerator must
// outlive them.
// Thread-safety: run_pass is const and thread-safe — concurrent batch
// workers share one backend, each supplying its own forked RNG stream.
// Mutations (which rewrite the directory, packed rows and silicon) never run
// against a backend with passes in flight: the sharded router mutates
// CLONES and publishes them as a new epoch, so in-flight work only ever
// reads immutable snapshots (docs/architecture.md "Live database").
// Reentrancy: run_pass never dispatches work to a pool, so it is safe to
// call from inside pool tasks (the service does exactly that).
//
// RNG discipline (specified in full in docs/determinism.md): a pass never
// draws from the query stream sequentially. It forks a pass stream
// (query_rng.fork(pass_salt)) and then forks one decision stream per row,
// keyed by the row's *global* segment id (segment_base + local id). Every
// decision is therefore a pure function of (query stream, pass, global
// segment) — independent of segment placement, bank layout, and
// evaluation order. This is what makes the sharded accelerator's
// decisions invariant in shard count and the streaming service's
// decisions invariant in completion order.
//
// Cost model: a read costs the rows it sweeps and the matches it returns,
// never the width of the global id space (which every re-append grows).
// Decisions travel as 64-bit words (PassResult) in caller-owned results
// reused pass to pass; the functional path keeps its per-row counts in
// per-thread scratch, so a steady-state pass allocates nothing. The
// accelerator combines passes a word at a time (rotation OR, HDAC coins
// only on HD/ED* XOR bits, extraction of set bits only), and the bank
// rebase and the router merge map just the matched slots to global ids
// and sort them (docs/architecture.md "What a read costs").

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/kernels.h"
#include "asmcap/config.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "cam/periphery.h"
#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// Which execution backend an accelerator routes its passes through.
enum class BackendKind : std::uint8_t { Circuit, Functional };

const char* to_string(BackendKind kind);

/// Decision words covering `slots` slots (64 slots per word).
constexpr std::size_t decision_words(std::size_t slots) {
  return (slots + 63) / 64;
}

/// Per-slot live-database directory shared by an accelerator and its
/// backends (slot = array * array_rows + row, allocated in fill order).
/// The accelerator mutates it on the control plane (append/delete); the
/// backends read it inside run_pass. A tombstoned slot keeps its last id
/// (results stay sized by slot) but is masked out of decisions and
/// matchline energy, and an array whose live count drops to zero is
/// skipped entirely — no SL-driver energy for dead silicon. Liveness is
/// kept as 64-slot words (the PassResult layout) so a pass masks its
/// decisions a word at a time.
struct LiveDirectory {
  std::vector<std::uint64_t> ids;         ///< Global segment id per slot.
  std::vector<std::uint64_t> live_words;  ///< Bit per slot: set = live.
  std::vector<std::size_t> array_live;    ///< Live rows per array.
  std::size_t live_count = 0;

  std::size_t slots() const { return ids.size(); }
  /// Grows the tables to `n` slots; new slots are tombstones.
  void grow(std::size_t n) {
    if (n <= ids.size()) return;
    ids.resize(n, 0);
    live_words.resize(decision_words(n), 0);
  }
  /// Liveness word `w` (slots [64w, 64w + 64)); 0 past the end.
  std::uint64_t live_word(std::size_t w) const {
    return w < live_words.size() ? live_words[w] : 0;
  }
  bool slot_live(std::size_t slot) const {
    return (live_word(slot / 64) >> (slot % 64)) & 1U;
  }
  void set_live(std::size_t slot, bool live) {
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (live)
      live_words[slot / 64] |= bit;
    else
      live_words[slot / 64] &= ~bit;
  }
  std::size_t arrays_in_use() const {
    std::size_t used = 0;
    for (const std::size_t rows : array_live)
      if (rows != 0) ++used;
    return used;
  }
};

/// Result of one array pass over every allocated row slot, as 64-bit
/// decision words: bit (slot % 64) of words[slot / 64] is the slot's
/// decision at the threshold. Tombstoned slots and the tail bits past
/// `slots` are always 0. Decisions are SLOT-indexed: on a frozen (never
/// mutated) database slot == local segment id; after mutations the caller
/// maps slots to global ids through the LiveDirectory. Callers reuse one
/// result across passes so the words keep their capacity.
struct PassResult {
  std::vector<std::uint64_t> words;  ///< Decision bits, 64 slots per word.
  std::size_t slots = 0;
  double energy_joules = 0.0;  ///< SL-driver + matchline energy of the pass.

  /// Sizes the result for `n` slots, every decision false, no energy.
  void reset(std::size_t n) {
    words.assign(decision_words(n), 0);
    slots = n;
    energy_joules = 0.0;
  }
  bool decision(std::size_t slot) const {
    return (words[slot / 64] >> (slot % 64)) & 1U;
  }
  void set(std::size_t slot) {
    words[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
};

/// Mismatch mask (the cell outputs O driving the matchline) of one packed
/// row against `view` in `mode`: what both circuit backends settle over a
/// row's manufactured silicon. `view` needs its neighbour alignments for
/// ED* mode only.
BitVec row_mismatch_mask(const std::uint64_t* row, const PackedReadView& view,
                         MatchMode mode);

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;
  virtual std::size_t segment_count() const = 0;

  /// One search pass into `out` (reset, then filled): per-slot decision
  /// words at `threshold` (indexed by local slot; the global id only salts
  /// the RNG) and the pass energy. Must be thread-safe; per-decision SA
  /// noise is forked from `query_rng.fork(pass_salt)` per global segment
  /// (unused by paths that decide ideally). `query_rng` is never advanced.
  virtual void run_pass(const Sequence& read, MatchMode mode,
                        std::size_t threshold, const Rng& query_rng,
                        std::uint64_t pass_salt, PassResult& out) const = 0;
};

/// Cell-accurate backend over the accelerator's packed rows and per-array
/// charge-domain readouts. Holds non-owning references into the
/// accelerator (the row matrix, the readout vector and the live directory
/// — stable objects whose contents the accelerator mutates on the control
/// plane); the accelerator must outlive it. A pass shares one
/// PackedReadView across the bank, builds each live row's mismatch mask
/// from the packed row and settles it over that row's capacitors. An array
/// with zero live rows is skipped whole — no SL-driver energy — and a
/// tombstoned row is never evaluated: it decides nothing, draws no RNG
/// fork (per-decision streams are pure per-id forks, so skipping shifts no
/// other draw) and adds no matchline energy (a dead row presents the
/// all-mismatch mask, whose energy k(n−k)/n at k = n is exactly 0). A
/// pass's energy sums, per array, the SL drive and then the live rows in
/// ascending order.
class CircuitBackend : public ExecutionBackend {
 public:
  CircuitBackend(const AsmcapConfig& config, const PackedRowMatrix& rows,
                 const std::vector<ChargeArrayReadout>& readouts,
                 const LiveDirectory& directory);

  const char* name() const override { return "circuit"; }
  std::size_t segment_count() const override { return dir_->slots(); }
  void run_pass(const Sequence& read, MatchMode mode, std::size_t threshold,
                const Rng& query_rng, std::uint64_t pass_salt,
                PassResult& out) const override;

 private:
  const PackedRowMatrix* rows_;
  const std::vector<ChargeArrayReadout>* readouts_;
  const LiveDirectory* dir_;
  std::size_t array_rows_;
  bool ideal_sensing_;
  double sl_energy_;  ///< SL-driver energy of one array drive.
};

/// Fast functional backend: SIMD-dispatched block kernels
/// (align/kernels.h) over the accelerator's row-major 2-bit packed slot
/// matrix, ideal (noise-free) decisions, nominal analytic energy. Each
/// pass builds one PackedReadView — the read-derived neighbour alignments
/// are computed once per (read, rotation), not once per (segment, read).
/// Tombstoned slots are masked out of decisions and row energy by the
/// directory's live words, and SL-driver energy is charged only for arrays
/// with at least one live row. Matchline energy is booked in the count
/// domain (paper Eq. 1 with nominal capacitors): the pass sums k(n−k) over
/// its live rows as an exact integer and multiplies by C·V²/n once, so a
/// pass's energy is
///   arrays_in_use · E_SL · n + (Σ k(n−k)) / n · C · V²
/// whatever order the rows were counted in.
class FunctionalBackend : public ExecutionBackend {
 public:
  FunctionalBackend(const AsmcapConfig& config, const PackedRowMatrix& rows,
                    const LiveDirectory& directory);

  const char* name() const override { return "functional"; }
  std::size_t segment_count() const override { return rows_->rows(); }
  void run_pass(const Sequence& read, MatchMode mode, std::size_t threshold,
                const Rng& query_rng, std::uint64_t pass_salt,
                PassResult& out) const override;

 private:
  const PackedRowMatrix* rows_;
  const LiveDirectory* dir_;
  ChargeDomainParams charge_;
  SearchlineDriverParams sl_params_;
};

/// Cell-accurate EDAM backend: current-domain sensing of the accelerator's
/// packed rows over its manufactured CurrentArrayReadout bank. Holds
/// non-owning references into the EdamAccelerator; the accelerator must
/// outlive it.
class EdamCircuitBackend : public ExecutionBackend {
 public:
  EdamCircuitBackend(const PackedRowMatrix& rows,
                     const std::vector<CurrentArrayReadout>& readouts,
                     std::size_t array_rows, bool ideal_sensing);

  const char* name() const override { return "edam-circuit"; }
  std::size_t segment_count() const override { return rows_->rows(); }
  void run_pass(const Sequence& read, MatchMode mode, std::size_t threshold,
                const Rng& query_rng, std::uint64_t pass_salt,
                PassResult& out) const override;

 private:
  const PackedRowMatrix* rows_;
  const std::vector<CurrentArrayReadout>* readouts_;
  std::size_t array_rows_;
  bool ideal_sensing_;
};

/// Fast EDAM backend: word-parallel kernels over the accelerator's packed
/// rows, ideal (noise-free) decisions, and the count-pure current-domain
/// energy model — bit-identical energy to EdamCircuitBackend (the energy
/// of a current-domain search does not depend on the manufactured
/// currents). Holds a non-owning reference to the row matrix.
class EdamFunctionalBackend : public ExecutionBackend {
 public:
  EdamFunctionalBackend(const PackedRowMatrix& rows,
                        const CurrentDomainParams& params);

  const char* name() const override { return "edam-functional"; }
  std::size_t segment_count() const override { return rows_->rows(); }
  void run_pass(const Sequence& read, MatchMode mode, std::size_t threshold,
                const Rng& query_rng, std::uint64_t pass_salt,
                PassResult& out) const override;

 private:
  const PackedRowMatrix* rows_;
  CurrentDomainParams params_;
};

}  // namespace asmcap
