#pragma once
// Buffered, single-pass FASTA/FASTQ record streaming — the kseq-style
// ingestion idiom real aligners use, so arbitrarily large input files are
// parsed in O(record) memory instead of the whole-file vectors that
// read_fasta/read_fastq (genome/fasta.h) return.
//
//   SeqStreamReader reader("reads.fastq.gz");
//   SeqRecord record;
//   while (reader.next(record)) consume(record);
//
// The format is auto-detected from the first non-blank byte ('>' FASTA,
// '@' FASTQ); gzip-compressed input is transparently decompressed when
// the build found zlib (ASMCAP_HAVE_ZLIB, see CMakeLists.txt) and
// rejected with a clear error otherwise. The path may be a pipe, a FIFO,
// /dev/stdin or "-" (stdin): the gzip magic is sniffed without seeking
// and the sniffed bytes are replayed, and gzip data is inflated from the
// already-open stream. The parser accepts multi-line
// (wrapped) FASTA sequence data, tolerates CRLF line endings and blank
// lines between records, and reports malformed input as StreamParseError
// carrying the 1-based line number of the offending line.
//
// Record content is BIT-IDENTICAL to the whole-file readers: identical
// header id/comment splitting, identical base decoding, and the same
// deterministic ambiguity policy — every character outside {A,C,G,T}
// (case-insensitive), e.g. the IUPAC 'N', is resolved to 'A' and counted
// in ambiguous_bases() so callers can warn (tests/test_stream_reader.cpp
// round-trips through write_fasta/write_fastq to pin the parity down).
//
// Ownership: the path constructor owns the underlying file handle (stdin
// for "-" is borrowed, never closed); the istream constructor borrows the
// stream, which must outlive the reader. Thread-safety: a reader is a single-consumer cursor — all
// methods belong to one thread at a time (confine a reader to the
// ingestion thread; hand the records off, not the reader). Reentrancy:
// nothing here blocks on a pool or calls back into user code.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// One FASTA or FASTQ record in the unified streaming shape. FASTA
/// records leave `quality` empty; FASTQ records carry their Phred+33
/// quality string (same length as seq, enforced at parse time).
struct SeqRecord {
  std::string id;       ///< Header text up to the first whitespace.
  std::string comment;  ///< Remainder of the header line (may be empty).
  Sequence seq;
  std::string quality;
};

enum class SeqFormat : std::uint8_t { Unknown, Fasta, Fastq };

const char* to_string(SeqFormat format);

/// Malformed-input error carrying the input name and the 1-based line
/// number of the offending line (what() embeds both).
class StreamParseError : public std::runtime_error {
 public:
  StreamParseError(const std::string& name, std::size_t line,
                   const std::string& message);
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class SeqStreamReader {
 public:
  /// Opens a file, or stdin when `path` is "-" (named "<stdin>" in
  /// errors), auto-detecting gzip from the magic bytes (requires zlib in
  /// the build; throws std::runtime_error otherwise, and when the file
  /// cannot be opened). Regular files and pipes alike are read once,
  /// front to back.
  explicit SeqStreamReader(const std::string& path);

  /// Streams from a borrowed istream (no gzip auto-detection); `name` is
  /// used in error messages.
  explicit SeqStreamReader(std::istream& in, std::string name = "<stream>");

  ~SeqStreamReader();
  SeqStreamReader(const SeqStreamReader&) = delete;
  SeqStreamReader& operator=(const SeqStreamReader&) = delete;

  /// Parses the next record into `record` (contents replaced). Returns
  /// false at clean end-of-input; throws StreamParseError on malformed
  /// input.
  bool next(SeqRecord& record);

  /// Batch form of next(): up to `max_records` records (fewer at end of
  /// input; empty once exhausted). The concatenation of read_chunk calls
  /// is identical to the next() stream for any chunk size.
  std::vector<SeqRecord> read_chunk(std::size_t max_records);

  /// Detected input format (Unknown until the first next()/read_chunk
  /// call touches the input).
  SeqFormat format() const { return format_; }

  const std::string& name() const { return name_; }
  /// 1-based number of the last line consumed (0 before any input).
  std::size_t line() const { return line_; }

  /// Running totals over everything parsed so far.
  std::size_t records() const { return records_; }
  std::size_t bases() const { return bases_; }
  /// Characters outside {A,C,G,T} deterministically resolved to 'A'
  /// (FASTA and FASTQ sequence lines alike).
  std::size_t ambiguous_bases() const { return ambiguous_; }

 private:
  struct ByteSource;
  struct FileSource;
  struct IstreamSource;
#ifdef ASMCAP_HAVE_ZLIB
  struct GzipSource;
#endif

  [[noreturn]] void fail(std::size_t line, const std::string& message) const;
  /// Next raw line, CR-stripped, counting line_. False at end of input.
  bool read_line(std::string& out);
  /// Next non-blank line (pending pushback first). False at end of input.
  bool next_content_line(std::string& out);
  void detect_format(const std::string& first_line);
  void append_bases(Sequence& seq, std::string_view text);
  bool next_fasta(SeqRecord& record);
  bool next_fastq(SeqRecord& record);

  std::string name_;
  std::unique_ptr<ByteSource> source_;
  std::vector<char> buffer_;
  std::size_t buffer_pos_ = 0;
  std::size_t buffer_end_ = 0;
  bool eof_ = false;

  SeqFormat format_ = SeqFormat::Unknown;
  std::string pending_;  ///< Lookahead line (the next record's header).
  bool has_pending_ = false;
  std::size_t pending_line_ = 0;  ///< Line number pending_ was read at.
  std::size_t line_ = 0;

  std::size_t records_ = 0;
  std::size_t bases_ = 0;
  std::size_t ambiguous_ = 0;
};

}  // namespace asmcap
