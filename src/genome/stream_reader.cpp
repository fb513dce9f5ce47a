#include "genome/stream_reader.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <string_view>
#include <utility>

#include "genome/fasta.h"
#include "util/strings.h"

#ifdef ASMCAP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace asmcap {

namespace {

constexpr std::size_t kBufferSize = 64 * 1024;

std::string error_prefix(const std::string& name, std::size_t line) {
  return name + ":" + std::to_string(line) + ": ";
}

}  // namespace

const char* to_string(SeqFormat format) {
  switch (format) {
    case SeqFormat::Fasta:
      return "FASTA";
    case SeqFormat::Fastq:
      return "FASTQ";
    default:
      return "unknown";
  }
}

StreamParseError::StreamParseError(const std::string& name, std::size_t line,
                                   const std::string& message)
    : std::runtime_error(error_prefix(name, line) + message), line_(line) {}

// ------------------------------------------------------------ byte sources --

struct SeqStreamReader::ByteSource {
  virtual ~ByteSource() = default;
  /// Up to `n` bytes into `out`; 0 means end of input. Throws
  /// std::runtime_error on an I/O error.
  virtual std::size_t read(char* out, std::size_t n) = 0;
};

/// A stdio file (or stdin). The first bytes may be sniffed with peek()
/// without seeking: they stay queued and read() returns them first, so a
/// pipe loses nothing.
struct SeqStreamReader::FileSource : SeqStreamReader::ByteSource {
  FileSource(std::FILE* file, std::string name, bool owned)
      : file_(file), name_(std::move(name)), owned_(owned) {}
  ~FileSource() override {
    if (owned_) std::fclose(file_);
  }
  /// The first `n` bytes of the input (fewer at end of input), queued for
  /// read(). Only valid before the first read().
  std::string_view peek(std::size_t n) {
    queued_.resize(n);
    queued_.resize(fread_checked(queued_.data(), n));
    return queued_;
  }
  std::size_t read(char* out, std::size_t n) override {
    if (queued_pos_ < queued_.size()) {
      const std::size_t take = std::min(n, queued_.size() - queued_pos_);
      std::copy_n(queued_.data() + queued_pos_, take, out);
      queued_pos_ += take;
      return take;
    }
    return fread_checked(out, n);
  }
  std::size_t fread_checked(char* out, std::size_t n) {
    const std::size_t got = std::fread(out, 1, n, file_);
    if (got < n && std::ferror(file_) != 0)
      throw std::runtime_error("I/O error reading " + name_);
    return got;
  }
  std::FILE* file_;
  std::string name_;
  bool owned_;
  std::string queued_;
  std::size_t queued_pos_ = 0;
};

struct SeqStreamReader::IstreamSource : SeqStreamReader::ByteSource {
  explicit IstreamSource(std::istream& in) : in_(&in) {}
  std::size_t read(char* out, std::size_t n) override {
    in_->read(out, static_cast<std::streamsize>(n));
    if (in_->bad()) throw std::runtime_error("I/O error reading stream");
    return static_cast<std::size_t>(in_->gcount());
  }
  std::istream* in_;
};

#ifdef ASMCAP_HAVE_ZLIB
/// Inflates a gzip stream pulled from another source — the one already
/// open, so pipes work and nothing is reopened by path. Concatenated gzip
/// members decompress as one stream and bytes after the last member are
/// ignored, as gzip -d and gzread do; a member cut short is an error.
struct SeqStreamReader::GzipSource : SeqStreamReader::ByteSource {
  GzipSource(std::unique_ptr<ByteSource> raw, std::string name)
      : raw_(std::move(raw)), name_(std::move(name)), in_(kBufferSize) {
    // 16 + MAX_WBITS: expect the gzip wrapper (header + CRC trailer).
    if (inflateInit2(&z_, 16 + MAX_WBITS) != Z_OK)
      throw std::runtime_error("cannot initialise zlib for " + name_);
  }
  ~GzipSource() override { inflateEnd(&z_); }
  std::size_t read(char* out, std::size_t n) override {
    z_.next_out = reinterpret_cast<Bytef*>(out);
    z_.avail_out = static_cast<uInt>(n);
    while (z_.avail_out == n && !done_) {
      if (z_.avail_in == 0) {
        const std::size_t got = raw_->read(
            reinterpret_cast<char*>(in_.data()), in_.size());
        if (got == 0) {
          if (in_member_)
            throw std::runtime_error("truncated gzip input: " + name_);
          done_ = true;
          break;
        }
        z_.next_in = in_.data();
        z_.avail_in = static_cast<uInt>(got);
      }
      const int rc = inflate(&z_, Z_NO_FLUSH);
      if (rc == Z_STREAM_END) {
        in_member_ = false;
        ++members_;
        inflateReset(&z_);
      } else if (rc == Z_OK || rc == Z_BUF_ERROR) {
        in_member_ = true;
      } else if (members_ != 0 && !in_member_) {
        done_ = true;  // Trailing non-gzip bytes after the last member.
      } else {
        throw std::runtime_error(
            "gzip error reading " + name_ + ": " +
            (z_.msg != nullptr ? z_.msg : "corrupt data"));
      }
    }
    return n - z_.avail_out;
  }
  std::unique_ptr<ByteSource> raw_;
  std::string name_;
  std::vector<unsigned char> in_;
  z_stream z_{};
  bool in_member_ = false;
  bool done_ = false;
  std::size_t members_ = 0;
};
#endif

// ---------------------------------------------------------------- reader --

SeqStreamReader::SeqStreamReader(const std::string& path)
    : name_(path == "-" ? "<stdin>" : path) {
  const bool from_stdin = path == "-";
  std::FILE* file = from_stdin ? stdin : std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw std::runtime_error("cannot open sequence file: " + path);
  auto raw = std::make_unique<FileSource>(file, name_, !from_stdin);
  // Sniff the gzip magic without seeking — a pipe cannot rewind — so the
  // sniffed bytes stay queued in the source.
  const std::string_view magic = raw->peek(2);
  const bool gzipped = magic == std::string_view("\x1F\x8B", 2);
  if (gzipped) {
#ifdef ASMCAP_HAVE_ZLIB
    source_ = std::make_unique<GzipSource>(std::move(raw), name_);
#else
    throw std::runtime_error("gzip-compressed input but this build has no "
                             "zlib (decompress first): " +
                             name_);
#endif
  } else {
    source_ = std::move(raw);
  }
  buffer_.resize(kBufferSize);
}

SeqStreamReader::SeqStreamReader(std::istream& in, std::string name)
    : name_(std::move(name)), source_(std::make_unique<IstreamSource>(in)) {
  buffer_.resize(kBufferSize);
}

SeqStreamReader::~SeqStreamReader() = default;

void SeqStreamReader::fail(std::size_t line,
                           const std::string& message) const {
  throw StreamParseError(name_, line, message);
}

bool SeqStreamReader::read_line(std::string& out) {
  out.clear();
  bool any = false;
  for (;;) {
    if (buffer_pos_ == buffer_end_) {
      if (eof_) break;
      buffer_end_ = source_->read(buffer_.data(), buffer_.size());
      buffer_pos_ = 0;
      if (buffer_end_ == 0) {
        eof_ = true;
        break;
      }
    }
    const char* begin = buffer_.data() + buffer_pos_;
    const char* end = buffer_.data() + buffer_end_;
    const char* newline = begin;
    while (newline != end && *newline != '\n') ++newline;
    out.append(begin, newline);
    any = true;
    if (newline != end) {
      buffer_pos_ = static_cast<std::size_t>(newline - buffer_.data()) + 1;
      break;
    }
    buffer_pos_ = buffer_end_;
  }
  if (!any && out.empty() && eof_ && buffer_pos_ == buffer_end_)
    return false;
  if (!out.empty() && out.back() == '\r') out.pop_back();
  ++line_;
  return true;
}

bool SeqStreamReader::next_content_line(std::string& out) {
  if (has_pending_) {
    out = std::move(pending_);
    has_pending_ = false;
    line_ = pending_line_;
    return true;
  }
  while (read_line(out)) {
    if (!trim(out).empty()) return true;
  }
  return false;
}

void SeqStreamReader::detect_format(const std::string& first_line) {
  const std::string_view view = trim(first_line);
  if (view.front() == '>') {
    format_ = SeqFormat::Fasta;
  } else if (view.front() == '@') {
    format_ = SeqFormat::Fastq;
  } else {
    fail(line_, std::string("unrecognised format: first byte '") +
                    view.front() +
                    "' is neither '>' (FASTA) nor '@' (FASTQ)");
  }
}

void SeqStreamReader::append_bases(Sequence& seq, std::string_view text) {
  for (char c : text) {
    if (const auto base = base_from_char(c)) {
      seq.push_back(*base);
    } else {
      ++ambiguous_;
      seq.push_back(Base::A);
    }
    ++bases_;
  }
}

bool SeqStreamReader::next(SeqRecord& record) {
  std::string line;
  if (!next_content_line(line)) return false;
  if (format_ == SeqFormat::Unknown) detect_format(line);
  // Hand the line back so the per-format parsers see the same stream.
  pending_ = std::move(line);
  pending_line_ = line_;
  has_pending_ = true;
  const bool got = format_ == SeqFormat::Fasta ? next_fasta(record)
                                               : next_fastq(record);
  if (got) ++records_;
  return got;
}

bool SeqStreamReader::next_fasta(SeqRecord& record) {
  std::string line;
  if (!next_content_line(line)) return false;
  const std::string_view view = trim(line);
  if (view.front() != '>')
    fail(line_, "FASTA: sequence data before any header");
  record.quality.clear();
  record.seq.clear();
  split_seq_header(view.substr(1), record.id, record.comment);
  // Accumulate wrapped sequence lines until the next header or the end.
  while (read_line(line)) {
    const std::string_view data = trim(line);
    if (data.empty()) continue;
    if (data.front() == '>') {
      pending_ = std::move(line);
      pending_line_ = line_;
      has_pending_ = true;
      break;
    }
    append_bases(record.seq, data);
  }
  return true;
}

bool SeqStreamReader::next_fastq(SeqRecord& record) {
  std::string header;
  if (!next_content_line(header)) return false;
  const std::size_t header_line = line_;
  if (header.empty() || header[0] != '@')
    fail(header_line, "FASTQ: expected '@' header, got: " + header);
  std::string seq_line;
  std::string plus_line;
  std::string qual_line;
  if (!read_line(seq_line) || !read_line(plus_line) ||
      !read_line(qual_line))
    fail(line_, "FASTQ: truncated record (header at line " +
                    std::to_string(header_line) + "): " + header);
  if (plus_line.empty() || plus_line[0] != '+')
    fail(line_ - 1, "FASTQ: missing '+' separator: " + header);
  split_seq_header(std::string_view(header).substr(1), record.id,
                   record.comment);
  record.seq.clear();
  append_bases(record.seq, trim(seq_line));
  record.quality = std::string(trim(qual_line));
  if (record.quality.size() != record.seq.size())
    fail(line_, "FASTQ: quality length mismatch: " + header);
  return true;
}

std::vector<SeqRecord> SeqStreamReader::read_chunk(std::size_t max_records) {
  std::vector<SeqRecord> chunk;
  chunk.reserve(max_records);
  SeqRecord record;
  while (chunk.size() < max_records && next(record))
    chunk.push_back(std::move(record));
  return chunk;
}

}  // namespace asmcap
