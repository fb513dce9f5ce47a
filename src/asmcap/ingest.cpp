#include "asmcap/ingest.h"

#include <stdexcept>
#include <utility>

#include "asmcap/sharded.h"
#include "genome/stream_reader.h"

namespace asmcap {

const SegmentOrigin& ReferenceIndex::origin(std::uint64_t id) const {
  if (!contains(id))
    throw std::out_of_range("ReferenceIndex: unknown segment id " +
                            std::to_string(id));
  return origins_[id - first_id_];
}

std::string ReferenceIndex::label(std::uint64_t id) const {
  if (!contains(id)) return "segment:" + std::to_string(id);
  const SegmentOrigin& at = origins_[id - first_id_];
  return names_[at.record] + ":" + std::to_string(at.offset);
}

IngestStats ingest_reference(ShardedAccelerator& db, SeqStreamReader& reader,
                             const IngestOptions& options,
                             ReferenceIndex* index) {
  const std::size_t width = options.segment_width != 0
                                ? options.segment_width
                                : db.config().array_cols;
  if (width == 0)
    throw std::invalid_argument("ingest_reference: segment width is zero");
  const std::size_t batch = options.append_batch != 0 ? options.append_batch : 1;

  if (index != nullptr) *index = ReferenceIndex{};

  IngestStats stats;
  std::vector<Sequence> segments;
  std::vector<SegmentOrigin> origins;
  segments.reserve(batch);
  origins.reserve(batch);

  const auto flush = [&]() {
    if (segments.empty()) return;
    const std::vector<std::uint64_t> ids = db.append_segments(segments);
    if (index != nullptr) {
      if (!index->have_first_ && !ids.empty()) {
        index->first_id_ = ids.front();
        index->have_first_ = true;
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        // append_segments hands out consecutive ascending ids during an
        // uninterrupted ingest, which keeps the index dense.
        if (ids[i] != index->first_id_ + index->origins_.size())
          throw std::logic_error(
              "ReferenceIndex: non-consecutive segment ids (concurrent "
              "mutation during ingest?)");
        index->origins_.push_back(origins[i]);
      }
    }
    segments.clear();
    origins.clear();
  };

  SeqRecord record;
  while (reader.next(record)) {
    ++stats.records;
    const std::uint32_t record_slot =
        index != nullptr ? static_cast<std::uint32_t>(index->names_.size()) : 0;
    if (index != nullptr) index->names_.push_back(record.id);
    const std::size_t length = record.seq.size();
    std::size_t pos = 0;
    for (; pos + width <= length; pos += width) {
      segments.push_back(record.seq.subseq(pos, width));
      origins.push_back(SegmentOrigin{record_slot, pos});
      ++stats.segments;
      if (segments.size() >= batch) flush();
    }
    const std::size_t tail = length - pos;
    if (tail == 0) {
      if (length == 0) ++stats.empty_records;
    } else if (options.pad_final_tile) {
      Sequence tile = record.seq.subseq(pos, tail);
      while (tile.size() < width) tile.push_back(Base::A);
      segments.push_back(std::move(tile));
      origins.push_back(SegmentOrigin{record_slot, pos});
      ++stats.segments;
      ++stats.padded_segments;
      if (segments.size() >= batch) flush();
    } else {
      stats.dropped_tail_bases += tail;
      if (pos == 0) ++stats.empty_records;
    }
  }
  flush();
  // Nothing ingested leaves nothing to fold (and a never-loaded router
  // cannot compact): the caller sees stats.segments == 0.
  if (options.compact_after && stats.segments != 0) db.compact();

  stats.bases = reader.bases();
  stats.ambiguous_bases = reader.ambiguous_bases();
  return stats;
}

}  // namespace asmcap
