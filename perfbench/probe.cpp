// perfbench_probe — the in-process half of the realistic-size benchmark
// (perfbench/run.py drives it; perfbench/README.md documents the metrics).
//
//   perfbench_probe truth --reference REF --reads READS [geometry]
//       Ground truth for F1: for every read of READS, the labels
//       ("record:offset", as asmcap_search prints them) of every reference
//       tile within edit distance T (edit_distance_within, paper Eq. 3/4).
//   perfbench_probe live --reference REF --reads READS [geometry]
//                        --seconds S --ticket-rate X --mutation-rate Y
//       Builds the database (ingest_reference, --setups times), then runs
//       an open-loop schedule on the control thread: 16-read interactive
//       SearchService tickets at X/s, and remove_segments(a block of 256
//       consecutive live ids) / append_segments(the same sequences, fresh
//       ids) calls alternating at Y/s (--phased: tickets alone, then
//       mutations alone). Each ticket and mutation is timed from when it
//       was due. Afterwards it checks the final epoch against a fresh
//       accelerator holding its live segments.
//   perfbench_probe trace ... (same flags as live) --spans PATH
//       The traced run: spans around each call into the library's public
//       layers, written to PATH, and the per-layer metrics derived from
//       them.
//
// Every mode prints its results as one JSON object on the last line of
// stdout. Rows written with --rows (cols 1-4 of the CLI's TSV) are hashed
// by run.py into the decision digest.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/edit_distance.h"
#include "align/kernels.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/stream_reader.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

constexpr StrategyMode kMode = StrategyMode::Full;
constexpr std::size_t kTicketReads = 16;
constexpr std::size_t kMutationSize = 256;
constexpr std::size_t kAppendBatch = 512;  // ingest_reference's default.
constexpr std::size_t kCliChunk = 1024;    // asmcap_search's default.
constexpr std::size_t kLayerSample = 256;  // Trace: reads timed per layer.
constexpr std::size_t kCircuitSample = 8;  // Trace: reads on the circuit.

struct Options {
  std::string mode;
  std::string reference;
  std::string reads;
  std::string rows;   ///< Where to write the digest rows (optional).
  std::string spans;  ///< Trace mode: where to write the spans.
  std::size_t width = 256;
  std::size_t threshold = 12;
  std::size_t shards = 4;
  std::size_t workers = 4;
  bool circuit = false;
  bool noisy = false;
  bool prune = false;
  bool phased = false;  ///< Churn: tickets first, then mutations alone.
  std::uint64_t seed = 1;  ///< Workload seed (churn segments, removals).
  std::size_t setups = 1;
  std::size_t sample = 64;         ///< Reads in the final-epoch check / F1.
  double seconds = 2.0;
  double ticket_rate = 50.0;
  double mutation_rate = 10.0;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_probe: " << message
            << "\nusage: perfbench_probe truth|live|trace --reference REF"
               " --reads READS [--width N] [--threshold N] [--shards N]"
               " [--workers N] [--circuit] [--noisy] [--prune] [--phased]"
               " [--seed N] [--setups N] [--sample N] [--seconds S]"
               " [--ticket-rate X] [--mutation-rate Y] [--rows PATH]"
               " [--spans PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--reference") o.reference = value();
    else if (arg == "--reads") o.reads = value();
    else if (arg == "--rows") o.rows = value();
    else if (arg == "--spans") o.spans = value();
    else if (arg == "--width") o.width = std::stoul(value());
    else if (arg == "--threshold") o.threshold = std::stoul(value());
    else if (arg == "--shards") o.shards = std::stoul(value());
    else if (arg == "--workers") o.workers = std::stoul(value());
    else if (arg == "--circuit") o.circuit = true;
    else if (arg == "--noisy") o.noisy = true;
    else if (arg == "--prune") o.prune = true;
    else if (arg == "--phased") o.phased = true;
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--setups") o.setups = std::stoul(value());
    else if (arg == "--sample") o.sample = std::stoul(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--ticket-rate") o.ticket_rate = std::stod(value());
    else if (arg == "--mutation-rate") o.mutation_rate = std::stod(value());
    else usage("unknown flag '" + arg + "'");
  }
  if (o.mode != "truth" && o.mode != "live" && o.mode != "trace")
    usage("unknown mode '" + o.mode + "'");
  if (o.reference.empty() || o.reads.empty())
    usage("--reference and --reads are required");
  if (o.setups == 0 || o.workers == 0 || o.shards == 0)
    usage("--setups, --workers and --shards must be >= 1");
  return o;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-th percentile within each of kWindows consecutive, equal slices of
/// `xs` (samples in due order, so each slice is one stretch of the
/// schedule), then the median over the slices. A few seconds of host
/// contention then move one slice, not the reported value.
constexpr std::size_t kWindows = 5;

double windowed_percentile(const std::vector<double>& xs, double q) {
  if (xs.size() < kWindows) return percentile_of(xs, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto from = static_cast<std::ptrdiff_t>(xs.size() * w / kWindows);
    const auto to = static_cast<std::ptrdiff_t>(xs.size() * (w + 1) / kWindows);
    per_window.push_back(percentile_of(
        std::vector<double>(xs.begin() + from, xs.begin() + to), q));
  }
  return percentile_of(per_window, 0.5);
}

double total(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum;
}

/// Peak resident set (VmHWM) of this process so far, in bytes.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6)) * 1024;
  return 0;
}

/// Current resident set (VmRSS), in bytes.
std::size_t rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6)) * 1024;
  return 0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ------------------------------------------------------------------ spans --

/// In-memory span recorder: name, start, end, parent span and request id.
/// Spans are only recorded when enabled; they are written out at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  long begin(const std::string& name, long request = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, since(origin_), 0.0, open_, request});
    open_ = static_cast<long>(spans_.size()) - 1;
    return open_;
  }

  void end(long id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = since(origin_);
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Records a finished span that did not run on the control thread's
  /// stack (a ticket), as a child of the span open now.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, long request) {
    if (!enabled_) return;
    const auto rel = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - origin_).count();
    };
    spans_.push_back({name, rel(start), rel(end), open_, request});
  }

  /// Durations (s) of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end - s.start);
    return out;
  }

  /// Sum of the durations of the spans called `name` per request id.
  std::map<long, double> per_request(const std::string& name) const {
    std::map<long, double> out;
    for (const Span& s : spans_)
      if (s.name == name) out[s.request] += s.end - s.start;
    return out;
  }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%ld,\"request\":%ld}\n",
                    s.name.c_str(), s.start, s.end, s.parent, s.request);
      out << line;
    }
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  long open_ = -1;
};

/// RAII span; also a plain stopwatch when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, long request = -1)
      : tracer_(tracer), id_(tracer.begin(name, request)), t0_(Clock::now()) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span now; returns its duration in seconds.
  double close() {
    if (!closed_) {
      seconds_ = since(t0_);
      tracer_.end(id_);
      closed_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  long id_;
  Clock::time_point t0_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

// ------------------------------------------------------------------ JSON --

class JsonOut {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(value) ? value : 0.0);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + value + "\"");
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.10g", i ? "," : "", values[i]);
      text += buf;
    }
    add(key, text + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

// ---------------------------------------------------------------- inputs --

/// Every record of `path`; with `width` != 0 only the records of exactly
/// that many bases (the only reads the engine searches).
std::vector<SeqRecord> read_all(const std::string& path,
                                std::size_t width = 0) {
  SeqStreamReader reader(path);
  std::vector<SeqRecord> out;
  SeqRecord record;
  while (reader.next(record))
    if (width == 0 || record.seq.size() == width) out.push_back(record);
  return out;
}

std::vector<Sequence> sequences(const std::vector<SeqRecord>& records) {
  std::vector<Sequence> out;
  for (const SeqRecord& r : records) out.push_back(r.seq);
  return out;
}

std::unique_ptr<ShardedAccelerator> make_db(const Options& o) {
  AsmcapConfig config;  // asmcap_search's defaults, same flags.
  config.array_cols = o.width;
  config.ideal_sensing = !o.noisy;
  config.pruning.enabled = o.prune;
  auto db = std::make_unique<ShardedAccelerator>(config, o.shards);
  db->set_backend(o.circuit ? BackendKind::Circuit : BackendKind::Functional);
  return db;
}

struct Built {
  std::unique_ptr<ShardedAccelerator> db;
  ReferenceIndex index;
  IngestStats stats;
  double seconds = 0.0;
};

Built build_db(const Options& o, Tracer& tracer) {
  Built built;
  built.db = make_db(o);
  SeqStreamReader reader(o.reference);
  Scope span(tracer, "ingest.ingest_reference");
  built.stats = ingest_reference(*built.db, reader, {}, &built.index);
  built.seconds = span.close();
  return built;
}

/// For each read, the indices of the segments within edit distance T.
std::vector<std::vector<std::size_t>> truth(
    const std::vector<Sequence>& reads, const std::vector<Sequence>& segments,
    std::size_t threshold, std::size_t workers) {
  std::vector<std::vector<std::size_t>> out(reads.size());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&, w]() {
      for (std::size_t r = w; r < reads.size(); r += workers)
        for (std::size_t s = 0; s < segments.size(); ++s)
          if (edit_distance_within(reads[r], segments[s], threshold))
            out[r].push_back(s);
    });
  for (std::thread& t : threads) t.join();
  return out;
}

std::string join_labels(const std::vector<std::string>& labels) {
  if (labels.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i];
  }
  return out;
}

/// The CLI's deterministic row columns: read, status, matches, hits.
std::string row_text(const std::string& id, const QueryResult& result,
                     const ReferenceIndex& index) {
  std::vector<std::string> labels;
  for (std::size_t g : result.matched_segments)
    labels.push_back(index.label(g));
  return id + "\tok\t" + std::to_string(labels.size()) + "\t" +
         join_labels(labels);
}

// ----------------------------------------------------------------- truth --

int run_truth(const Options& o) {
  const std::vector<SeqRecord> reference = read_all(o.reference);
  std::vector<Sequence> segments;
  std::vector<std::string> labels;
  for (const SeqRecord& r : reference)
    for (std::size_t pos = 0; pos + o.width <= r.seq.size(); pos += o.width) {
      segments.push_back(r.seq.subseq(pos, o.width));
      labels.push_back(r.id + ":" + std::to_string(pos));
    }
  const std::vector<SeqRecord> records = read_all(o.reads, o.width);
  const auto hits = truth(sequences(records), segments, o.threshold,
                          o.workers);
  for (std::size_t r = 0; r < records.size(); ++r) {
    std::vector<std::string> names;
    for (std::size_t s : hits[r]) names.push_back(labels[s]);
    std::cout << records[r].id << '\t' << join_labels(names) << '\n';
  }
  std::cout << "{\"reads\":" << records.size()
            << ",\"segments\":" << segments.size() << "}\n";
  return 0;
}

// ----------------------------------------------------------------- churn --

struct ChurnResult {
  std::vector<double> ticket_ms;    ///< Due -> last read merged.
  std::vector<double> mutation_ms;  ///< Due -> call returned.
  std::vector<double> append_call_ms;
  std::vector<double> remove_call_ms;
  std::vector<double> lag_ms;  ///< How late the generator issued each op.
  std::size_t tickets = 0;
  std::size_t mutations = 0;
  std::size_t reads_done = 0;
  std::size_t failed = 0;
  std::uint64_t epochs = 0;
  double wall = 0.0;  ///< Schedule start -> last completion.
  std::vector<std::string> history;  ///< Mutation log, for the digest.
};

/// Open-loop schedule on the calling (control) thread; see the file
/// comment.
ChurnResult churn(ShardedAccelerator& db, const std::vector<Sequence>& reads,
                  const Options& o, Tracer& tracer) {
  ChurnResult result;
  const auto n_tickets = static_cast<std::size_t>(o.seconds * o.ticket_rate);
  const auto n_mutations =
      static_cast<std::size_t>(o.seconds * o.mutation_rate);

  // Each removal takes a run of 256 consecutive live ids starting at a
  // seeded position (a record-sized block, held by one or two banks), and
  // the next append re-inserts those sequences under fresh ids. The live
  // reference keeps its content (F1 stays defined) and size, while
  // tombstones accumulate in the cold banks and the hot bank fills and
  // folds into them.
  Rng pick(o.seed ^ 0xC4u);
  std::vector<std::uint64_t> live_ids;
  std::vector<Sequence> live_rows;
  for (auto& [id, row] : db.live_segments()) {
    live_ids.push_back(id);
    live_rows.push_back(std::move(row));
  }
  std::vector<Sequence> removed;
  if (n_mutations != 0 && live_ids.size() < kMutationSize)
    throw std::runtime_error("the churn needs at least 256 live segments");

  struct Event {
    double due;
    bool ticket;
    std::size_t index;
  };
  // Interleaved, or (--phased) tickets in the first half of the window
  // and mutations alone in the second, each at its own rate.
  const double phase = o.phased ? 0.5 : 1.0;
  const double mutations_from = o.phased ? o.seconds * phase : 0.0;
  std::vector<Event> events;
  const auto tickets = static_cast<std::size_t>(n_tickets * phase);
  const auto mutations = static_cast<std::size_t>(n_mutations * phase);
  for (std::size_t k = 0; k < tickets; ++k)
    events.push_back({static_cast<double>(k) / o.ticket_rate, true, k});
  for (std::size_t j = 0; j < mutations; ++j)
    events.push_back({mutations_from + (static_cast<double>(j) + 0.5) /
                                           o.mutation_rate,
                      false, j});
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due < b.due;
                   });

  struct Done {
    std::atomic<std::size_t> left{kTicketReads};
    std::atomic<bool> finished{false};
    Clock::time_point at;  ///< Written before `finished` is released.
  };
  struct Pending {
    std::shared_ptr<SearchTicket> ticket;
    std::shared_ptr<Done> done;
    double due;
    std::size_t index;
  };
  std::vector<Pending> pending;
  std::size_t reaped = 0;
  SearchService service(db);
  const std::uint64_t epoch0 = db.epoch();
  const Clock::time_point start = Clock::now();
  double last = 0.0;

  auto finish = [&](Pending& p) {
    p.ticket->wait();
    const TicketStats stats = p.ticket->stats();
    result.reads_done += stats.done;
    if (stats.done != p.ticket->size()) {
      result.failed += p.ticket->size() - stats.done;
      p.ticket.reset();
      return;
    }
    while (!p.done->finished.load(std::memory_order_acquire))
      std::this_thread::yield();
    const double at = std::chrono::duration<double>(p.done->at - start).count();
    result.ticket_ms.push_back((at - p.due) * 1e3);
    last = std::max(last, at);
    tracer.record("live.ticket", start + to_duration(p.due), p.done->at,
                  static_cast<long>(p.index));
    p.ticket.reset();  // A reaped ticket must not keep its epoch alive.
  };

  std::size_t next_read = 0;
  for (const Event& ev : events) {
    std::this_thread::sleep_until(start + to_duration(ev.due));
    result.lag_ms.push_back((since(start) - ev.due) * 1e3);
    if (ev.ticket) {
      std::vector<Sequence> batch;
      for (std::size_t k = 0; k < kTicketReads; ++k)
        batch.push_back(reads[next_read++ % reads.size()]);
      auto done = std::make_shared<Done>();
      ServiceOptions so;
      so.workers = o.workers;
      so.service_class = ServiceClass::Interactive;
      so.keep_results = false;
      so.on_complete = [done](std::size_t, const QueryResult&) {
        const Clock::time_point now = Clock::now();
        if (done->left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          done->at = now;
          done->finished.store(true, std::memory_order_release);
        }
      };
      pending.push_back(
          {service.submit(std::move(batch), o.threshold, kMode, so), done,
           ev.due, ev.index});
      ++result.tickets;
    } else {
      const bool append = ev.index % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      try {
        if (append) {
          Scope span(tracer, "live.append", static_cast<long>(ev.index));
          const std::vector<std::uint64_t> ids = db.append_segments(removed);
          span.close();
          live_ids.insert(live_ids.end(), ids.begin(), ids.end());
          live_rows.insert(live_rows.end(), removed.begin(), removed.end());
          removed.clear();
          result.history.push_back("append\t" + std::to_string(ids.front()) +
                                   "\t" + std::to_string(ids.back()));
        } else {
          const auto from = static_cast<std::ptrdiff_t>(
              pick.below(live_ids.size() - kMutationSize + 1));
          const auto first = live_ids.begin() + from;
          const auto first_row = live_rows.begin() + from;
          const auto n = static_cast<std::ptrdiff_t>(kMutationSize);
          const std::vector<std::uint64_t> ids(first, first + n);
          removed.assign(std::make_move_iterator(first_row),
                         std::make_move_iterator(first_row + n));
          live_ids.erase(first, first + n);
          live_rows.erase(first_row, first_row + n);
          Scope span(tracer, "live.remove", static_cast<long>(ev.index));
          db.remove_segments(ids);
          span.close();
          std::string line = "remove";
          for (std::uint64_t id : ids) line += "\t" + std::to_string(id);
          result.history.push_back(line);
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench_probe: mutation " << ev.index
                  << " failed: " << e.what() << "\n";
        ++result.failed;
      }
      const double call = since(t0) * 1e3;
      (append ? result.append_call_ms : result.remove_call_ms).push_back(call);
      const double end = since(start);
      result.mutation_ms.push_back((end - ev.due) * 1e3);
      last = std::max(last, end);
      ++result.mutations;
    }
    while (reaped < pending.size() && pending[reaped].ticket->done())
      finish(pending[reaped++]);
  }
  while (reaped < pending.size()) finish(pending[reaped++]);
  result.wall = last;
  result.epochs = db.epoch() - epoch0;
  return result;
}

// ------------------------------------------------------------------ live --

/// Final-epoch check (determinism rule 8): every bank of the final epoch,
/// executing a read's plan against a fixed query stream, must decide
/// exactly like one fresh accelerator loaded with the epoch's live
/// (id, segment) pairs. Also gives the sample's F1 against
/// edit_distance_within truth, and its modelled energy.
struct FinalCheck {
  bool fresh_equal = true;
  double f1 = 0.0;
  double energy_per_read = 0.0;
  std::vector<std::string> rows;
};

/// Global ids a slot-indexed execute() result matched, ascending.
std::vector<std::uint64_t> matched_ids(const AsmcapAccelerator& bank,
                                       const QueryResult& result) {
  std::vector<std::uint64_t> out;
  for (std::size_t slot = 0; slot < result.decisions.size(); ++slot)
    if (result.decisions[slot]) out.push_back(bank.directory().ids[slot]);
  return out;
}

FinalCheck final_check(ShardedAccelerator& db, const ReferenceIndex& index,
                       const std::vector<SeqRecord>& sample,
                       const Options& o) {
  FinalCheck check;
  std::vector<std::uint64_t> ids;
  std::vector<Sequence> segments;
  for (auto& [id, segment] : db.live_segments()) {
    ids.push_back(id);
    segments.push_back(std::move(segment));
  }
  AsmcapConfig config = db.config();
  config.array_count = segments.size() / config.array_rows + 1;
  AsmcapAccelerator fresh(config);
  fresh.set_backend(db.backend_kind());
  fresh.set_error_profile(db.error_profile());
  fresh.append_segments(segments, ids);

  const std::vector<Sequence> reads = sequences(sample);
  const std::shared_ptr<const DbEpoch> epoch = db.db();
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const ExecutionPlan plan = fresh.planner().build(
        reads[r], o.threshold, db.error_profile(), kMode);
    const Rng stream(o.seed + r);
    std::vector<std::uint64_t> live;
    for (const auto& bank : epoch->banks) {
      const std::vector<std::uint64_t> got =
          matched_ids(*bank, bank->execute(plan, stream));
      live.insert(live.end(), got.begin(), got.end());
    }
    std::sort(live.begin(), live.end());
    if (live != matched_ids(fresh, fresh.execute(plan, stream)))
      check.fresh_equal = false;
  }

  // The workload's own search path over the sample: F1, energy, rows.
  const std::vector<QueryResult> results =
      db.search_batch(reads, o.threshold, kMode, o.workers);
  const auto expected = truth(reads, segments, o.threshold, o.workers);
  std::size_t tp = 0, fp = 0, fn = 0;
  double energy = 0.0;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const std::vector<std::size_t>& got = results[r].matched_segments;
    std::set<std::uint64_t> want;
    for (std::size_t s : expected[r]) want.insert(ids[s]);
    for (std::size_t g : got) {
      if (want.count(g)) ++tp;
      else ++fp;
    }
    for (std::uint64_t g : want)
      if (!std::binary_search(got.begin(), got.end(), g)) ++fn;
    energy += results[r].energy_joules;
    check.rows.push_back(row_text(sample[r].id, results[r], index));
  }
  check.f1 = tp == 0 ? 0.0
                     : 2.0 * static_cast<double>(tp) /
                           static_cast<double>(2 * tp + fp + fn);
  check.energy_per_read =
      reads.empty() ? 0.0 : energy / static_cast<double>(reads.size());
  return check;
}

void write_rows(const std::string& path, const std::vector<std::string>& rows) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const std::string& row : rows) out << row << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_live(const Options& o) {
  Tracer off(false);
  const std::vector<SeqRecord> records = read_all(o.reads, o.width);
  const std::vector<Sequence> reads = sequences(records);
  if (reads.empty()) throw std::runtime_error("no reads of the search width");
  std::vector<SeqRecord> sample(records.begin(),
                                records.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(o.sample, records.size())));

  std::vector<double> setups;
  Built built;
  for (std::size_t i = 0; i < o.setups; ++i) {
    built = Built{};  // Free the previous database before the next build.
    built = build_db(o, off);
    setups.push_back(built.seconds);
  }
  ShardedAccelerator& db = *built.db;
  const ChurnResult c = churn(db, reads, o, off);
  const double peak_mb = static_cast<double>(peak_rss_bytes()) / (1 << 20);
  const FinalCheck check = sample.empty()
                               ? FinalCheck{}
                               : final_check(db, built.index, sample, o);
  std::vector<std::string> rows = check.rows;
  rows.insert(rows.end(), c.history.begin(), c.history.end());
  write_rows(o.rows, rows);

  JsonOut j;
  j.list("setup_s", setups);
  j.num("segments", static_cast<double>(built.stats.segments));
  j.num("run_s", c.wall);
  j.num("reads_done", static_cast<double>(c.reads_done));
  j.num("tickets", static_cast<double>(c.tickets));
  j.num("mutations", static_cast<double>(c.mutations));
  j.num("failed", static_cast<double>(c.failed));
  j.num("query_latency_p50_ms", windowed_percentile(c.ticket_ms, 0.50));
  j.num("query_latency_p99_ms", windowed_percentile(c.ticket_ms, 0.99));
  j.num("mutation_latency_p50_ms", windowed_percentile(c.mutation_ms, 0.50));
  j.num("mutation_latency_p95_ms", windowed_percentile(c.mutation_ms, 0.95));
  j.num("generator_lag_p99_ms", percentile_of(c.lag_ms, 0.99));
  j.num("peak_rss_mb", peak_mb);
  j.num("f1", check.f1);
  j.num("energy_per_read_j", check.energy_per_read);
  j.num("fresh_equal", check.fresh_equal ? 1.0 : 0.0);
  j.num("epochs", static_cast<double>(c.epochs));
  std::cout << j.text() << std::endl;
  return 0;
}

// ----------------------------------------------------------------- trace --

/// The CLI's read pump (chunked SearchService tickets, in-order delivery),
/// with spans around the read, submit and wait calls when traced.
struct PumpResult {
  double seconds = 0.0;
  double wait_s = 0.0;
  std::vector<double> queue_ms, exec_ms, merge_ms;
  std::vector<std::string> rows;
  std::size_t failed = 0;
};

PumpResult pump(ShardedAccelerator& db, const ReferenceIndex& index,
                const Options& o, Tracer& tracer) {
  PumpResult out;
  const Clock::time_point t0 = Clock::now();
  SearchService service(db);
  SeqStreamReader reader(o.reads);
  long chunk_no = 0;
  std::vector<SeqRecord> chunk;
  {
    Scope span(tracer, "genome.read_chunk", chunk_no);
    chunk = reader.read_chunk(kCliChunk);
  }
  while (!chunk.empty()) {
    std::vector<Sequence> submit;
    std::vector<std::size_t> slot_of;
    for (std::size_t i = 0; i < chunk.size(); ++i)
      if (chunk[i].seq.size() == o.width) {
        submit.push_back(chunk[i].seq);
        slot_of.push_back(i);
      }
    std::vector<std::string> rows(submit.size());
    ServiceOptions so;
    so.workers = o.workers;
    so.in_order = true;
    so.keep_results = false;
    so.on_complete = [&](std::size_t i, const QueryResult& result) {
      rows[i] = row_text(chunk[slot_of[i]].id, result, index);
    };
    std::shared_ptr<SearchTicket> ticket;
    {
      Scope span(tracer, "service.submit", chunk_no);
      ticket = service.submit(std::move(submit), o.threshold, kMode, so);
    }
    std::vector<SeqRecord> next;
    {
      Scope span(tracer, "genome.read_chunk", chunk_no + 1);
      next = reader.read_chunk(kCliChunk);
    }
    {
      Scope span(tracer, "service.wait", chunk_no);
      ticket->wait();
      out.wait_s += span.close();
    }
    for (const ReadTiming& t : ticket->read_timings()) {
      if (t.outcome != ReadOutcome::Done) {
        ++out.failed;
        continue;
      }
      out.queue_ms.push_back((t.started - t.submitted) * 1e3);
      out.exec_ms.push_back((t.executed - t.started) * 1e3);
      out.merge_ms.push_back((t.merged - t.executed) * 1e3);
    }
    out.rows.insert(out.rows.end(), rows.begin(), rows.end());
    chunk = std::move(next);
    ++chunk_no;
  }
  out.seconds = since(t0);
  return out;
}

int run_trace(const Options& o) {
  Tracer tracer(true);
  Tracer off(false);
  JsonOut j;
  const Clock::time_point t_all = Clock::now();

  // genome: parse-only passes over the reference and the reads.
  double ref_parse_s = 0.0;
  double ref_bytes = 0.0;
  {
    Scope span(tracer, "genome.ref_parse");
    SeqStreamReader reader(o.reference);
    SeqRecord record;
    while (reader.next(record)) {
    }
    ref_parse_s = span.close();
    std::ifstream f(o.reference, std::ios::binary | std::ios::ate);
    ref_bytes = static_cast<double>(f.tellg());
  }
  std::vector<SeqRecord> records;
  {
    Scope span(tracer, "genome.reads_parse");
    records = read_all(o.reads, o.width);
    j.num("genome.reads_parse_s", span.close());
  }
  j.num("genome.ref_parse_s", ref_parse_s);
  j.num("genome.ref_parse_mb_per_s", ref_bytes / 1e6 / ref_parse_s);
  const std::vector<Sequence> reads = sequences(records);
  if (reads.empty()) throw std::runtime_error("no reads of the search width");

  // ingest: first ingest_reference itself, on a fresh heap, so the VmRSS
  // growth across it is the database's footprint.
  const std::size_t rss_before = rss_bytes();
  Built built = build_db(o, tracer);
  ShardedAccelerator& db = *built.db;
  const std::size_t rss_after = rss_bytes();
  j.num("ingest.tile_append_s", built.seconds - ref_parse_s);
  j.num("ingest.epochs", static_cast<double>(db.epoch()));
  j.num("mem.bytes_per_segment",
        (static_cast<double>(rss_after) - static_cast<double>(rss_before)) /
            static_cast<double>(built.stats.segments));

  // Then call by call, on a second database: the tiles ingest_reference
  // makes, appended in its 512-segment batches, then its compaction.
  {
    auto by_call = make_db(o);
    Scope whole(tracer, "ingest.by_call");
    SeqStreamReader reader(o.reference);
    SeqRecord record;
    std::vector<Sequence> batch;
    long call = 0;
    auto flush = [&]() {
      if (batch.empty()) return;
      Scope span(tracer, "ingest.append", call++);
      by_call->append_segments(batch);
      batch.clear();
    };
    while (reader.next(record))
      for (std::size_t pos = 0; pos + o.width <= record.seq.size();
           pos += o.width) {
        batch.push_back(record.seq.subseq(pos, o.width));
        if (batch.size() == kAppendBatch) flush();
      }
    flush();
    Scope span(tracer, "ingest.compact");
    by_call->compact();
  }
  const std::vector<double> appends = tracer.durations("ingest.append");
  std::vector<double> append_ms;
  for (double s : appends) append_ms.push_back(s * 1e3);
  const std::size_t quarter = std::max<std::size_t>(1, append_ms.size() / 4);
  const auto q = static_cast<std::ptrdiff_t>(quarter);
  const double first_q =
      total(std::vector<double>(append_ms.begin(), append_ms.begin() + q));
  const double last_q =
      total(std::vector<double>(append_ms.end() - q, append_ms.end()));
  j.num("ingest.append_ms_p50", percentile_of(append_ms, 0.5));
  j.num("ingest.append_ms_max", percentile_of(append_ms, 1.0));
  j.num("ingest.append_growth", last_q / first_q);
  j.num("ingest.compact_s", total(tracer.durations("ingest.compact")));

  // service: the CLI's chunked pump, traced and untraced, then one
  // search_batch over the same reads. The traced pump runs first, on the
  // fresh database, so its rows are the CLI's rows (the digest).
  db.reset_totals();
  const double cpu0 = cpu_seconds();
  PumpResult traced;
  {
    Scope span(tracer, "service.pump");
    traced = pump(db, built.index, o, tracer);
  }
  const double cpu_per_wall =
      (cpu_seconds() - cpu0) / traced.seconds / static_cast<double>(o.workers);
  const ExecutionTotals totals = db.totals();
  write_rows(o.rows, traced.rows);
  const PumpResult untraced = pump(db, built.index, o, off);
  double batch_s = 0.0;
  {
    Scope span(tracer, "router.search_batch");
    db.search_batch(reads, o.threshold, kMode, o.workers);
    batch_s = span.close();
  }
  const double queries =
      static_cast<double>(std::max<std::size_t>(1, totals.queries));
  j.num("router.passes_per_read",
        static_cast<double>(totals.searches) / queries);
  j.num("router.hd_passes_per_read",
        static_cast<double>(totals.hd_searches) / queries);
  j.num("router.rotation_passes_per_read",
        static_cast<double>(totals.rotation_searches) / queries);
  const std::size_t probes = totals.banks_probed + totals.banks_pruned;
  j.num("router.prune_rate",
        probes == 0 ? 0.0 : static_cast<double>(totals.banks_pruned) /
                                static_cast<double>(probes));
  j.num("service.queue_wait_ms_p50", percentile_of(traced.queue_ms, 0.50));
  j.num("service.queue_wait_ms_p99", percentile_of(traced.queue_ms, 0.99));
  j.num("service.execution_ms_p50", percentile_of(traced.exec_ms, 0.50));
  j.num("service.execution_ms_p99", percentile_of(traced.exec_ms, 0.99));
  j.num("service.merge_ms_p50", percentile_of(traced.merge_ms, 0.50));
  j.num("service.merge_ms_p99", percentile_of(traced.merge_ms, 0.99));
  j.num("service.wait_blocked_s", traced.wait_s);
  j.num("service.pump_over_batch", traced.seconds / batch_s);
  j.num("proc.cpu_per_wall", cpu_per_wall);
  j.num("trace.overhead_frac", traced.seconds / untraced.seconds - 1.0);

  // planner / router / backend / kernels, read by read on one thread, on
  // the functional backend: router.search() = build + probe + every
  // bank's execute + merge, so merge = search - build - sum(execute).
  const BackendKind workload_backend = db.backend_kind();
  db.set_backend(BackendKind::Functional);
  const std::size_t banks = db.active_shards();
  std::vector<PackedRowMatrix> matrices;
  for (std::size_t s = 0; s < banks; ++s) {
    std::vector<Sequence> rows;
    for (auto& entry : db.shard(s).live_segments())
      rows.push_back(std::move(entry.second));
    matrices.emplace_back(rows, o.width);
  }
  const std::size_t n_layer = std::min(kLayerSample, reads.size());
  double ed_cells = 0.0, hd_cells = 0.0;
  std::vector<std::uint32_t> counts;
  for (std::size_t r = 0; r < n_layer; ++r) {
    const long req = static_cast<long>(r);
    const Sequence& read = reads[r];
    {
      Scope span(tracer, "router.search", req);
      db.search(read, o.threshold, kMode, 1);
    }
    const AsmcapAccelerator& bank0 = db.shard(0);
    ExecutionPlan plan;
    {
      Scope span(tracer, "planner.build", req);
      plan = bank0.planner().build(read, o.threshold, db.error_profile(),
                                   kMode);
    }
    for (std::size_t s = 0; s < banks; ++s) {
      Scope span(tracer, "backend.execute", req);
      db.shard(s).execute(plan, Rng(o.seed + r));
    }
    for (std::size_t s = 0; s < banks; ++s) {
      const PackedRowMatrix& m = matrices[s];
      counts.resize(m.rows());
      Scope span(tracer, "kernels.passes", req);
      for (const Sequence& pass : plan.ed_star_passes) {
        const PackedReadView view(pass);
        ed_star_packed_block(m.data(), m.rows(), view, counts.data());
      }
      if (plan.hd_pass) {
        const PackedReadView view(read, false);
        hamming_packed_block(m.data(), m.rows(), view, counts.data());
      }
    }
    for (std::size_t s = 0; s < banks; ++s) {
      const PackedRowMatrix& m = matrices[s];
      counts.resize(m.rows());
      const PackedReadView view(read);
      {
        Scope span(tracer, "kernels.ed_star", req);
        ed_star_packed_block(m.data(), m.rows(), view, counts.data());
      }
      {
        Scope span(tracer, "kernels.hamming", req);
        hamming_packed_block(m.data(), m.rows(), view, counts.data());
      }
      ed_cells += static_cast<double>(m.rows() * o.width);
      hd_cells += static_cast<double>(m.rows() * o.width);
    }
  }
  const auto per_read = [&](const std::string& name) {
    return total(tracer.durations(name)) * 1e6 / static_cast<double>(n_layer);
  };
  const auto search_us = tracer.per_request("router.search");
  const auto build_us = tracer.per_request("planner.build");
  const auto exec_us = tracer.per_request("backend.execute");
  double merge = 0.0;
  for (const auto& [req, s] : search_us)
    merge += s - build_us.at(req) - exec_us.at(req);
  j.num("planner.build_us_per_read", per_read("planner.build"));
  j.num("router.merge_us_per_read", merge * 1e6 / static_cast<double>(n_layer));
  j.num("backend.execute_us_per_read", per_read("backend.execute"));
  j.num("kernels.us_per_read", per_read("kernels.passes"));
  j.num("backend.glue_us_per_read",
        per_read("backend.execute") - per_read("kernels.passes"));
  j.num("kernels.ed_star_gcells_per_s",
        ed_cells / total(tracer.durations("kernels.ed_star")) / 1e9);
  j.num("kernels.hamming_gcells_per_s",
        hd_cells / total(tracer.durations("kernels.hamming")) / 1e9);

  // circuit: the cell-accurate backend over every bank, a few reads.
  db.set_backend(BackendKind::Circuit);
  const std::size_t n_circuit = std::min(kCircuitSample, reads.size());
  for (std::size_t r = 0; r < n_circuit; ++r) {
    const ExecutionPlan plan = db.shard(0).planner().build(
        reads[r], o.threshold, db.error_profile(), kMode);
    for (std::size_t s = 0; s < banks; ++s) {
      Scope span(tracer, "circuit.execute", static_cast<long>(r));
      db.shard(s).execute(plan, Rng(o.seed + r));
    }
  }
  j.num("circuit.execute_us_per_read",
        total(tracer.durations("circuit.execute")) * 1e6 /
            static_cast<double>(std::max<std::size_t>(1, n_circuit)));
  db.set_backend(workload_backend);

  // live: the open-loop churn schedule against this database.
  ChurnResult c;
  {
    Scope span(tracer, "live.churn");
    c = churn(db, reads, o, tracer);
  }
  j.num("live.append_ms_p50", percentile_of(c.append_call_ms, 0.5));
  j.num("live.remove_ms_p50", percentile_of(c.remove_call_ms, 0.5));
  j.num("live.epochs", static_cast<double>(c.epochs));
  j.num("query_latency_p99_ms", windowed_percentile(c.ticket_ms, 0.99));
  j.num("mutation_latency_p95_ms", windowed_percentile(c.mutation_ms, 0.95));
  j.num("generator.lag_ms_p99", percentile_of(c.lag_ms, 0.99));

  // Human-readable self-time table (stderr), then the spans file.
  std::cerr << "perfbench_probe: self time by span (s), kernel tier "
            << to_string(active_kernel_tier()) << ", wall " << since(t_all)
            << " s\n";
  for (const auto& [name, s] : tracer.self_times())
    std::fprintf(stderr, "  %-28s %10.4f\n", name.c_str(), s);
  if (!o.spans.empty()) tracer.write(o.spans);
  j.num("attempted",
        static_cast<double>(traced.rows.size() + untraced.rows.size() +
                            c.tickets * kTicketReads + c.mutations));
  j.num("failed",
        static_cast<double>(traced.failed + untraced.failed + c.failed));
  j.str("kernel_tier", to_string(active_kernel_tier()));
  std::cout << j.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.mode == "truth") return run_truth(options);
    if (options.mode == "live") return run_live(options);
    return run_trace(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
