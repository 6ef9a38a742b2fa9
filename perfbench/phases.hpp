// The benchmark's workloads and the phases of one user story:
//
//   campaign  ->  ingest (serial, then parallel)  ->  analyze  ->  serve
//
// Every phase drives the program through its public API only; timing is
// taken around those calls.  Traced variants attach the program's own
// obs::Registry and obs::Profiler and record spans in a SpanRecorder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "core/campaign_runner.hpp"
#include "decode/decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/frames.hpp"
#include "spans.hpp"

namespace perfbench {

/// Names accepted by make_workload().  BENCHMARK.json lists steady and
/// tcp_mirror; polluter_flood runs on request (see README.md).
const std::vector<std::string>& workload_names();

/// The campaign configuration of a workload at `seed` (outputs unset).
/// `smoke` shrinks it to a fraction of a second per phase.  nullopt for an
/// unknown name.
std::optional<dtr::core::RunnerConfig> make_workload(std::string_view name,
                                                     std::uint64_t seed,
                                                     bool smoke);

// ---- campaign ---------------------------------------------------------------

struct CampaignResult {
  double seconds = 0;
  std::string container;  ///< the compressed dataset (DTZCHNK1)
  std::uint64_t messages = 0;
  std::uint64_t frames_captured = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t distinct_clients = 0;
  std::uint64_t distinct_files = 0;
  std::uint64_t provider_relations = 0;
  std::uint64_t asker_relations = 0;
  std::string error;  ///< pipeline error, empty on success
};

/// `donkeytrace campaign --compress`: simulator with its server, capture
/// buffer, the default serial pipeline and the chunked compressed dataset.
CampaignResult run_campaign(const dtr::core::RunnerConfig& workload,
                            dtr::obs::Registry* metrics = nullptr,
                            dtr::obs::Profiler* profiler = nullptr,
                            SpanRecorder* spans = nullptr);

// ---- setup: the captured corpus ---------------------------------------------

struct Query {
  std::uint32_t client_ip = 0;
  std::uint16_t client_port = 0;
  dtr::SimTime time = 0;
  dtr::proto::Message message;
};

struct Corpus {
  /// Frames the capture engine passed to the pipeline, in order.
  std::vector<dtr::sim::TimedFrame> frames;
  /// Decoded client->server queries, in capture order.
  std::vector<Query> queries;
  dtr::sim::GroundTruth truth;
  std::uint64_t offered = 0;  ///< frames mirrored to the capture engine
  std::uint64_t dropped = 0;  ///< frames the kernel buffer dropped
  double seconds = 0;         ///< whole set-up
  double sim_seconds = 0;     ///< simulator + background generator
  double capture_seconds = 0; ///< CaptureEngine::offer
};

/// Re-run the workload's simulator and capture engine (same seeds, so the
/// same frames the campaign's pipeline received) and decode the queries.
Corpus build_corpus(const dtr::core::RunnerConfig& workload);

// ---- ingest -----------------------------------------------------------------

struct IngestResult {
  double seconds = 0;
  double cpu_seconds = 0;   ///< process user+sys over the phase
  double push_seconds = 0;  ///< time inside push() (backpressure)
  double drain_seconds = 0; ///< time inside finish()
  std::uint64_t messages = 0;
  std::uint64_t allocations = 0;
  std::string xml;
  std::string error;
};

/// Replay the corpus through the serial CapturePipeline (workers == 0) or
/// the ParallelCapturePipeline with batched defaults.
IngestResult run_ingest(const dtr::core::RunnerConfig& workload,
                        const Corpus& corpus, std::size_t workers,
                        std::size_t xml_reserve,
                        dtr::obs::Registry* metrics = nullptr,
                        dtr::obs::Profiler* profiler = nullptr,
                        SpanRecorder* spans = nullptr);

// ---- analyze ----------------------------------------------------------------

struct AnalyzeResult {
  double seconds = 0;
  /// Step times; untraced, parse_s covers parse + stats and stats_s is 0.
  double decompress_s = 0, validate_s = 0, parse_s = 0, stats_s = 0,
         figures_s = 0;
  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  std::uint64_t distinct_clients = 0;
  std::uint64_t distinct_files = 0;
  std::uint64_t provider_relations = 0;
  std::uint64_t asker_relations = 0;
  std::string xml;  ///< decompressed dataset (kept for the byte gate)
  std::string error;
};

/// `donkeytrace analyze` on the in-memory container: decompress, validate,
/// parse + stats, figure histograms and power-law fits.  `staged` parses
/// every event first and runs the stats after, so each step's time is
/// known (the traced run).
AnalyzeResult run_analyze(const std::string& container, bool staged,
                          SpanRecorder* spans = nullptr);

// ---- serve ------------------------------------------------------------------

enum QueryKind : std::size_t { kSearch, kSources, kPublish, kOther, kKinds };

struct ServeResult {
  double seconds = 0;
  std::uint64_t queries = 0;
  std::uint64_t answers = 0;
  std::uint64_t answer_entries = 0;  ///< results + sources over all answers
  std::uint64_t failures = 0;        ///< handle() exceptions
  std::vector<double> latency_us;    ///< one per query, capture order
  std::vector<QueryKind> kinds;      ///< filled when tracing
  std::uint64_t search_results = 0;
  std::uint64_t search_candidates = 0;
  std::uint64_t searches = 0;
};

/// Replay every decoded query through EdonkeyServer::handle on a fresh
/// server, one caller, timing each call.
ServeResult run_serve(const dtr::core::RunnerConfig& workload,
                      const Corpus& corpus, bool traced,
                      SpanRecorder* spans = nullptr);

// ---- staged single-thread ingest (traced run only) --------------------------

struct StagedResult {
  dtr::decode::DecodeStats decode;
  double decode_s = 0, anon_s = 0, stats_s = 0, write_s = 0, compress_s = 0;
  std::uint64_t events = 0;
  std::uint64_t distinct_clients = 0;
  std::uint64_t distinct_files = 0;
  std::uint64_t id_lookups = 0;  ///< clientID + fileID table lookups
  std::uint64_t xml_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  std::string container;  ///< must equal the campaign's
};

/// decode_into -> anonymise -> consume -> write -> chunked compress, each
/// stage run over a block of frames in turn so its self time is known.
StagedResult run_staged(const dtr::core::RunnerConfig& workload,
                        const Corpus& corpus, SpanRecorder* spans);

/// Percentile (0..1) of `v` by nearest rank; `v` is sorted in place.
double percentile(std::vector<double>& v, double q);

/// Median of `v` (copied).
double median(std::vector<double> v);

}  // namespace perfbench
