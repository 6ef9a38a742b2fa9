#include "phases.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <streambuf>
#include <variant>

#include "analysis/powerlaw.hpp"
#include "analysis/report.hpp"
#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "capture/engine.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "obs/resource.hpp"
#include "server/server.hpp"
#include "sim/background.hpp"
#include "sim/campaign.hpp"
#include "xmlio/chunked.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/validate.hpp"

namespace perfbench {

using namespace dtr;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Appends everything written to it to a std::string (no copy at the end,
/// unlike std::ostringstream::str()).
class StringBuf : public std::streambuf {
 public:
  explicit StringBuf(std::string& out) : out_(out) {}

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) out_.push_back(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string& out_;
};

// Scale of each workload.  Sized so a round of all phases takes two to three
// seconds on a 4-core x86 host, which lets a 55 s run repeat each phase
// about twenty times.
struct Scale {
  std::uint32_t clients;
  SimTime duration;
};

Scale scale_of(std::string_view name, bool smoke) {
  if (smoke) return {60, 2 * kHour};
  if (name == "polluter_flood") return {1'000, 12 * kHour};
  if (name == "tcp_mirror") return {1'200, 24 * kHour};
  return {2'000, 24 * kHour};  // steady
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady", "polluter_flood",
                                                 "tcp_mirror"};
  return names;
}

std::optional<core::RunnerConfig> make_workload(std::string_view name,
                                                std::uint64_t seed,
                                                bool smoke) {
  if (std::find(workload_names().begin(), workload_names().end(), name) ==
      workload_names().end()) {
    return std::nullopt;
  }
  const Scale scale = scale_of(name, smoke);
  core::RunnerConfig cfg;
  // The seed drives every generator: campaign (catalog, population,
  // sessions), kernel-buffer stalls and the background TCP stream.
  cfg.campaign.seed = seed;
  cfg.buffer.seed = seed ^ 0x9E3779B97F4A7C15ULL;
  cfg.campaign.duration = scale.duration;
  // Client kinds, their fractions and the power-law exponents of shares and
  // asks are the paper-calibrated defaults.  The reach of the tails is not:
  // at a few thousand clients an untruncated tail puts most of a run's work
  // on a handful of collectors, scanners or polluters, so two seeds measure
  // two different mixes (with every population and catalog default, five
  // seeds spread 0.40-0.99 as quartile distance over median on every
  // timing metric, and dataset bytes per message ran 98-248).  Truncated,
  // a seed changes the inputs but not their character.  These truncations
  // are a departure from the paper's calibration, listed in README.md.
  workload::PopulationConfig& pop = cfg.campaign.population;
  pop.client_count = scale.clients;
  pop.casual_share_max = 25;
  pop.casual_ask_max = 50;
  pop.collector_share_max = 100;
  pop.scanner_ask_max = 100;
  pop.polluter_forged_files_min = 50;
  pop.polluter_forged_files_max = 100;
  // The same reasoning for the catalog: with the paper's popularity skew a
  // third of all asks target ten files, and whether those ten names share a
  // common keyword decides how large every search answer is.
  workload::CatalogConfig& cat = cfg.campaign.catalog;
  cat.file_count = 5 * scale.clients;
  cat.vocabulary = cat.file_count / 8;
  cat.popularity_zipf = 0.6;
  cat.token_zipf = 0.7;
  if (name == "polluter_flood") {
    cfg.campaign.scenario = sim::scenario_preset("polluter_flood");
    // The flood's size is set by how many polluter sessions fall inside the
    // waves.  The preset's 8 % cohort is doubled (taken from the casuals)
    // and each polluter forges 100-200 fileIDs, so the flood's size varies
    // less from seed to seed.
    pop.casual_fraction -= 0.16 - pop.polluter_fraction;
    pop.polluter_fraction = 0.16;
    pop.polluter_forged_files_min = 100;
    pop.polluter_forged_files_max = 200;
  } else if (name == "tcp_mirror") {
    // The §2.2 TCP half of the mirror at a high frame rate: about nine in
    // ten mirrored frames are skipped TCP.  At the default drain rate the
    // simulated kernel buffer drops next to nothing.
    sim::BackgroundConfig bg;
    bg.seed = seed * 31 + 7;
    bg.syn_per_minute = 60.0;
    bg.data_rate_quiet = 1.3;
    bg.data_rate_burst = 30.0;
    bg.data_frame_bytes = 400;
    cfg.background = bg;
  }
  return cfg;
}

// ---- campaign ---------------------------------------------------------------

CampaignResult run_campaign(const core::RunnerConfig& workload,
                            obs::Registry* metrics, obs::Profiler* profiler,
                            SpanRecorder* spans) {
  CampaignResult out;
  std::ostringstream container;
  core::RunnerConfig cfg = workload;
  cfg.xml_out = &container;
  cfg.compress = true;
  cfg.metrics = metrics;
  cfg.profiler = profiler;
  SpanRecorder::Scope span(spans, "campaign");
  const auto t0 = Clock::now();
  core::CampaignRunner runner(cfg);
  const core::CampaignReport report = runner.run();
  out.seconds = since(t0);
  span.close();
  out.container = std::move(container).str();
  out.error = report.pipeline.error;
  const analysis::CampaignStats& stats = runner.stats();
  out.messages = stats.messages();
  out.frames_captured = report.frames_captured;
  out.frames_lost = report.frames_lost;
  out.distinct_clients = stats.distinct_clients();
  out.distinct_files = stats.distinct_files();
  out.provider_relations = stats.provider_relations();
  out.asker_relations = stats.asker_relations();
  return out;
}

// ---- setup ------------------------------------------------------------------

Corpus build_corpus(const core::RunnerConfig& workload) {
  Corpus corpus;
  const auto t0 = Clock::now();
  sim::CampaignSimulator simulator(workload.campaign);
  capture::CaptureEngine engine(workload.buffer);
  engine.set_sink([&corpus](const sim::TimedFrame& f) {
    corpus.frames.push_back(f);
  });

  // Mirrored frames are generated in blocks and then offered to the
  // capture engine, so the two costs are timed apart.
  std::vector<sim::TimedFrame> block;
  block.reserve(1 << 14);
  auto offer_block = [&] {
    const auto c0 = Clock::now();
    for (const sim::TimedFrame& f : block) engine.offer(f);
    corpus.capture_seconds += since(c0);
    corpus.offered += block.size();
    block.clear();
  };
  auto mirror = [&](sim::TimedFrame f) {
    block.push_back(std::move(f));
    if (block.size() == block.capacity()) offer_block();
  };

  // The same lazy merge of campaign and background streams CampaignRunner
  // performs: background frames at or before a campaign frame go first.
  std::optional<sim::BackgroundTraffic> background;
  std::optional<sim::TimedFrame> pending;
  if (workload.background) {
    sim::BackgroundConfig bg = *workload.background;
    bg.duration = workload.campaign.duration;
    bg.server_ip = workload.campaign.server_ip;
    background.emplace(bg);
    if (const sim::Scenario* sc = simulator.scenario()) {
      background->set_envelope(
          [sc](SimTime t) { return sc->background_boost(t); });
    }
    pending = background->next();
  }
  simulator.run([&](const sim::TimedFrame& f) {
    while (pending && pending->time <= f.time) {
      mirror(std::move(*pending));
      pending = background->next();
    }
    mirror(f);
  });
  while (pending) {
    mirror(std::move(*pending));
    pending = background->next();
  }
  offer_block();
  corpus.sim_seconds = since(t0) - corpus.capture_seconds;
  corpus.truth = simulator.truth();
  corpus.dropped = engine.lost();

  // The serve phase replays what the capture box decoded from clients.
  const std::uint32_t server_ip = workload.campaign.server_ip;
  const std::uint16_t server_port = workload.campaign.server_port;
  decode::FrameDecoder decoder(server_ip, server_port, decode::MessageSink{});
  std::vector<decode::DecodedMessage> messages;
  for (const sim::TimedFrame& f : corpus.frames) {
    decoder.decode_into(f, messages);
    for (decode::DecodedMessage& m : messages) {
      if (m.dst_ip == server_ip && m.dst_port == server_port) {
        corpus.queries.push_back(
            Query{m.src_ip, m.src_port, m.time, std::move(m.message)});
      }
    }
    messages.clear();
  }
  decoder.finish(corpus.frames.empty() ? 0 : corpus.frames.back().time);
  corpus.seconds = since(t0);
  return corpus;
}

// ---- ingest -----------------------------------------------------------------

IngestResult run_ingest(const core::RunnerConfig& workload,
                        const Corpus& corpus, std::size_t workers,
                        std::size_t xml_reserve, obs::Registry* metrics,
                        obs::Profiler* profiler, SpanRecorder* spans) {
  IngestResult out;
  out.xml.reserve(xml_reserve);
  StringBuf buf(out.xml);
  std::ostream xml(&buf);
  SpanRecorder::Scope span(spans, workers == 0 ? "ingest" : "ingest_par");
  const double cpu0 = cpu_seconds();
  const std::uint64_t allocs0 = obs::allocation_count();
  const auto t0 = Clock::now();
  core::PipelineResult result;
  if (workers == 0) {
    core::PipelineConfig cfg;
    cfg.server_ip = workload.campaign.server_ip;
    cfg.server_port = workload.campaign.server_port;
    cfg.xml_out = &xml;
    cfg.metrics = metrics;
    cfg.profiler = profiler;
    core::CapturePipeline pipeline(cfg);
    {
      SpanRecorder::Scope push(spans, "pipeline.push");
      for (const sim::TimedFrame& f : corpus.frames) pipeline.push(f);
      out.push_seconds = since(t0);
    }
    const auto d0 = Clock::now();
    SpanRecorder::Scope drain(spans, "pipeline.finish");
    result = pipeline.finish();
    out.drain_seconds = since(d0);
  } else {
    core::ParallelPipelineConfig cfg;
    cfg.server_ip = workload.campaign.server_ip;
    cfg.server_port = workload.campaign.server_port;
    cfg.workers = workers;
    cfg.xml_out = &xml;
    cfg.metrics = metrics;
    cfg.profiler = profiler;
    core::ParallelCapturePipeline pipeline(cfg);
    {
      SpanRecorder::Scope push(spans, "pipeline.push");
      for (const sim::TimedFrame& f : corpus.frames) pipeline.push(f);
      out.push_seconds = since(t0);
    }
    const auto d0 = Clock::now();
    SpanRecorder::Scope drain(spans, "pipeline.finish");
    result = pipeline.finish();
    out.drain_seconds = since(d0);
  }
  out.seconds = since(t0);
  out.cpu_seconds = cpu_seconds() - cpu0;
  out.allocations = obs::allocation_count() - allocs0;
  out.messages = result.anonymised_events;
  out.error = result.error;
  return out;
}

// ---- analyze ----------------------------------------------------------------

namespace {

/// The figure work of `donkeytrace analyze`: Figures 4-8 as log-log plots
/// with their power-law fits.  Returns the rendered bytes.
std::size_t render_figures(const analysis::CampaignStats& stats) {
  const CountHistogram figures[] = {
      stats.providers_per_file(), stats.askers_per_file(),
      stats.files_per_provider(), stats.files_per_asker(),
      stats.size_distribution()};
  std::ostringstream out;
  for (const CountHistogram& h : figures) {
    if (h.empty()) continue;
    analysis::print_loglog_plot(out, h, 64, 14);
    out << analysis::describe_fit(analysis::fit_power_law_auto(h)) << "\n";
  }
  return out.str().size();
}

}  // namespace

AnalyzeResult run_analyze(const std::string& container, bool staged,
                          SpanRecorder* spans) {
  AnalyzeResult out;
  SpanRecorder::Scope span(spans, "analyze");
  const auto t0 = Clock::now();
  auto step = Clock::now();
  auto lap = [&step](double& into) {
    const auto now = Clock::now();
    into = std::chrono::duration<double>(now - step).count();
    step = now;
  };

  {
    SpanRecorder::Scope s(spans, "analyze.decompress");
    const auto expanded = xmlio::chunked_decompress(BytesView(
        reinterpret_cast<const std::uint8_t*>(container.data()),
        container.size()));
    if (!expanded) {
      out.error = "container does not decompress";
      return out;
    }
    out.xml.assign(expanded->begin(), expanded->end());
  }
  lap(out.decompress_s);
  {
    SpanRecorder::Scope s(spans, "analyze.validate");
    std::istringstream in(out.xml);
    out.violations = xmlio::DatasetValidator::validate_document(in).size();
  }
  lap(out.validate_s);

  analysis::CampaignStats stats;
  std::istringstream in(out.xml);
  xmlio::DatasetReader reader(in);
  if (staged) {
    std::vector<anon::AnonEvent> events;
    {
      SpanRecorder::Scope s(spans, "analyze.parse");
      while (auto ev = reader.next()) events.push_back(std::move(*ev));
    }
    lap(out.parse_s);
    {
      SpanRecorder::Scope s(spans, "analyze.stats");
      for (const anon::AnonEvent& ev : events) stats.consume(ev);
    }
    lap(out.stats_s);
  } else {
    while (auto ev = reader.next()) stats.consume(*ev);
    lap(out.parse_s);
  }
  if (!reader.ok()) out.error = "reader: " + reader.error();
  {
    SpanRecorder::Scope s(spans, "analyze.figures");
    if (render_figures(stats) == 0 && stats.messages() > 0) {
      out.error = "no figure rendered";
    }
  }
  lap(out.figures_s);
  out.seconds = since(t0);
  out.events = stats.messages();
  out.distinct_clients = stats.distinct_clients();
  out.distinct_files = stats.distinct_files();
  out.provider_relations = stats.provider_relations();
  out.asker_relations = stats.asker_relations();
  return out;
}

// ---- serve ------------------------------------------------------------------

namespace {

QueryKind kind_of(const proto::Message& m) {
  if (std::holds_alternative<proto::FileSearchReq>(m)) return kSearch;
  if (std::holds_alternative<proto::GetSourcesReq>(m)) return kSources;
  if (std::holds_alternative<proto::PublishReq>(m)) return kPublish;
  return kOther;
}

}  // namespace

ServeResult run_serve(const core::RunnerConfig& workload, const Corpus& corpus,
                      bool traced, SpanRecorder* spans) {
  ServeResult out;
  out.latency_us.reserve(corpus.queries.size());
  if (traced) out.kinds.reserve(corpus.queries.size());
  obs::Registry registry;
  server::EdonkeyServer server(workload.campaign.server);
  if (traced) server.bind_metrics(registry);
  SpanRecorder::Scope span(spans, "serve");
  const auto t0 = Clock::now();
  for (const Query& q : corpus.queries) {
    const auto h0 = Clock::now();
    std::vector<proto::Message> answers;
    try {
      answers = server.handle(q.client_ip, q.client_port, q.message, q.time);
    } catch (const std::exception&) {
      ++out.failures;
    }
    const auto h1 = Clock::now();
    out.latency_us.push_back(
        std::chrono::duration<double, std::micro>(h1 - h0).count());
    out.answers += answers.size();
    for (const proto::Message& a : answers) {
      if (const auto* r = std::get_if<proto::FileSearchRes>(&a)) {
        out.answer_entries += r->results.size();
        out.search_results += r->results.size();
      } else if (const auto* s = std::get_if<proto::FoundSourcesRes>(&a)) {
        out.answer_entries += s->sources.size();
      }
    }
    if (traced) out.kinds.push_back(kind_of(q.message));
  }
  out.seconds = since(t0);
  out.queries = corpus.queries.size();
  if (traced) {
    const obs::Snapshot snap = registry.snapshot();
    const auto it = snap.histograms.find("server.index.search.candidates");
    if (it != snap.histograms.end()) {
      out.searches = it->second.count;
      out.search_candidates =
          static_cast<std::uint64_t>(std::llround(it->second.sum));
    }
  }
  return out;
}

// ---- staged single-thread ingest --------------------------------------------

StagedResult run_staged(const core::RunnerConfig& workload,
                        const Corpus& corpus, SpanRecorder* spans) {
  StagedResult out;
  const std::uint32_t server_ip = workload.campaign.server_ip;
  const std::uint16_t server_port = workload.campaign.server_port;
  obs::Registry registry;
  decode::FrameDecoder decoder(server_ip, server_port, decode::MessageSink{});
  anon::DirectClientTable clients;
  anon::BucketedFileIdStore files;
  anon::Anonymiser anonymiser(clients, files);
  anonymiser.bind_metrics(registry);
  analysis::CampaignStats stats;
  std::ostringstream container;
  xmlio::ChunkedWriter compressor(container);
  std::string xml;
  StringBuf xml_buf(xml);
  std::ostream xml_stream(&xml_buf);
  xmlio::DatasetWriter writer(xml_stream);

  std::vector<decode::DecodedMessage> messages;
  std::vector<anon::AnonEvent> events;
  constexpr std::size_t kBlock = 4096;
  SpanRecorder::Scope span(spans, "staged");
  auto timed = [spans](const char* name, double& into, auto&& body) {
    SpanRecorder::Scope s(spans, name);
    const auto t0 = Clock::now();
    body();
    into += since(t0);
  };
  auto compress = [&] {
    timed("compress", out.compress_s, [&] {
      compressor.append(xml.data(), xml.size());
    });
    out.xml_bytes += xml.size();
    xml.clear();
  };
  auto consume_messages = [&] {
    timed("anonymise", out.anon_s, [&] {
      for (const decode::DecodedMessage& m : messages) {
        const bool from_client =
            m.dst_ip == server_ip && m.dst_port == server_port;
        events.push_back(anonymiser.anonymise(
            m.time, from_client ? m.src_ip : m.dst_ip, m.message));
      }
    });
    timed("consume", out.stats_s, [&] {
      for (const anon::AnonEvent& e : events) stats.consume(e);
    });
    timed("write", out.write_s, [&] {
      for (const anon::AnonEvent& e : events) writer.write(e);
    });
    compress();
    out.events += events.size();
    messages.clear();
    events.clear();
  };

  const std::size_t n = corpus.frames.size();
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t end = std::min(n, begin + kBlock);
    timed("decode_into", out.decode_s, [&] {
      for (std::size_t i = begin; i < end; ++i) {
        decoder.decode_into(corpus.frames[i], messages);
      }
    });
    consume_messages();
  }
  // Reassembly timeouts flushed at end of stream, then the XML epilogue and
  // the container's end frame.
  timed("decode_into", out.decode_s, [&] {
    decoder.finish(n == 0 ? 0 : corpus.frames.back().time);
  });
  consume_messages();
  timed("write", out.write_s, [&] { writer.finish(); });
  compress();
  timed("compress", out.compress_s, [&] { compressor.finish(); });

  out.decode = decoder.stats();
  out.distinct_clients = anonymiser.distinct_clients();
  out.distinct_files = anonymiser.distinct_files();
  const obs::Snapshot snap = registry.snapshot();
  out.id_lookups =
      snap.counter("anon.client_lookups") + snap.counter("anon.file_lookups");
  out.compressed_bytes = compressor.compressed_bytes();
  out.container = std::move(container).str();
  return out;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
