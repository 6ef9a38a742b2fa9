// End-to-end pipeline throughput baseline (the ISSUE 5 perf trajectory).
//
// The paper's capture box decoded and anonymised eDonkey traffic at line
// rate for ten straight weeks; the pipeline must never be the bottleneck.
// This bench drives a fixed-seed simulated campaign — materialised once
// into memory so frame generation is off the clock — through:
//
//   * the serial CapturePipeline (reference), and
//   * the ParallelCapturePipeline at 2, 4 and 8 workers over the sharded
//     anonymiser (micro-batches over SPSC rings, buffer pooling, parallel
//     anonymise/pre-render and the XML writer thread).
//
// Every run must produce the same message count and the same number of
// XML bytes (a built-in differential check); the JSON it emits
// (BENCH_pipeline.json) records frames/s, messages/s and allocation
// counts per run.  Smoke mode (--smoke) shrinks the campaign to seconds
// for CI; on hosts with >= 4 hardware threads it additionally asserts the
// perf-regression floor (4 workers must reach 85% of serial messages/s).
// Below 4 hardware threads the floor is reported but advisory: parallel
// overhead on an oversubscribed core is real, not a regression.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "xmlio/chunked.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "sim/background.hpp"
#include "sim/campaign.hpp"

// Global allocation counting: every operator new in the process ticks the
// shared obs counters, so the per-run deltas count the pipeline's hot-path
// allocations (the pooling claim is "steady state allocates nothing", and
// this measures it).  The counting operators live in obs/alloc_counting.hpp
// (one TU per binary); this bench is that TU.
#include "obs/alloc_counting.hpp"

namespace {

using namespace dtr;

/// Swallows the XML stream but keeps the byte count — the dataset writer
/// runs at full formatting cost without disk noise, and the byte count is
/// the cross-run differential check.
class CountingNullBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) ++bytes_;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

sim::CampaignConfig corpus_config(bool smoke) {
  sim::CampaignConfig cfg;
  cfg.seed = 42;
  if (smoke) {
    cfg.duration = 2 * kHour;
    cfg.population.client_count = 40;
    cfg.catalog.file_count = 300;
    cfg.catalog.vocabulary = 120;
    cfg.flash_crowd_count = 1;
  } else {
    cfg.duration = 24 * kHour;
    cfg.population.client_count = 800;
    cfg.catalog.file_count = 2'000;
    cfg.catalog.vocabulary = 500;
    cfg.population.collector_share_max = 2'000;
    cfg.population.scanner_ask_max = 1'500;
  }
  return cfg;
}

// The mirror also carries the non-decoded TCP half of the traffic (§2.2:
// UDP is only "about half" of what the NIC captures).  Those frames are
// classified and skipped by the decoder, so their cost is almost purely
// data-plane overhead — exactly what micro-batching amortises.  Rates are
// scaled down from the paper's (5000 SYNs/min) so the corpus fits in a
// bench-sized run while keeping the decoded/skipped frame mix realistic.
sim::BackgroundConfig background_config(bool smoke, SimTime duration) {
  sim::BackgroundConfig cfg;
  cfg.seed = 7;
  cfg.duration = duration;
  cfg.syn_per_minute = smoke ? 60.0 : 600.0;
  cfg.data_rate_quiet = smoke ? 0.5 : 1.0;
  cfg.data_rate_burst = smoke ? 5.0 : 10.0;
  cfg.data_frame_bytes = 400;
  return cfg;
}

// Materialise the merged mirror stream (eDonkey campaign + background TCP)
// in time order, so frame generation happens once and off the clock.
std::vector<sim::TimedFrame> build_corpus(const sim::CampaignConfig& campaign,
                                          const sim::BackgroundConfig& bg) {
  std::vector<sim::TimedFrame> frames;
  {
    sim::CampaignSimulator simulator(campaign);
    simulator.run([&](const sim::TimedFrame& f) { frames.push_back(f); });
  }
  std::vector<sim::TimedFrame> merged;
  sim::BackgroundTraffic background(bg);
  std::optional<sim::TimedFrame> next_bg = background.next();
  merged.reserve(frames.size());
  for (sim::TimedFrame& f : frames) {
    while (next_bg && next_bg->time <= f.time) {
      merged.push_back(std::move(*next_bg));
      next_bg = background.next();
    }
    merged.push_back(std::move(f));
  }
  while (next_bg) {
    merged.push_back(std::move(*next_bg));
    next_bg = background.next();
  }
  return merged;
}

struct RunSpec {
  const char* name;
  std::size_t workers;  // 0 = serial CapturePipeline
  /// Stream the dataset through the chunked compressor (writer.compress
  /// pool of `compress_threads`; container bytes identical across specs).
  bool compress = false;
  std::size_t compress_threads = 0;
};

struct RunStats {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t xml_bytes = 0;  // uncompressed dataset bytes, always
  std::uint64_t compressed_bytes = 0;  // container bytes; 0 = compression off
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::string error;
};

RunStats run_once(const std::vector<sim::TimedFrame>& frames,
                  const RunSpec& spec, obs::Registry* metrics = nullptr,
                  obs::Profiler* profiler = nullptr) {
  CountingNullBuf xml_buf;
  std::ostream raw_xml(&xml_buf);
  std::unique_ptr<xmlio::CompressingOstream> compressor;
  std::ostream* xml = &raw_xml;
  if (spec.compress) {
    xmlio::ChunkedWriterConfig zcfg;
    zcfg.threads = spec.compress_threads;
    compressor = std::make_unique<xmlio::CompressingOstream>(raw_xml, zcfg);
    xml = compressor.get();
  }
  RunStats stats;
  core::PipelineResult result;

  if (spec.workers == 0) {
    core::PipelineConfig cfg;
    cfg.xml_out = xml;
    cfg.metrics = metrics;
    cfg.profiler = profiler;
    core::CapturePipeline pipeline(cfg);
    const std::uint64_t allocs0 = obs::allocation_count();
    const std::uint64_t bytes0 = obs::allocation_bytes();
    const auto t0 = std::chrono::steady_clock::now();
    for (const sim::TimedFrame& frame : frames) pipeline.push(frame);
    result = pipeline.finish();
    if (compressor) compressor->writer().finish();
    const auto t1 = std::chrono::steady_clock::now();
    stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    stats.allocs = obs::allocation_count() - allocs0;
    stats.alloc_bytes = obs::allocation_bytes() - bytes0;
  } else {
    core::ParallelPipelineConfig cfg;
    cfg.workers = spec.workers;
    cfg.xml_out = xml;
    cfg.metrics = metrics;
    cfg.profiler = profiler;
    core::ParallelCapturePipeline pipeline(cfg);
    const std::uint64_t allocs0 = obs::allocation_count();
    const std::uint64_t bytes0 = obs::allocation_bytes();
    const auto t0 = std::chrono::steady_clock::now();
    for (const sim::TimedFrame& frame : frames) pipeline.push(frame);
    result = pipeline.finish();
    if (compressor) compressor->writer().finish();
    const auto t1 = std::chrono::steady_clock::now();
    stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    stats.allocs = obs::allocation_count() - allocs0;
    stats.alloc_bytes = obs::allocation_bytes() - bytes0;
  }

  stats.messages = result.anonymised_events;
  if (compressor) {
    stats.xml_bytes = compressor->writer().uncompressed_bytes();
    stats.compressed_bytes = xml_buf.bytes();
  } else {
    stats.xml_bytes = xml_buf.bytes();
  }
  stats.error = result.error;
  return stats;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

int run_bench(bool smoke, const std::string& out_path) {
  const sim::CampaignConfig cfg = corpus_config(smoke);
  const std::vector<sim::TimedFrame> frames =
      build_corpus(cfg, background_config(smoke, cfg.duration));
  std::uint64_t corpus_bytes = 0;
  for (const sim::TimedFrame& f : frames) corpus_bytes += f.bytes.size();
  std::cerr << "corpus: " << frames.size() << " frames, " << corpus_bytes
            << " bytes (seed " << cfg.seed << ", "
            << (smoke ? "smoke" : "full") << " mode)\n";

  const RunSpec specs[] = {
      {"serial", 0},
      {"parallel-2w", 2},
      {"parallel-4w", 4},
      {"parallel-8w", 8},
      // Compressed-writer configurations: the dataset streams through the
      // chunked compressor.  The uncompressed byte count must still match
      // every run above, and the container bytes must be identical across
      // pipeline shapes and pool sizes (the determinism contract).
      {"serial-compressed-2t", 0, true, 2},
      {"parallel-4w-compressed-1t", 4, true, 1},
      {"parallel-4w-compressed-4t", 4, true, 4},
  };

  std::string runs_json;
  std::uint64_t reference_messages = 0;
  std::uint64_t reference_xml_bytes = 0;
  std::uint64_t reference_compressed_bytes = 0;
  double compressed_4w = 0.0;
  double serial_rate = 0.0;
  double parallel_4w = 0.0;
  double parallel_8w = 0.0;
  bool ok = true;

  for (const RunSpec& spec : specs) {
    const RunStats stats = run_once(frames, spec);
    const double frames_per_s =
        stats.seconds > 0 ? static_cast<double>(frames.size()) / stats.seconds
                          : 0.0;
    const double messages_per_s =
        stats.seconds > 0 ? static_cast<double>(stats.messages) / stats.seconds
                          : 0.0;
    std::cerr << spec.name << ": " << fmt_double(stats.seconds) << " s, "
              << static_cast<std::uint64_t>(messages_per_s) << " msgs/s, "
              << stats.allocs << " allocs\n";
    if (!stats.error.empty()) {
      std::cerr << spec.name << " failed: " << stats.error << "\n";
      ok = false;
    }
    // Differential check: every configuration must produce the same
    // anonymised stream (count and formatted XML size).
    if (reference_messages == 0) {
      reference_messages = stats.messages;
      reference_xml_bytes = stats.xml_bytes;
    } else if (stats.messages != reference_messages ||
               stats.xml_bytes != reference_xml_bytes) {
      std::cerr << spec.name << " output mismatch: " << stats.messages << "/"
                << stats.xml_bytes << " vs reference " << reference_messages
                << "/" << reference_xml_bytes << "\n";
      ok = false;
    }
    // Compressed runs must additionally agree on the container bytes —
    // serial vs parallel, any pool size.
    if (spec.compress) {
      if (reference_compressed_bytes == 0) {
        reference_compressed_bytes = stats.compressed_bytes;
      } else if (stats.compressed_bytes != reference_compressed_bytes) {
        std::cerr << spec.name << " container mismatch: "
                  << stats.compressed_bytes << " vs reference "
                  << reference_compressed_bytes << "\n";
        ok = false;
      }
    }
    if (std::string(spec.name) == "serial") serial_rate = messages_per_s;
    if (std::string(spec.name) == "parallel-4w") parallel_4w = messages_per_s;
    if (std::string(spec.name) == "parallel-8w") parallel_8w = messages_per_s;
    if (std::string(spec.name) == "parallel-4w-compressed-4t") {
      compressed_4w = messages_per_s;
    }

    if (!runs_json.empty()) runs_json += ",\n";
    runs_json += "    {\"name\": \"" + std::string(spec.name) +
                 "\", \"workers\": " + std::to_string(spec.workers) +
                 ", \"seconds\": " + fmt_double(stats.seconds) +
                 ", \"frames_per_s\": " + fmt_double(frames_per_s) +
                 ", \"messages_per_s\": " + fmt_double(messages_per_s) +
                 ", \"messages\": " + std::to_string(stats.messages) +
                 ", \"xml_bytes\": " + std::to_string(stats.xml_bytes) +
                 ", \"compress\": " + (spec.compress ? "true" : "false") +
                 ", \"compress_threads\": " +
                 std::to_string(spec.compress_threads) +
                 ", \"compressed_bytes\": " +
                 std::to_string(stats.compressed_bytes) +
                 ", \"allocs\": " + std::to_string(stats.allocs) +
                 ", \"alloc_bytes\": " + std::to_string(stats.alloc_bytes) +
                 "}";
  }

  // Perf-regression floor: with enough real cores, the 4-worker pipeline
  // must not fall behind serial (15% slack for machine noise).
  // On narrower hosts the same ratio is reported but only advisory: the
  // parallel pipeline's coordination overhead cannot amortise when every
  // thread shares one core, and failing CI over core count would make the
  // gate meaningless.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_enforced = hw >= 4;
  const double floor_ratio = 0.85;
  const double serial_ratio_4w =
      serial_rate > 0 ? parallel_4w / serial_rate : 0.0;
  if (gate_enforced) {
    if (serial_ratio_4w < floor_ratio) {
      std::cerr << "PERF REGRESSION: 4w is " << fmt_double(serial_ratio_4w)
                << "x serial (floor " << fmt_double(floor_ratio) << "x, "
                << hw << " hardware threads)\n";
      ok = false;
    }
  } else {
    // Unenforced hosts still report the number they measured: a narrow CI
    // box going from 0.9x to 0.3x is worth noticing even when it cannot
    // fail the run.
    std::cerr << "perf floor advisory only (gate needs >= 4 hardware "
              << "threads, have " << hw << "): 4w is "
              << fmt_double(serial_ratio_4w) << "x serial (floor "
              << fmt_double(floor_ratio) << "x, "
              << (serial_ratio_4w < floor_ratio ? "below" : "meets")
              << " floor)\n";
  }

  std::string json = "{\n  \"bench\": \"pipeline_throughput\",\n";
  json += "  \"mode\": \"" + std::string(smoke ? "smoke" : "full") + "\",\n";
  json += "  \"hardware_threads\": " + std::to_string(hw) + ",\n";
  json += "  \"corpus\": {\"seed\": " + std::to_string(cfg.seed) +
          ", \"frames\": " + std::to_string(frames.size()) +
          ", \"bytes\": " + std::to_string(corpus_bytes) + "},\n";
  json += "  \"runs\": [\n" + runs_json + "\n  ],\n";
  json += "  \"summary\": {\"serial_messages_per_s\": " + fmt_double(serial_rate) +
          ", \"parallel_4w_messages_per_s\": " + fmt_double(parallel_4w) +
          ", \"parallel_8w_messages_per_s\": " + fmt_double(parallel_8w) +
          ", \"serial_ratio_4w\": " + fmt_double(serial_ratio_4w) +
          ", \"compressed_4w_messages_per_s\": " + fmt_double(compressed_4w) +
          ", \"compression_ratio\": " +
          fmt_double(reference_xml_bytes > 0
                         ? static_cast<double>(reference_compressed_bytes) /
                               static_cast<double>(reference_xml_bytes)
                         : 0.0) +
          ", \"perf_gate_enforced\": " +
          (gate_enforced ? "true" : "false") + "}\n}\n";

  if (!obs::json_valid(json)) {
    std::cerr << "internal error: emitted invalid JSON\n";
    return 2;
  }
  std::ofstream out(out_path, std::ios::binary);
  out << json;
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 2;
  }
  std::cerr << "wrote " << out_path << " (4w/serial "
            << fmt_double(serial_ratio_4w) << "x)\n";
  return ok ? 0 : 1;
}

// --profile-out: one 4-worker run with the pipeline profiler and
// the resource sampler attached, ending in the bottleneck report (text to
// stderr, JSON to FILE).  This is the "which stage is saturated" follow-up
// question the throughput numbers alone cannot answer.
int run_profiled(bool smoke, const std::string& profile_path) {
  const sim::CampaignConfig cfg = corpus_config(smoke);
  const std::vector<sim::TimedFrame> frames =
      build_corpus(cfg, background_config(smoke, cfg.duration));
  std::cerr << "corpus: " << frames.size() << " frames (seed " << cfg.seed
            << ", " << (smoke ? "smoke" : "full") << " mode, profiled)\n";

  obs::Registry registry;
  obs::Profiler profiler;
  obs::ResourceSamplerOptions opts;
  opts.interval = std::chrono::milliseconds(smoke ? 10 : 50);
  opts.counters = {"pipeline.frames", "pipeline.messages", "anon.events"};
  opts.gauges = {{"pipeline.queue.merge", ""}, {"pipeline.queue.writer", ""}};
  obs::ResourceSampler sampler(&registry, opts);

  RunSpec spec{"parallel-4w-profiled", 4};
  sampler.start();
  const RunStats stats = run_once(frames, spec, &registry, &profiler);
  sampler.stop();
  if (!stats.error.empty()) {
    std::cerr << spec.name << " failed: " << stats.error << "\n";
    return 1;
  }
  std::cerr << spec.name << ": " << fmt_double(stats.seconds) << " s, "
            << stats.messages << " messages, " << stats.allocs << " allocs\n";

  const obs::BottleneckReport report =
      obs::build_bottleneck_report(profiler, &sampler);
  report.render_text(std::cerr);
  std::ostringstream json;
  report.render_json(json);
  if (!obs::json_valid(json.str())) {
    std::cerr << "internal error: emitted invalid JSON\n";
    return 2;
  }
  std::ofstream out(profile_path, std::ios::binary);
  out << json.str() << "\n";
  if (!out) {
    std::cerr << "cannot write " << profile_path << "\n";
    return 2;
  }
  std::cerr << "wrote " << profile_path << " (bottleneck report)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_pipeline.json";
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else {
      std::cerr << "usage: pipeline_throughput [--smoke] [--out FILE] "
                   "[--profile-out FILE]\n";
      return 2;
    }
  }
  if (!profile_path.empty()) return run_profiled(smoke, profile_path);
  return run_bench(smoke, out_path);
}
