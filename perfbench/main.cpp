// donkeytrace repo benchmark: one workload's whole user story per run.
//
//   perfbench --workload steady|polluter_flood|tcp_mirror --seed N
//             --seconds S --trace 0|1 [--smoke] [--spans-out PATH]
//
// Untraced (--trace 0): a campaign first (its RSS high-water is read before
// anything else is held), then rounds of corpus set-up, ingest (serial,
// parallel), analyze, serve and campaign until S seconds have passed.  Rates
// are pooled over the rounds (total work over total seconds), the serve
// latency percentiles pool every call, and setup_s is the median.
// Traced (--trace 1): rounds until S seconds have passed, in which each
// phase runs once plain and once with the program's obs::Registry /
// obs::Profiler attached and spans recorded, plus a staged single-thread
// ingest replay; it prints every per-layer metric (medians over rounds)
// with the end-to-end metric it should move, and the tracing overhead per
// phase.
//
// Every run checks its outputs (see Gate below).  The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A run
// whose checks fail prints it with "correct": false and exits 1.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/resource.hpp"
#include "phases.hpp"

// Count every operator new, as the CLI does (pipeline.allocs_per_msg).
#include "obs/alloc_counting.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --workload and --seconds > 0 required\n");
    return false;
  }
  return true;
}

/// The correctness gate: every phase output is checked on every round.
/// `attempted` counts operations (messages, events, queries) and checks;
/// `failed` counts failed operations and failed checks.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void ops(std::uint64_t n, std::uint64_t failures = 0) {
    attempted += n;
    failed += failures;
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("GATE FAIL: %s\n", what.c_str());
    }
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A phase's rate over a whole run: total work over total seconds.  Host
/// noise here switches a phase between a fast and a slow mode from one
/// round to the next; the median over rounds then jumps between the modes,
/// while the pooled rate moves only with the share of slow rounds.
struct Rate {
  double work = 0;
  double seconds = 0;
  std::vector<double> per_round;  ///< printed, not reported

  void add(double w, double s) {
    work += w;
    seconds += s;
    per_round.push_back(ratio(w, s));
  }
  double value() const { return ratio(work, seconds); }
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---- shared checks ----------------------------------------------------------

void check_campaign(Gate& gate, const CampaignResult& c,
                    const CampaignResult& first) {
  gate.ops(c.messages);
  gate.check(c.error.empty(), "campaign pipeline error: " + c.error);
  gate.check(c.container == first.container,
             "campaign container differs between rounds");
}

void check_corpus(Gate& gate, const Corpus& corpus,
                  const CampaignResult& first) {
  gate.check(corpus.frames.size() == first.frames_captured &&
                 corpus.dropped == first.frames_lost,
             "corpus frames (" + std::to_string(corpus.frames.size()) +
                 " kept, " + std::to_string(corpus.dropped) +
                 " dropped) differ from the campaign's capture (" +
                 std::to_string(first.frames_captured) + ", " +
                 std::to_string(first.frames_lost) + ")");
}

void check_ingest(Gate& gate, const IngestResult& r, const std::string& ref,
                  std::uint64_t messages, const char* which) {
  gate.ops(r.messages);
  gate.check(r.error.empty(), std::string(which) + " error: " + r.error);
  gate.check(r.messages == messages,
             std::string(which) + " message count differs from the campaign");
  gate.check(r.xml == ref,
             std::string(which) + " XML differs from the campaign dataset");
}

void check_analyze(Gate& gate, const AnalyzeResult& a,
                   const CampaignResult& c) {
  gate.ops(a.events, a.violations);
  gate.check(a.error.empty(), "analyze: " + a.error);
  gate.check(a.violations == 0,
             "analyze: " + std::to_string(a.violations) +
                 " validator finding(s)");
  gate.check(a.events == c.messages && a.distinct_clients == c.distinct_clients &&
                 a.distinct_files == c.distinct_files &&
                 a.provider_relations == c.provider_relations &&
                 a.asker_relations == c.asker_relations,
             "analyze counts differ from the pipeline's CampaignStats");
}

void check_serve(Gate& gate, const ServeResult& s, const ServeResult& first) {
  gate.ops(s.queries, s.failures);
  gate.check(s.answers == first.answers &&
                 s.answer_entries == first.answer_entries,
             "serve answer counts differ between repeats");
}

// ---- output -----------------------------------------------------------------

void print_value(std::FILE* f, double v) {
  // Full precision, but never a non-finite token (not valid JSON).
  std::fprintf(f, "%.10g", std::isfinite(v) ? v : 0.0);
}

void print_result_line(const Gate& gate, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_value(stdout, m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_table(const char* title, const Metrics& metrics) {
  std::printf("\n== %s ==\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-40s ", name.c_str());
    print_value(stdout, m.value);
    std::printf(" %s\n", m.unit.c_str());
  }
}

void print_counts(const CampaignResult& c, const Corpus& corpus,
                  const std::string& xml, const ServeResult& s) {
  std::printf("\n== exact counts ==\n");
  std::printf("  frames mirrored      %llu\n",
              static_cast<unsigned long long>(corpus.offered));
  std::printf("  frames captured      %llu\n",
              static_cast<unsigned long long>(c.frames_captured));
  std::printf("  frames lost          %llu\n",
              static_cast<unsigned long long>(c.frames_lost));
  std::printf("  messages             %llu\n",
              static_cast<unsigned long long>(c.messages));
  std::printf("  distinct clients     %llu\n",
              static_cast<unsigned long long>(c.distinct_clients));
  std::printf("  distinct fileIDs     %llu\n",
              static_cast<unsigned long long>(c.distinct_files));
  std::printf("  dataset bytes        %zu (XML %zu)\n", c.container.size(),
              xml.size());
  std::printf("  queries served       %llu\n",
              static_cast<unsigned long long>(s.queries));
  std::printf("  answers              %llu (entries %llu)\n",
              static_cast<unsigned long long>(s.answers),
              static_cast<unsigned long long>(s.answer_entries));
}

// ---- the untraced run: end-to-end metrics -----------------------------------

int run_untraced(const Args& args, const dtr::core::RunnerConfig& workload) {
  Gate gate;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const std::size_t min_rounds = args.smoke ? 1 : 3;

  // The campaign runs before the corpus exists: the process high-water
  // mark read right after it is the campaign's own.
  const CampaignResult first = run_campaign(workload);
  const std::uint64_t peak_rss = dtr::obs::read_peak_rss_bytes();
  check_campaign(gate, first, first);
  Rate campaign_rate, ingest_rate, par_rate, par_cpu, analyze_rate,
      serve_rate;
  campaign_rate.add(first.messages, first.seconds);

  const AnalyzeResult reference = run_analyze(first.container, false);
  const std::string& ref_xml = reference.xml;

  std::vector<double> setup_s, serve_latency_us;
  Corpus corpus;
  ServeResult first_serve;
  std::size_t rounds = 0;
  while (rounds < min_rounds || Clock::now() < deadline) {
    ++rounds;
    // Set-up is rebuilt in every round, so it samples the host over the
    // whole run like every other phase.  setup_s is the median.
    corpus = Corpus{};  // free the previous corpus before the next is built
    corpus = build_corpus(workload);
    setup_s.push_back(corpus.seconds);
    check_corpus(gate, corpus, first);

    const IngestResult serial =
        run_ingest(workload, corpus, 0, ref_xml.size());
    check_ingest(gate, serial, ref_xml, first.messages, "serial ingest");
    ingest_rate.add(serial.messages, serial.seconds);

    const IngestResult par = run_ingest(workload, corpus, 2, ref_xml.size());
    check_ingest(gate, par, ref_xml, first.messages, "parallel ingest");
    par_rate.add(par.messages, par.seconds);
    par_cpu.add(1e6 * par.cpu_seconds, par.messages);

    const AnalyzeResult a = run_analyze(first.container, false);
    check_analyze(gate, a, first);
    analyze_rate.add(a.events, a.seconds);

    ServeResult s = run_serve(workload, corpus, false);
    if (rounds == 1) first_serve = s;
    check_serve(gate, s, first_serve);
    serve_rate.add(s.queries, s.seconds);
    serve_latency_us.insert(serve_latency_us.end(), s.latency_us.begin(),
                            s.latency_us.end());

    if (rounds > 1) {
      const CampaignResult c = run_campaign(workload);
      check_campaign(gate, c, first);
      campaign_rate.add(c.messages, c.seconds);
    }
  }

  Metrics m;
  m["campaign_msgs_per_s"] = {campaign_rate.value(), "msg/s"};
  m["campaign_peak_rss_mb"] = {mib(peak_rss), "MiB"};
  m["dataset_bytes_per_msg"] = {
      ratio(static_cast<double>(first.container.size()), first.messages),
      "B/msg"};
  m["ingest_msgs_per_s"] = {ingest_rate.value(), "msg/s"};
  m["ingest_par_msgs_per_s"] = {par_rate.value(), "msg/s"};
  m["ingest_par_cpu_us_per_msg"] = {par_cpu.value(), "us/msg"};
  m["analyze_msgs_per_s"] = {analyze_rate.value(), "msg/s"};
  m["serve_queries_per_s"] = {serve_rate.value(), "q/s"};
  const std::size_t serve_samples = serve_latency_us.size();
  m["serve_p50_us"] = {percentile(serve_latency_us, 0.50), "us"};
  m["serve_p99_us"] = {percentile(serve_latency_us, 0.99), "us"};
  m["setup_s"] = {median(setup_s), "s"};

  print_counts(first, corpus, ref_xml, first_serve);
  std::printf("\n== per-round samples ==\n");
  const std::pair<const char*, const std::vector<double>*> per_round[] = {
      {"campaign_msgs_per_s", &campaign_rate.per_round},
      {"ingest_msgs_per_s", &ingest_rate.per_round},
      {"ingest_par_msgs_per_s", &par_rate.per_round},
      {"ingest_par_cpu_us_per_msg", &par_cpu.per_round},
      {"analyze_msgs_per_s", &analyze_rate.per_round},
      {"serve_queries_per_s", &serve_rate.per_round},
      {"setup_s", &setup_s}};
  for (const auto& [name, values] : per_round) {
    std::printf("  %-28s", name);
    for (double v : *values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  std::printf("\n%zu rounds; campaign samples %zu; serve latency samples "
              "%zu (%llu queries x %zu rounds, pooled for p50/p99)\n",
              rounds, campaign_rate.per_round.size(), serve_samples,
              static_cast<unsigned long long>(first_serve.queries), rounds);
  std::printf("failed_ops_frac %.10g (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(gate.failed),
                    static_cast<double>(gate.attempted)),
              static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  print_table("end-to-end metrics", m);
  print_result_line(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

// ---- the traced run: per-layer metrics --------------------------------------

/// Which end-to-end metric (and on which workload) each per-layer metric
/// should move.  Printed beside the traced values; README.md has the same
/// map.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
};

// clang-format off
const LayerMetric kLayerMetrics[] = {
  {"sim.frames",        "count", "sim", "campaign_msgs_per_s, setup_s @ all; most polluter_flood"},
  {"sim.messages",      "count", "sim", "campaign_msgs_per_s, setup_s @ all; most polluter_flood"},
  {"sim.busy_s",        "s",     "sim", "campaign_msgs_per_s, setup_s @ all; most polluter_flood"},
  {"sim.us_per_msg",    "us/msg","sim", "campaign_msgs_per_s, setup_s @ all; most polluter_flood"},
  {"capture.offered",   "count", "capture", "campaign_msgs_per_s @ tcp_mirror"},
  {"capture.dropped",   "count", "capture", "campaign_msgs_per_s @ tcp_mirror"},
  {"capture.busy_s",    "s",     "capture", "campaign_msgs_per_s @ tcp_mirror"},
  {"decode.frames",     "count", "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.messages",   "count", "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.tcp_skipped","count", "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.fragments",  "count", "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.undecoded",  "count", "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.busy_s",     "s",     "decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"decode.ns_per_frame","ns/frame","decode", "ingest_msgs_per_s @ steady, tcp_mirror"},
  {"anon.events",       "count", "anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.busy_s",       "s",     "anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.ns_per_event", "ns/event","anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.distinct_clients","count","anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.distinct_files","count","anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.ids_per_event","ratio", "anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.first_sight_ratio","ratio","anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"anon.fast_ratio",   "ratio", "anon", "ingest_par_msgs_per_s @ polluter_flood; no change @ steady"},
  {"stats.busy_s",      "s",     "analysis", "ingest_msgs_per_s, analyze_msgs_per_s @ steady"},
  {"stats.ns_per_event","ns/event","analysis", "ingest_msgs_per_s, analyze_msgs_per_s @ steady"},
  {"analyze.stats_s",   "s",     "analysis", "analyze_msgs_per_s @ steady"},
  {"analyze.figures_s", "s",     "analysis", "analyze_msgs_per_s @ steady"},
  {"xml.write.busy_s",  "s",     "xmlio", "ingest_* @ polluter_flood most, tcp_mirror least"},
  {"xml.bytes_per_event","B/event","xmlio", "ingest_*, dataset_bytes_per_msg @ polluter_flood most"},
  {"compress.bytes_in", "B",     "xmlio", "dataset_bytes_per_msg @ polluter_flood most"},
  {"compress.bytes_out","B",     "xmlio", "dataset_bytes_per_msg @ polluter_flood most"},
  {"compress.busy_s",   "s",     "xmlio", "campaign_msgs_per_s, ingest_* @ polluter_flood most"},
  {"analyze.decompress_s","s",   "xmlio", "analyze_msgs_per_s @ polluter_flood most, tcp_mirror least"},
  {"analyze.validate_s","s",     "xmlio", "analyze_msgs_per_s @ polluter_flood most, tcp_mirror least"},
  {"analyze.parse_s",   "s",     "xmlio", "analyze_msgs_per_s @ polluter_flood most, tcp_mirror least"},
  {"pipeline.push_s",   "s",     "core", "ingest_par_* @ tcp_mirror (data plane)"},
  {"pipeline.drain_s",  "s",     "core", "ingest_par_* @ tcp_mirror (data plane), polluter_flood (merge)"},
  {"pipeline.allocs_per_msg","count/msg","core", "ingest_par_* @ tcp_mirror"},
  {"pipeline.pool.hit_ratio","ratio","core", "ingest_par_* @ tcp_mirror"},
  {"pipeline.ring.parks","count", "core", "ingest_par_* @ tcp_mirror"},
  {"prof.feed.working", "ratio", "core", "ingest_par_* @ tcp_mirror"},
  {"prof.feed.queue_wait","ratio","core", "ingest_par_* @ tcp_mirror"},
  {"prof.feed.park",    "ratio", "core", "ingest_par_* @ tcp_mirror"},
  {"prof.decode.working","ratio","core", "ingest_msgs_per_s @ tcp_mirror"},
  {"prof.decode.queue_wait","ratio","core", "ingest_msgs_per_s @ tcp_mirror"},
  {"prof.decode.park",  "ratio", "core", "ingest_msgs_per_s @ tcp_mirror"},
  {"prof.anonymise.working","ratio","core", "ingest_msgs_per_s @ polluter_flood"},
  {"prof.anonymise.queue_wait","ratio","core", "ingest_msgs_per_s @ polluter_flood"},
  {"prof.anonymise.park","ratio","core", "ingest_msgs_per_s @ polluter_flood"},
  {"prof.worker.working","ratio","core", "ingest_par_* @ tcp_mirror"},
  {"prof.worker.queue_wait","ratio","core", "ingest_par_* @ tcp_mirror"},
  {"prof.worker.park",  "ratio", "core", "ingest_par_* @ tcp_mirror"},
  {"prof.merge.working","ratio", "core", "ingest_par_* @ polluter_flood"},
  {"prof.merge.queue_wait","ratio","core", "ingest_par_* @ polluter_flood"},
  {"prof.merge.park",   "ratio", "core", "ingest_par_* @ polluter_flood"},
  {"prof.writer.working","ratio","core", "ingest_par_* @ polluter_flood"},
  {"prof.writer.queue_wait","ratio","core", "ingest_par_* @ polluter_flood"},
  {"prof.writer.park",  "ratio", "core", "ingest_par_* @ polluter_flood"},
  {"server.queries",    "count", "server", "serve_* @ polluter_flood; searches also steady"},
  {"server.answers",    "count", "server", "serve_* @ polluter_flood; searches also steady"},
  {"server.busy_s",     "s",     "server", "serve_queries_per_s @ polluter_flood"},
  {"server.search.p50_us","us",  "server", "serve_p50_us @ polluter_flood, steady"},
  {"server.search.p99_us","us",  "server", "serve_p99_us @ polluter_flood, steady"},
  {"server.sources.p50_us","us", "server", "serve_p50_us @ polluter_flood"},
  {"server.sources.p99_us","us", "server", "serve_p99_us @ polluter_flood"},
  {"server.publish.p50_us","us", "server", "serve_p50_us @ polluter_flood"},
  {"server.publish.p99_us","us", "server", "serve_p99_us @ polluter_flood"},
  {"server.search.candidates_per_search","count","server", "serve_* @ polluter_flood, steady"},
  {"server.search.results_per_candidate","ratio","server", "serve_* @ polluter_flood, steady"},
  {"trace.overhead.campaign","ratio","tracing", "traced / untraced campaign seconds"},
  {"trace.overhead.ingest","ratio", "tracing", "traced / untraced serial ingest seconds"},
  {"trace.overhead.ingest_par","ratio","tracing", "traced / untraced parallel ingest seconds"},
  {"trace.overhead.analyze","ratio","tracing", "staged traced / untraced analyze seconds"},
  {"trace.overhead.serve","ratio", "tracing", "traced / untraced serve seconds"},
};
// clang-format on

/// Per-layer values of one traced round; medians are taken over rounds.
using Samples = std::map<std::string, std::vector<double>>;

/// Working / queue_wait / park fractions of every thread of `stage`,
/// recorded as prof.<as>.<state>.
void add_profile(Samples& samples, const dtr::obs::Profiler& profiler,
                 const std::string& stage, const std::string& as) {
  std::array<double, dtr::obs::kThreadStateCount> secs{};
  double total = 0;
  for (const auto& t : profiler.thread_summaries()) {
    if (t.stage != stage) continue;
    for (std::size_t i = 0; i < secs.size(); ++i) secs[i] += t.seconds[i];
    total += t.total_seconds;
  }
  using dtr::obs::ThreadState;
  auto frac = [&](ThreadState s) {
    return ratio(secs[static_cast<std::size_t>(s)], total);
  };
  samples["prof." + as + ".working"].push_back(frac(ThreadState::kWorking));
  samples["prof." + as + ".queue_wait"].push_back(
      frac(ThreadState::kQueueWait));
  samples["prof." + as + ".park"].push_back(frac(ThreadState::kPark));
}

int run_traced(const Args& args, const dtr::core::RunnerConfig& workload) {
  Gate gate;
  SpanRecorder spans;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  Samples samples;
  auto put = [&samples](const std::string& name, double v) {
    samples[name].push_back(v);
  };
  auto dropped_on_close = [](const dtr::obs::Registry& reg) {
    return reg.snapshot().counter("pipeline.dropped_on_close");
  };

  std::vector<double> plain_s[5], traced_s[5];
  enum { kCampaign, kIngest, kIngestPar, kAnalyze, kServe };

  // The first campaign is the reference and warms the process up; the
  // plain and traced campaigns timed against each other run in the rounds.
  const CampaignResult first = run_campaign(workload);
  check_campaign(gate, first, first);

  const AnalyzeResult reference = run_analyze(first.container, false);
  const std::string& ref_xml = reference.xml;

  Corpus corpus;
  ServeResult first_serve;
  std::size_t rounds = 0;
  while (rounds < 1 || Clock::now() < deadline) {
    ++rounds;
    // Set-up: the simulator and the capture engine.
    {
      corpus = Corpus{};  // free the previous corpus before the next is built
      SpanRecorder::Scope s(&spans, "setup");
      corpus = build_corpus(workload);
      s.close();
      check_corpus(gate, corpus, first);
      put("sim.busy_s", corpus.sim_seconds);
      put("capture.busy_s", corpus.capture_seconds);
      put("sim.frames", static_cast<double>(corpus.truth.frames));
      put("sim.messages", static_cast<double>(corpus.truth.total_messages()));
      put("capture.offered", static_cast<double>(corpus.offered));
      put("capture.dropped", static_cast<double>(corpus.dropped));
    }
    // Campaign: plain, then with registry + profiler.
    {
      const CampaignResult plain = run_campaign(workload);
      check_campaign(gate, plain, first);
      plain_s[kCampaign].push_back(plain.seconds);
      dtr::obs::Registry reg;
      dtr::obs::Profiler prof;
      const CampaignResult c = run_campaign(workload, &reg, &prof, &spans);
      check_campaign(gate, c, first);
      gate.check(dropped_on_close(reg) == 0, "campaign dropped_on_close");
      traced_s[kCampaign].push_back(c.seconds);
    }
    // Serial ingest: plain, then with registry + profiler.
    {
      const IngestResult plain = run_ingest(workload, corpus, 0, ref_xml.size());
      check_ingest(gate, plain, ref_xml, first.messages, "serial ingest");
      plain_s[kIngest].push_back(plain.seconds);
      dtr::obs::Registry reg;
      dtr::obs::Profiler prof;
      const IngestResult r = run_ingest(workload, corpus, 0, ref_xml.size(),
                                        &reg, &prof, &spans);
      check_ingest(gate, r, ref_xml, first.messages, "serial ingest (traced)");
      gate.check(dropped_on_close(reg) == 0, "serial ingest dropped_on_close");
      traced_s[kIngest].push_back(r.seconds);
      add_profile(samples, prof, "decode", "decode");
      add_profile(samples, prof, "anonymise", "anonymise");
    }
    // Parallel ingest, 2 workers.
    {
      const IngestResult plain = run_ingest(workload, corpus, 2, ref_xml.size());
      check_ingest(gate, plain, ref_xml, first.messages, "parallel ingest");
      plain_s[kIngestPar].push_back(plain.seconds);
      dtr::obs::Registry reg;
      dtr::obs::Profiler prof;
      const IngestResult r = run_ingest(workload, corpus, 2, ref_xml.size(),
                                        &reg, &prof, &spans);
      check_ingest(gate, r, ref_xml, first.messages,
                   "parallel ingest (traced)");
      const dtr::obs::Snapshot snap = reg.snapshot();
      gate.check(snap.counter("pipeline.dropped_on_close") == 0,
                 "parallel ingest dropped_on_close");
      traced_s[kIngestPar].push_back(r.seconds);
      put("pipeline.push_s", r.push_seconds);
      put("pipeline.drain_s", r.drain_seconds);
      put("pipeline.allocs_per_msg",
          ratio(static_cast<double>(r.allocations), r.messages));
      const double hits = snap.counter("pipeline.pool.hits");
      put("pipeline.pool.hit_ratio",
          ratio(hits, hits + snap.counter("pipeline.pool.misses")));
      put("pipeline.ring.parks",
          static_cast<double>(snap.counter("pipeline.ring.parks.push") +
                              snap.counter("pipeline.ring.parks.worker") +
                              snap.counter("pipeline.ring.parks.merge") +
                              snap.counter("pipeline.ring.parks.writer")));
      const double fast = snap.counter("anon.shard.fast_events");
      put("anon.fast_ratio",
          ratio(fast, fast + snap.counter("anon.shard.deferred_events")));
      add_profile(samples, prof, "capture", "feed");
      add_profile(samples, prof, "worker", "worker");
      add_profile(samples, prof, "merge", "merge");
      add_profile(samples, prof, "writer", "writer");
    }
    // Analyze: plain, then staged with spans.
    {
      const AnalyzeResult plain = run_analyze(first.container, false);
      check_analyze(gate, plain, first);
      plain_s[kAnalyze].push_back(plain.seconds);
      const AnalyzeResult a = run_analyze(first.container, true, &spans);
      check_analyze(gate, a, first);
      traced_s[kAnalyze].push_back(a.seconds);
      put("analyze.decompress_s", a.decompress_s);
      put("analyze.validate_s", a.validate_s);
      put("analyze.parse_s", a.parse_s);
      put("analyze.stats_s", a.stats_s);
      put("analyze.figures_s", a.figures_s);
    }
    // Serve: plain, then with index metrics and per-kind latencies.
    {
      ServeResult plain = run_serve(workload, corpus, false);
      if (rounds == 1) first_serve = plain;
      check_serve(gate, plain, first_serve);
      plain_s[kServe].push_back(plain.seconds);
      ServeResult s = run_serve(workload, corpus, true, &spans);
      check_serve(gate, s, first_serve);
      traced_s[kServe].push_back(s.seconds);
      put("server.queries", static_cast<double>(s.queries));
      put("server.answers", static_cast<double>(s.answers));
      put("server.busy_s", s.seconds);
      std::vector<double> by_kind[kKinds];
      for (std::size_t i = 0; i < s.latency_us.size(); ++i) {
        by_kind[s.kinds[i]].push_back(s.latency_us[i]);
      }
      const char* kind_names[] = {"search", "sources", "publish"};
      for (std::size_t k = 0; k < 3; ++k) {
        const std::string base = std::string("server.") + kind_names[k];
        put(base + ".p50_us", percentile(by_kind[k], 0.50));
        put(base + ".p99_us", percentile(by_kind[k], 0.99));
      }
      put("server.search.candidates_per_search",
          ratio(static_cast<double>(s.search_candidates), s.searches));
      put("server.search.results_per_candidate",
          ratio(static_cast<double>(s.search_results), s.search_candidates));
    }
    // Staged single-thread ingest: each layer's self time.
    {
      const StagedResult st = run_staged(workload, corpus, &spans);
      gate.ops(st.events);
      gate.check(st.container == first.container,
                 "staged replay container differs from the campaign's");
      gate.check(st.events == first.messages,
                 "staged replay event count differs from the campaign");
      const double frames = static_cast<double>(st.decode.frames);
      const double events = static_cast<double>(st.events);
      put("decode.frames", frames);
      put("decode.messages", static_cast<double>(st.decode.decoded));
      put("decode.tcp_skipped", static_cast<double>(st.decode.tcp_packets));
      put("decode.fragments", static_cast<double>(st.decode.udp_fragments));
      put("decode.undecoded", static_cast<double>(st.decode.undecoded()));
      put("decode.busy_s", st.decode_s);
      put("decode.ns_per_frame", 1e9 * ratio(st.decode_s, frames));
      put("anon.events", events);
      put("anon.busy_s", st.anon_s);
      put("anon.ns_per_event", 1e9 * ratio(st.anon_s, events));
      put("anon.distinct_clients", static_cast<double>(st.distinct_clients));
      put("anon.distinct_files", static_cast<double>(st.distinct_files));
      put("anon.ids_per_event", ratio(static_cast<double>(st.id_lookups), events));
      put("anon.first_sight_ratio",
          ratio(static_cast<double>(st.distinct_clients + st.distinct_files),
                static_cast<double>(st.id_lookups)));
      put("stats.busy_s", st.stats_s);
      put("stats.ns_per_event", 1e9 * ratio(st.stats_s, events));
      put("xml.write.busy_s", st.write_s);
      put("xml.bytes_per_event", ratio(static_cast<double>(st.xml_bytes), events));
      put("compress.bytes_in", static_cast<double>(st.xml_bytes));
      put("compress.bytes_out", static_cast<double>(st.compressed_bytes));
      put("compress.busy_s", st.compress_s);
    }
  }

  const char* phase_names[] = {"campaign", "ingest", "ingest_par", "analyze",
                               "serve"};
  for (int p = 0; p < 5; ++p) {
    put(std::string("trace.overhead.") + phase_names[p],
        ratio(median(traced_s[p]), median(plain_s[p])));
  }
  put("sim.us_per_msg",
      1e6 * ratio(median(samples["sim.busy_s"]),
                  static_cast<double>(corpus.truth.total_messages())));

  Metrics m;
  std::printf("\n== per-layer metrics (%zu traced rounds) ==\n", rounds);
  std::printf("  %-38s %-14s %-9s %-8s %s\n", "metric", "value", "unit",
              "layer", "should move");
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = samples.find(lm.name);
    const double v = it == samples.end() ? 0.0 : median(it->second);
    gate.check(it != samples.end(), std::string("metric missing: ") + lm.name);
    m[lm.name] = {v, lm.unit};
    std::printf("  %-38s %-14.6g %-9s %-8s %s\n", lm.name, v, lm.unit,
                lm.layer, lm.moves);
  }
  std::printf("\n== tracing overhead (traced / untraced seconds, medians) ==\n");
  for (int p = 0; p < 5; ++p) {
    std::printf("  %-12s untraced %.4f s  traced %.4f s  ratio %.4f\n",
                phase_names[p], median(plain_s[p]), median(traced_s[p]),
                ratio(median(traced_s[p]), median(plain_s[p])));
  }
  print_counts(first, corpus, ref_xml, first_serve);
  if (!args.spans_out.empty()) {
    if (spans.write_json(args.spans_out)) {
      std::printf("\nspans: %zu written to %s\n", spans.spans().size(),
                  args.spans_out.c_str());
    } else {
      gate.check(false, "cannot write spans to " + args.spans_out);
    }
  }
  print_result_line(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const auto workload = make_workload(args.workload, args.seed, args.smoke);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("scale: %u clients, %u files, %.1f simulated hours%s%s\n",
              workload->campaign.population.client_count,
              workload->campaign.catalog.file_count,
              static_cast<double>(workload->campaign.duration) /
                  static_cast<double>(dtr::kHour),
              workload->campaign.scenario ? ", polluter_flood scenario" : "",
              workload->background ? ", TCP background on the mirror" : "");
  return args.trace ? run_traced(args, *workload) : run_untraced(args, *workload);
}
