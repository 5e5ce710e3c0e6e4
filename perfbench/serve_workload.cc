// The advising workloads: simulated students asking the in-process
// exploration server.
//
// Students are independent users, so at the reference rate arrivals follow
// a fixed schedule (Poisson at a fixed rate) whether or not earlier answers
// have come back, and each request is timed from when it was due. A small
// pool of sender threads plays the students' connections; a request whose
// sender slots were all busy at its due time waits in the generator, which
// is server backlog, while one sent late with a slot free is the
// generator's own fault and is reported apart. A second, saturating phase
// measures capacity: each sender sends its next request as soon as its last
// one returns.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/request_cache.h"
#include "core/counting.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "service/degradation.h"
#include "span_tree.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

using coursenav::CountingResult;
using coursenav::DegradationLevel;
using coursenav::ExplorationRequest;
using coursenav::ExplorationResponse;
using coursenav::JsonValue;
using coursenav::StrFormat;
namespace serve = coursenav::serve;
namespace plan = coursenav::plan;

namespace {

/// Students in the simulated population.
constexpr int kStudents = 1000;
/// A fixed ask set's popularity: Zipf with this exponent, an assumption
/// (README.md).
constexpr double kZipfS = 1.0;

/// Senders playing the students' connections: one per core.
int SenderThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

/// The server's per-request clamps, applied again for direct runs so that
/// they compute exactly what the server computed.
const serve::ServerConfig kServerDefaults;

/// The simulated students and every ask posed so far, indexed in the order
/// they were first drawn. Built outside the timed set-up.
struct Generator {
  /// The dataset asks are drawn from and checked against; the server
  /// builds its own.
  coursenav::data::BrandeisDataset dataset;
  std::unique_ptr<StudentPopulation> population;
  std::vector<Ask> asks;
  /// A fixed ask set's popularity.
  std::vector<double> zipf;
  /// Every ask drawn so far, so that fresh asks are never repeated.
  std::unordered_set<std::string> seen;
};

/// Everything the timed set-up builds.
struct World {
  coursenav::data::BrandeisDataset dataset;
  std::unique_ptr<serve::ExplorationServer> server;
  /// Wire replies of the warm-up, one per ask of a fixed set.
  std::vector<std::string> warm_replies;
};

/// One request as the generator saw it; times are seconds from phase start.
struct Sent {
  int ask = 0;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool slot_free = false;
  std::string reply;
};

/// One reply, decoded.
struct Answer {
  bool parsed = false;
  serve::ResponseEnvelope envelope;
  std::string result;  // compact JSON of the result payload
};

Answer Decode(const std::string& reply) {
  Answer answer;
  auto json = JsonValue::Parse(reply);
  if (!json.ok()) return answer;
  auto envelope = serve::ResponseEnvelope::FromJson(*json);
  if (!envelope.ok()) return answer;
  answer.parsed = true;
  answer.envelope = std::move(*envelope);
  answer.result = answer.envelope.result.Dump();
  return answer;
}

bool Succeeded(const Answer& answer) {
  return answer.parsed &&
         (answer.envelope.outcome == serve::ResponseOutcome::kOk ||
          answer.envelope.outcome == serve::ResponseOutcome::kDegraded) &&
         !(answer.envelope.degradation.has_value() &&
           answer.envelope.degradation->exhausted);
}

DegradationLevel ServedLevel(const Answer& answer) {
  return answer.envelope.degradation.has_value()
             ? answer.envelope.degradation->level_served
             : DegradationLevel::kFull;
}

/// Poisson arrivals at `rate` over `seconds`, conditioned on their count
/// being rate x seconds: that many uniform instants, in order. Every run of
/// a phase then offers the same load.
std::vector<double> PoissonArrivals(std::mt19937_64& rng, double rate,
                                    double seconds) {
  std::vector<double> due(static_cast<size_t>(rate * seconds + 0.5));
  for (double& t : due) t = Uniform(rng) * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

/// Whether `ask`'s full answer is complete within `max_nodes` graph nodes.
bool AnswerFits(const coursenav::data::BrandeisDataset& dataset,
                const Ask& ask, int64_t max_nodes) {
  auto json = JsonValue::Parse(ask.request_json);
  auto request = coursenav::ExplorationRequestFromJson(*json, dataset.catalog);
  if (!request.ok()) return false;
  request->options.limits.max_nodes = max_nodes;
  auto response = plan::Execute(dataset.catalog, dataset.schedule, *request);
  if (!response.ok()) return false;
  return response->generation.has_value()
             ? response->generation->termination.ok()
             : response->ranked->termination.ok();
}

/// Draws the students and, for a fixed ask set, the asks.
std::unique_ptr<Generator> Prepare(const ServeSpec& spec,
                                   const RunOptions& options) {
  auto gen = std::make_unique<Generator>();
  gen->dataset = coursenav::data::BuildBrandeisDataset();
  const uint64_t ask_seed =
      spec.fixed_ask_seed != 0 ? spec.fixed_ask_seed : options.seed;
  gen->population =
      std::make_unique<StudentPopulation>(gen->dataset, kStudents, ask_seed);
  std::mt19937_64 rng(ask_seed);
  for (int attempt = 0; static_cast<int>(gen->asks.size()) < spec.distinct_asks &&
                        attempt < spec.distinct_asks * 50;
       ++attempt) {
    Ask ask = gen->population->Draw(rng, spec.mix);
    if (!gen->seen.insert(ask.request_json).second) continue;
    if (spec.max_answer_nodes > 0 &&
        !AnswerFits(gen->dataset, ask, spec.max_answer_nodes)) {
      continue;
    }
    gen->asks.push_back(std::move(ask));
  }
  gen->zipf = ZipfCdf(static_cast<int>(gen->asks.size()), kZipfS);
  return gen;
}

/// The next ask to pose: a popular one of the fixed set, or one never
/// posed before. Returns its index in `gen->asks`.
int NextAsk(Generator* gen, const ServeSpec& spec, std::mt19937_64& rng) {
  if (spec.distinct_asks > 0) return DrawIndex(rng, gen->zipf);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Ask ask = gen->population->Draw(rng, spec.mix);
    // Long asks are answered at the count-only rung, which bypasses the
    // cache, so a repeated one is still computed afresh.
    if (!ask.long_horizon && !gen->seen.insert(ask.request_json).second) {
      continue;
    }
    gen->asks.push_back(std::move(ask));
    return static_cast<int>(gen->asks.size() - 1);
  }
  std::fprintf(stderr, "the student population has no new asks left\n");
  std::exit(1);
}

/// The wire payload posing `ask`.
std::string Payload(const Ask& ask, const std::string& request_id,
                    bool want_trace) {
  auto request = JsonValue::Parse(ask.request_json);
  return serve::MakeRequestEnvelope(StrFormat("s%d", ask.student % 32),
                                    request_id, ask.deadline_ms,
                                    std::move(*request), std::nullopt, false,
                                    want_trace)
      .Dump();
}

/// The timed set-up: the server's dataset, a started server, and for a
/// fixed ask set the warmed cache.
std::unique_ptr<World> SetUp(const Generator& gen, bool warm) {
  coursenav::cache::RequestCache::Global().Clear();
  auto world = std::make_unique<World>();
  world->dataset = coursenav::data::BuildBrandeisDataset();
  serve::ServerConfig config;
  config.num_workers = kServerWorkers;
  config.threads_per_request = 0;
  world->server = std::make_unique<serve::ExplorationServer>(
      &world->dataset.catalog, &world->dataset.schedule, config);
  world->server->Start();
  if (warm) {
    for (size_t a = 0; a < gen.asks.size(); ++a) {
      world->warm_replies.push_back(world->server->Handle(
          Payload(gen.asks[a], StrFormat("w%zu", a), false)));
    }
  }
  return world;
}

uint64_t PhaseSeed(const RunOptions& options, size_t phase) {
  return options.seed * 1000 + phase + 1;
}

/// One open-loop phase's requests: which ask each poses, its payload, its
/// due time in seconds from the phase start. Built just before the phase
/// runs, so that neither set-up time nor the phase's memory counts the
/// asks and payloads of other phases.
struct Schedule {
  std::vector<int> asks;
  std::vector<std::string> payloads;
  std::vector<double> due;
};

Schedule BuildSchedule(Generator* gen, const ServeSpec& spec,
                       const RunOptions& options, size_t phase,
                       double seconds) {
  std::mt19937_64 rng(PhaseSeed(options, phase));
  Schedule schedule;
  schedule.due = PoissonArrivals(rng, spec.reference_rate, seconds);
  for (size_t i = 0; i < schedule.due.size(); ++i) {
    const int index = NextAsk(gen, spec, rng);
    // The traced run repeats the reference phase with every fourth request
    // asking for its span tree back.
    const bool want_trace = options.trace && phase == 1 && i % 4 == 0;
    schedule.payloads.push_back(
        Payload(gen->asks[static_cast<size_t>(index)],
                StrFormat("p%zu-%zu", phase, i), want_trace));
    schedule.asks.push_back(index);
  }
  return schedule;
}

/// How far behind schedule a phase may fall before its remaining requests
/// are abandoned.
constexpr double kGiveUpSeconds = 1.0;

/// Runs one open-loop phase: request i is due `due[i]` seconds after the
/// phase starts, and goes out on the first free sender.
std::vector<Sent> RunPhase(serve::ExplorationServer& server,
                           const Schedule& schedule) {
  const std::vector<std::string>& payloads = schedule.payloads;
  const std::vector<double>& due = schedule.due;
  std::vector<Sent> sent(payloads.size());
  std::atomic<size_t> next{0};
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto sender = [&] {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= payloads.size()) return;
      Sent& s = sent[i];
      s.ask = schedule.asks[i];
      s.due = due[i];
      s.slot_free = since_start() < due[i];
      // Past capacity the backlog only grows; stop feeding it. The
      // requests left unsent count as failed.
      if (since_start() - due[i] > kGiveUpSeconds) {
        s.sent = s.done = since_start();
        continue;
      }
      if (s.slot_free) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i])));
      }
      s.sent = since_start();
      s.reply = server.Handle(payloads[i]);
      s.done = since_start();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < SenderThreads(); ++t) threads.emplace_back(sender);
  for (std::thread& thread : threads) thread.join();
  return sent;
}

/// Runs a saturating phase for `seconds`: each sender sends its next
/// request as soon as its last one has returned, so the server's workers
/// always have work queued. Asks are drawn as they are sent, in one seeded
/// sequence; each request is timed from when it was sent.
std::vector<Sent> RunSaturated(serve::ExplorationServer& server,
                               Generator* gen, const ServeSpec& spec,
                               const RunOptions& options, size_t phase,
                               double seconds) {
  std::mt19937_64 rng(PhaseSeed(options, phase));
  std::mutex mu;
  std::vector<Sent> sent;
  size_t drawn = 0;
  const double start = NowSeconds();
  auto sender = [&] {
    while (true) {
      Sent s;
      Ask ask;
      size_t id = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (NowSeconds() - start >= seconds) return;
        s.ask = NextAsk(gen, spec, rng);
        ask = gen->asks[static_cast<size_t>(s.ask)];
        id = drawn++;
      }
      const std::string payload =
          Payload(ask, StrFormat("p%zu-%zu", phase, id), false);
      s.slot_free = true;
      s.due = s.sent = NowSeconds() - start;
      s.reply = server.Handle(payload);
      s.done = NowSeconds() - start;
      std::lock_guard<std::mutex> lock(mu);
      sent.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < SenderThreads(); ++t) threads.emplace_back(sender);
  for (std::thread& thread : threads) thread.join();
  return sent;
}

/// The summary payload the server returns for a materialized answer.
JsonValue SummaryPayload(const ExplorationResponse& response) {
  JsonValue::Object object;
  if (response.generation.has_value()) {
    const auto& stats = response.generation->stats;
    object["nodes"] = JsonValue(stats.nodes_created);
    object["edges"] = JsonValue(stats.edges_created);
    object["terminal_paths"] = JsonValue(stats.terminal_paths);
    object["goal_paths"] = JsonValue(stats.goal_paths);
  }
  if (response.ranked.has_value()) {
    object["paths_returned"] =
        JsonValue(static_cast<int64_t>(response.ranked->paths.size()));
  }
  return JsonValue(std::move(object));
}

JsonValue CountPayload(const CountingResult& count) {
  JsonValue::Object object;
  object["total_paths"] = JsonValue(static_cast<int64_t>(count.total_paths));
  object["goal_paths"] = JsonValue(static_cast<int64_t>(count.goal_paths));
  object["distinct_statuses"] = JsonValue(count.distinct_statuses);
  object["saturated"] = JsonValue(count.saturated);
  return JsonValue(std::move(object));
}

/// Work a direct run did, for the core and counting layer metrics.
struct DirectWork {
  double materialize_seconds = 0.0;
  int64_t nodes = 0;
  int64_t pruned = 0;
  int64_t pruned_base = 0;  // pruned + nodes, goal-driven and ranked runs
  int64_t ranked_nodes = 0;
  int64_t ranked_paths = 0;
  double count_seconds = 0.0;
  int64_t statuses = 0;

  void Add(const DirectWork& other) {
    materialize_seconds += other.materialize_seconds;
    nodes += other.nodes;
    pruned += other.pruned;
    pruned_base += other.pruned_base;
    ranked_nodes += other.ranked_nodes;
    ranked_paths += other.ranked_paths;
    count_seconds += other.count_seconds;
    statuses += other.statuses;
  }
};

/// Computes, outside the server and its cache, the payload the server
/// should have answered `ask` with at rung `level`.
std::string ExpectedPayload(const coursenav::data::BrandeisDataset& dataset,
                            const Ask& ask, DegradationLevel level,
                            DirectWork* work) {
  auto json = JsonValue::Parse(ask.request_json);
  if (!json.ok()) return "unparsable ask";
  auto parsed = coursenav::ExplorationRequestFromJson(*json, dataset.catalog);
  if (!parsed.ok()) return parsed.status().ToString();
  ExplorationRequest request = std::move(*parsed);
  // The server's clamps: its caps apply unless the request asks for less.
  auto& limits = request.options.limits;
  if (limits.max_nodes <= 0 ||
      limits.max_nodes > kServerDefaults.max_nodes_per_request) {
    limits.max_nodes = kServerDefaults.max_nodes_per_request;
  }
  if (limits.max_memory_bytes == 0 ||
      limits.max_memory_bytes > kServerDefaults.max_memory_bytes_per_request) {
    limits.max_memory_bytes = kServerDefaults.max_memory_bytes_per_request;
  }
  limits.max_seconds = 0.0;
  request.options.num_threads = 0;
  if (level != DegradationLevel::kFull) {
    auto rewritten = plan::RewriteForDegradation(
        request, level, request.degradation.value_or(coursenav::DegradationPolicy{}));
    if (!rewritten.ok()) return rewritten.status().ToString();
    request = std::move(*rewritten);
  }
  const double start = NowSeconds();
  if (level == DegradationLevel::kCountOnly) {
    auto counted =
        request.goal != nullptr
            ? coursenav::CountGoalDrivenPaths(
                  dataset.catalog, dataset.schedule, request.start,
                  request.end_term, *request.goal, request.options,
                  request.config)
            : coursenav::CountDeadlineDrivenPaths(
                  dataset.catalog, dataset.schedule, request.start,
                  request.end_term, request.options);
    if (!counted.ok()) return counted.status().ToString();
    work->count_seconds += NowSeconds() - start;
    work->statuses += counted->distinct_statuses;
    return CountPayload(*counted).Dump();
  }
  auto response = plan::Execute(dataset.catalog, dataset.schedule, request);
  if (!response.ok()) return response.status().ToString();
  work->materialize_seconds += NowSeconds() - start;
  const coursenav::ExplorationStats& stats =
      response->generation.has_value() ? response->generation->stats
                                       : response->ranked->stats;
  work->nodes += stats.nodes_created;
  if (request.type != coursenav::TaskType::kDeadlineDriven) {
    work->pruned += stats.TotalPruned();
    work->pruned_base += stats.TotalPruned() + stats.nodes_created;
  }
  if (response->ranked.has_value()) {
    work->ranked_nodes += stats.nodes_created;
    work->ranked_paths += static_cast<int64_t>(response->ranked->paths.size());
  }
  return SummaryPayload(*response).Dump();
}

/// The decoded replies of a run, checked against direct runs. Identical
/// answers are tallied, not stored again.
class Checker {
 public:
  explicit Checker(const Generator& gen) : gen_(gen) {}

  /// Registers a successful answer: a hit is checked against the miss that
  /// filled it, anything else against a direct run.
  void Add(int ask, const Answer& answer) {
    if (!Succeeded(answer)) return;
    if (answer.envelope.cache == "hit") {
      ++hits_[{ask, answer.result}];
      return;
    }
    if (answer.envelope.cache == "miss") filled_.emplace(ask, answer.result);
    ++wanted_[{ask, ServedLevel(answer)}][answer.result];
  }

  /// Computes every expected payload (in parallel) and compares. Returns
  /// the number of wrong answers.
  int64_t Verify(Report* report, DirectWork* work) {
    std::vector<std::pair<int, DegradationLevel>> keys;
    for (const auto& entry : wanted_) keys.push_back(entry.first);
    std::vector<std::string> expected(keys.size());
    std::vector<DirectWork> works(static_cast<size_t>(SenderThreads()));
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < works.size(); ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = next.fetch_add(1); i < keys.size();
             i = next.fetch_add(1)) {
          expected[i] = ExpectedPayload(
              gen_.dataset, gen_.asks[static_cast<size_t>(keys[i].first)],
              keys[i].second, &works[t]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const DirectWork& w : works) work->Add(w);

    int64_t wrong = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      for (const auto& [got, times] : wanted_[keys[i]]) {
        if (got == expected[i]) continue;
        wrong += times;
        report->Wrong(StrFormat("ask %d at %s: served %s, direct run gives %s",
                                keys[i].first,
                                std::string(coursenav::DegradationLevelName(
                                                keys[i].second))
                                    .c_str(),
                                got.c_str(), expected[i].c_str()));
      }
    }
    for (const auto& [hit, times] : hits_) {
      const auto& [ask, got] = hit;
      auto it = filled_.find(ask);
      if (it != filled_.end() && it->second == got) continue;
      wrong += times;
      report->Wrong(StrFormat("ask %d: cache hit %s differs from the miss "
                              "that filled it (%s)",
                              ask, got.c_str(),
                              it == filled_.end() ? "none seen"
                                                  : it->second.c_str()));
    }
    return wrong;
  }

 private:
  const Generator& gen_;
  std::map<std::pair<int, DegradationLevel>, std::map<std::string, int64_t>>
      wanted_;
  std::map<int, std::string> filled_;
  std::map<std::pair<int, std::string>, int64_t> hits_;
};

/// What one phase measured.
struct PhaseResult {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  double offered_rate = 0.0;  // sends per second of the phase
  double served_rate = 0.0;   // successful answers per second until the last
  double p50_ms = 0.0;
  /// The highest percentile with ten samples beyond it.
  double tail_quantile = 0.0;
  double tail_ms = 0.0;
  double backlog_ms = 0.0;  // median lateness of the last tenth of sends
  double late_free_p99_ms = 0.0;
  double late_busy_frac = 0.0;
  std::vector<double> latencies_ms;
  std::vector<double> handle_ms;  // the Handle call alone
  /// Decoded replies, kept only where per-request numbers are reported.
  std::vector<Answer> answers;
};

/// Decodes a phase's replies, hands each to `checker`, and measures.
PhaseResult Analyze(double seconds, std::vector<Sent> sent, Checker* checker,
                    bool keep_answers) {
  PhaseResult phase;
  phase.sent = sent.size();
  phase.offered_rate = static_cast<double>(sent.size()) / seconds;
  std::vector<double> wake_ms;
  size_t busy = 0;
  std::vector<double> lateness_ms;
  double last_done = 0.0;
  for (Sent& s : sent) {
    Answer answer = Decode(s.reply);
    const bool ok = Succeeded(answer);
    ok ? ++phase.succeeded : ++phase.failed;
    if (!ok && !s.reply.empty() && phase.failed <= 3) {
      std::printf("failed request: %.300s\n", s.reply.c_str());
    }
    s.reply.clear();
    checker->Add(s.ask, answer);
    // A request is timed from when it was due, except that a send delayed
    // while a sender was free is the generator's lateness, not the
    // server's, and is reported apart. A failed request never arrives.
    const double from = s.slot_free ? s.sent : s.due;
    phase.latencies_ms.push_back(ok ? (s.done - from) * 1e3 : 1e9);
    lateness_ms.push_back((s.sent - s.due) * 1e3);
    phase.handle_ms.push_back((s.done - s.sent) * 1e3);
    if (s.slot_free) {
      wake_ms.push_back((s.sent - s.due) * 1e3);
    } else {
      ++busy;
    }
    last_done = std::max(last_done, s.done);
    if (keep_answers) phase.answers.push_back(std::move(answer));
  }
  phase.served_rate =
      last_done > 0 ? static_cast<double>(phase.succeeded) / last_done : 0.0;  phase.p50_ms = Quantile(phase.latencies_ms, 0.5);
  phase.tail_quantile = TailQuantile(phase.latencies_ms.size());
  phase.tail_ms = Quantile(phase.latencies_ms, phase.tail_quantile);
  const size_t tenth = std::max<size_t>(1, lateness_ms.size() / 10);
  phase.backlog_ms = Median(std::vector<double>(
      lateness_ms.end() - static_cast<long>(tenth), lateness_ms.end()));
  phase.late_free_p99_ms = Quantile(wake_ms, 0.99);
  phase.late_busy_frac =
      sent.empty() ? 0.0
                   : static_cast<double>(busy) / static_cast<double>(sent.size());
  return phase;
}

/// Benchmark-side probes of the decode, encode, and lowering functions on
/// the requests and replies of one phase, in microseconds per call.
struct Probes {
  std::vector<double> decode_us, encode_us, lower_us;
};

Probes ProbeLayers(const Generator& gen,
                   const std::vector<std::string>& payloads,
                   const std::vector<Answer>& answers) {
  Probes probes;
  const auto& catalog = gen.dataset.catalog;
  const size_t limit = std::min<size_t>(payloads.size(), 2000);
  for (size_t i = 0; i < limit; ++i) {
    double t0 = NowSeconds();
    auto json = JsonValue::Parse(payloads[i]);
    auto envelope = serve::ParseRequestEnvelope(*json);
    coursenav::Status schema =
        coursenav::ValidateRequestJsonSchema(envelope->request);
    auto request =
        coursenav::ExplorationRequestFromJson(envelope->request, catalog);
    double t1 = NowSeconds();
    if (!schema.ok() || !request.ok()) continue;
    probes.decode_us.push_back((t1 - t0) * 1e6);
    t0 = NowSeconds();
    auto lowered = plan::Planner::Lower(*request);
    t1 = NowSeconds();
    if (lowered.ok()) probes.lower_us.push_back((t1 - t0) * 1e6);
    if (answers[i].parsed) {
      t0 = NowSeconds();
      std::string wire = answers[i].envelope.ToJson().Dump();
      t1 = NowSeconds();
      if (!wire.empty()) probes.encode_us.push_back((t1 - t0) * 1e6);
    }
  }
  return probes;
}

void PrintPhase(const char* name, const PhaseResult& phase) {
  std::printf(
      "phase %s: offered %.1f/s sent %zu ok %zu failed %zu served %.1f/s "
      "p50 %.3f ms p%g %.3f ms backlog %.3f ms late-free p99 %.3f ms "
      "late-busy %.4f\n",
      name, phase.offered_rate, phase.sent, phase.succeeded, phase.failed,
      phase.served_rate, phase.p50_ms, phase.tail_quantile * 100,
      phase.tail_ms, phase.backlog_ms, phase.late_free_p99_ms,
      phase.late_busy_frac);
}

}  // namespace

Report RunServeWorkload(const ServeSpec& spec, const RunOptions& options) {
  Report report;
  std::unique_ptr<Generator> gen = Prepare(spec, options);

  // Set up several times and keep the last world; the median is setup_s.
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetUps; ++rep) {
    world.reset();
    const double start = NowSeconds();
    world = SetUp(*gen, spec.distinct_asks > 0);
    setups.push_back(NowSeconds() - start);
  }
  std::printf("%s: %s, %d students, reference rate %.0f/s\n",
              spec.name.c_str(),
              spec.distinct_asks > 0
                  ? StrFormat("%zu asks (fixed set)", gen->asks.size()).c_str()
                  : "every ask new",
              gen->population->size(), spec.reference_rate);

  Checker checker(*gen);
  for (size_t a = 0; a < world->warm_replies.size(); ++a) {
    Answer answer = Decode(world->warm_replies[a]);
    if (!Succeeded(answer) || answer.envelope.cache != "miss") {
      report.Wrong(StrFormat("warm-up of ask %zu was not a complete miss: %s",
                             a, world->warm_replies[a].c_str()));
    }
    checker.Add(static_cast<int>(a), answer);
  }

  // Phase 0 runs the reference rate open loop for half the run. Phase 1
  // saturates the server for the other half; in the traced run it repeats
  // the reference rate instead, with every fourth request traced.
  const double half = options.seconds / 2;
  auto& cache = coursenav::cache::RequestCache::Global();
  const coursenav::cache::CacheStats before = cache.Stats();
  const Schedule reference_schedule =
      BuildSchedule(gen.get(), spec, options, 0, half);
  // Peak memory is that of the reference phase, in one-second windows:
  // the server, its cache, and this phase's requests and replies.
  PeakRssSampler sampler(1.0);
  std::vector<Sent> reference_sent = RunPhase(*world->server, reference_schedule);
  const double peak_rss_mb = sampler.Stop();
  const coursenav::cache::CacheStats after_reference = cache.Stats();
  const PhaseResult reference =
      Analyze(half, std::move(reference_sent), &checker, true);
  PrintPhase("reference", reference);
  PhaseResult second;
  if (options.trace) {
    const Schedule traced = BuildSchedule(gen.get(), spec, options, 1, half);
    second = Analyze(half, RunPhase(*world->server, traced), &checker, true);
    PrintPhase("traced", second);
  } else {
    second = Analyze(
        half, RunSaturated(*world->server, gen.get(), spec, options, 1, half),
        &checker, false);
    PrintPhase("saturated", second);
  }
  (void)world->server->Drain(5.0);
  report.attempted = static_cast<int64_t>(reference.sent + second.sent);
  report.failed = static_cast<int64_t>(reference.failed + second.failed);

  DirectWork work;
  const int64_t wrong = checker.Verify(&report, &work);
  report.failed += wrong;

  report.E2e("setup_s", Median(setups), "s");
  report.E2e("latency_p50_ms", reference.p50_ms, "ms");
  if (!options.trace) {
    // Capacity: successful answers per second under a saturating load.
    report.E2e("max_rate_rps", second.served_rate, "1/s");
  }
  report.E2e("peak_rss_mb", peak_rss_mb, "MiB");
  // Printed for reading, not a bounded metric: across runs it moves with
  // the host's scheduling noise by more than any bound could allow.
  std::printf("latency_tail_ms %.4f (p%g at the reference rate)\n",
              reference.tail_ms, reference.tail_quantile * 100);

  // Per-layer numbers from the untraced reference phase's envelopes.
  std::vector<double> queue_wait, service, transport, hit_service;
  std::map<DegradationLevel, int64_t> served_by;
  int64_t degraded = 0, exhausted = 0, with_report = 0;
  std::vector<double> rung_spent_ms;
  for (size_t i = 0; i < reference.answers.size(); ++i) {
    const Answer& answer = reference.answers[i];
    if (!answer.parsed) continue;
    const serve::ResponseEnvelope& e = answer.envelope;
    queue_wait.push_back(e.queue_wait_ms);
    service.push_back(e.service_ms);
    transport.push_back(reference.latencies_ms[i] < 1e9
                            ? reference.latencies_ms[i] - e.queue_wait_ms -
                                  e.service_ms
                            : 0.0);
    if (e.cache == "hit") hit_service.push_back(e.service_ms);
    if (e.outcome == serve::ResponseOutcome::kDegraded) ++degraded;
    if (e.degradation.has_value()) {
      ++with_report;
      ++served_by[e.degradation->level_served];
      if (e.degradation->exhausted) ++exhausted;
      double spent = 0.0;
      bool fell = false;
      for (const auto& rung : e.degradation->rungs) {
        if (rung.attempted && !rung.outcome.ok()) {
          spent += rung.seconds_spent * 1e3;
          fell = true;
        }
      }
      if (fell) rung_spent_ms.push_back(spent);
    }
  }
  const double answered = static_cast<double>(reference.answers.size());
  Probes probes =
      ProbeLayers(*gen, reference_schedule.payloads, reference.answers);
  report.Layer("serve.decode_us", Median(probes.decode_us), "us");
  report.Layer("serve.encode_us", Median(probes.encode_us), "us");
  report.Layer("serve.transport_ms", Median(transport), "ms");
  report.Layer("serve.queue_wait_ms", Mean(queue_wait), "ms");
  report.Layer("serve.service_ms", Median(service), "ms");
  const int64_t hits = after_reference.result_hits - before.result_hits;
  const int64_t misses = after_reference.result_misses - before.result_misses;
  report.Layer("cache.hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0,
               "ratio");
  report.Layer("cache.hits", static_cast<double>(hits), "count");
  report.Layer("cache.misses", static_cast<double>(misses), "count");
  report.Layer("cache.hit_service_ms", Median(hit_service), "ms");
  report.Layer("cache.evictions",
               static_cast<double>(after_reference.evictions - before.evictions),
               "count");
  report.Layer("cache.result_bytes",
               static_cast<double>(after_reference.result_bytes), "bytes");
  report.Layer("plan.lower_us", Median(probes.lower_us), "us");
  report.Layer("degraded_frac", static_cast<double>(degraded) / answered,
               "ratio");
  for (DegradationLevel level :
       {DegradationLevel::kFull, DegradationLevel::kAggressivePruning,
        DegradationLevel::kRankedSmallK, DegradationLevel::kCountOnly}) {
    report.Layer("service.rung_share." +
                     std::string(coursenav::DegradationLevelName(level)),
                 with_report > 0 ? static_cast<double>(served_by[level]) /
                                       static_cast<double>(with_report)
                                 : 0.0,
                 "ratio");
  }
  report.Layer("service.exhausted", static_cast<double>(exhausted), "count");
  report.Layer("service.rung_spent_ms", Mean(rung_spent_ms), "ms");
  // Core and counting work happens on the serve path only when answers
  // are computed, not served from the cache; the direct runs that verified
  // those answers time it from outside.
  if (spec.distinct_asks == 0) {
    report.Layer("core.ns_per_node",
                 work.nodes > 0 ? work.materialize_seconds * 1e9 /
                                      static_cast<double>(work.nodes)
                                : 0.0,
                 "ns");
    report.Layer("core.prune_ratio",
                 work.pruned_base > 0 ? static_cast<double>(work.pruned) /
                                            static_cast<double>(work.pruned_base)
                                      : 0.0,
                 "ratio");
    report.Layer("core.ranked_nodes_per_path",
                 work.ranked_paths > 0 ? static_cast<double>(work.ranked_nodes) /
                                             static_cast<double>(work.ranked_paths)
                                       : 0.0,
                 "count");
    report.Layer("count.ns_per_status",
                 work.statuses > 0 ? work.count_seconds * 1e9 /
                                         static_cast<double>(work.statuses)
                                   : 0.0,
                 "ns");
  }
  report.Layer("gen.late_free_ms", reference.late_free_p99_ms, "ms");
  report.Layer("gen.late_busy_frac", reference.late_busy_frac, "ratio");
  report.Layer("failed_frac",
               report.attempted > 0 ? static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted)
                                    : 0.0,
               "ratio");

  if (options.trace) {
    // The second phase sent every fourth request with "trace": true. Each
    // traced reply's span tree is grafted under a benchmark span covering
    // the Handle call that carried it.
    SpanTree tree;
    int64_t next_id = 1;
    int64_t roots = 0;
    for (size_t i = 0; i < second.answers.size(); ++i) {
      const Answer& answer = second.answers[i];
      if (!answer.parsed || !answer.envelope.trace.is_array()) continue;
      coursenav::obs::SpanRecord request;
      request.span_id = next_id++;
      request.name = "bench/request";
      request.duration_us = static_cast<int64_t>(second.handle_ms[i] * 1e3);
      std::vector<coursenav::obs::SpanRecord> spans =
          SpansFromJson(answer.envelope.trace);
      Graft(&spans, 0, request.span_id, &next_id);
      spans.push_back(request);
      FoldSpans(spans, &tree);
      ++roots;
    }
    report.Layer("trace.overhead_ms", second.p50_ms - reference.p50_ms, "ms");
    ReportSpanTree(tree, roots, &report);
  }
  return report;
}

}  // namespace perfbench
