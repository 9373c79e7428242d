// serve-hot and serve-cold: the customer-side optimizer's calls into a
// served model, over MFIP on a Unix socket.
//
// Both run a seeded, untrained MTMLF-QO shipped through a checkpoint: the
// forward pass costs the same whatever the weights, and skipping training
// keeps set-up short. The load is closed loop: each connection is one
// optimizer session that waits for its reply before sending the next call.
//   serve-hot   2 connections re-cost a small working set of plans, far
//               smaller than the prediction cache; after warm-up every
//               answer is a cache hit.
//   serve-cold  4 connections each send plans nobody has sent before, more
//               of them than the cache holds; every answer is a miss that
//               runs the model and inserts into the cache. The plans are
//               generated as they are sent, so the load generator's memory
//               does not grow with the run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <unistd.h>

#include "common.h"
#include "common/rng.h"
#include "datagen/imdb_like.h"
#include "model/mtmlf_qo.h"
#include "optimizer/baseline_card_est.h"
#include "probes.h"
#include "serve/checkpoint.h"
#include "serve/ipc_client.h"
#include "serve/ipc_server.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using mtmlf::model::MtmlfQo;
using mtmlf::query::PlanPtr;
using mtmlf::query::Query;

constexpr double kDbScale = 0.1;
constexpr int kMinTables = 3;
constexpr int kMaxTables = 8;
constexpr int kSetups = 5;  // set-up repeats; the median is reported
constexpr uint64_t kModelVersion = 1;
// serve-hot
constexpr int kHotConnections = 2;
constexpr size_t kHotPlans = 64;
// serve-cold
constexpr int kColdConnections = 4;
constexpr size_t kColdWarmupPlans = 1024;
// Served answers regenerated and checked per batch after the measured phase.
constexpr size_t kColdCheckChunk = 1024;
// Plans the traced run pushes through the single-thread model probes.
constexpr size_t kProbePlans = 256;

struct Plan {
  Query query;
  PlanPtr plan;
};

// A canonical text of a query and its plan, used only to make every
// generated plan distinct.
std::string PlanKey(const Plan& p) {
  std::string key;
  for (int t : p.query.tables) key += std::to_string(t) + ",";
  key += "|";
  for (const auto& f : p.query.filters) {
    key += std::to_string(f.table) + "." + f.column + " " +
           std::to_string(static_cast<int>(f.op)) + " " + f.value.ToString() +
           ";";
  }
  return key;
}

// Distinct plans in an order fixed by the seed: the n-th plan of two streams
// with one seed is the same plan. Plans are told apart by a 64-bit hash of
// their canonical text. Each plan's join order is the order in which the
// generator grew the query, which is connected by construction. Next() may
// be called from several threads.
class PlanStream {
 public:
  PlanStream(const mtmlf::storage::Database& db, uint64_t seed)
      : gen_(&db, seed) {
    opts_.min_tables = kMinTables;
    opts_.max_tables = kMaxTables;
  }

  /// The next plan and its position in the stream.
  std::pair<size_t, Plan> Next() {
    std::lock_guard<std::mutex> lock(mu_);
    Plan p;
    do {
      p.query = gen_.GenerateQuery(opts_);
    } while (!seen_.insert(std::hash<std::string>{}(PlanKey(p))).second);
    p.plan = mtmlf::query::MakeLeftDeepPlan(p.query.tables);
    return {next_++, std::move(p)};
  }

  std::vector<Plan> Take(size_t count) {
    std::vector<Plan> plans;
    plans.reserve(count);
    while (plans.size() < count) plans.push_back(Next().second);
    return plans;
  }

 private:
  std::mutex mu_;
  mtmlf::workload::WorkloadGenerator gen_;
  mtmlf::workload::GeneratorOptions opts_;
  std::unordered_set<uint64_t> seen_;
  size_t next_ = 0;
};

std::shared_ptr<MtmlfQo> NewModel(const mtmlf::storage::Database* db,
                                  const mtmlf::optimizer::BaselineCardEstimator*
                                      baseline,
                                  uint64_t seed) {
  auto model =
      std::make_shared<MtmlfQo>(mtmlf::featurize::ModelConfig{}, seed);
  model->AddDatabase(db, baseline);
  return model;
}

void Die(const char* what, const mtmlf::Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

// Everything one set-up builds. Members are declared in dependency order,
// so destruction tears the stack down clients-first.
struct ServeSetup {
  std::unique_ptr<mtmlf::storage::Database> db;
  std::unique_ptr<mtmlf::optimizer::BaselineCardEstimator> baseline;
  uint64_t plan_seed = 0;
  // serve-hot: the working set. serve-cold: the warm-up plans, the first of
  // `stream`, which then yields the measured phase's plans as they are sent.
  std::vector<Plan> plans;
  std::unique_ptr<PlanStream> stream;
  std::shared_ptr<MtmlfQo> reference;  // checkpoint-loaded, never served
  mtmlf::serve::ModelRegistry registry;
  std::unique_ptr<mtmlf::serve::InferenceServer> server;
  std::unique_ptr<mtmlf::serve::SocketFrontEnd> front;
  std::vector<std::unique_ptr<mtmlf::serve::IpcClient>> clients;
  double build_s = 0, stats_s = 0, save_ms = 0, load_ms = 0,
         warmup_s = 0;

  ~ServeSetup() {
    clients.clear();
    if (front) front->Shutdown();
    if (server) server->Shutdown();
  }
};

std::unique_ptr<ServeSetup> BuildSetup(const RunConfig& config, bool hot,
                                       const std::string& socket_path,
                                       Tracer::Lane* lane) {
  ScopedSpan span(lane, "bench.setup");
  auto s = std::make_unique<ServeSetup>();
  auto t0 = Clock::now();
  {
    ScopedSpan sp(lane, "datagen.build");
    mtmlf::Rng rng(config.seed);
    mtmlf::datagen::ImdbLikeOptions opts;
    opts.scale = kDbScale;
    auto db = mtmlf::datagen::BuildImdbLike(opts, &rng);
    if (!db.ok()) Die("BuildImdbLike", db.status());
    s->db = db.take();
  }
  s->build_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan sp(lane, "optimizer.stats");
    s->baseline =
        std::make_unique<mtmlf::optimizer::BaselineCardEstimator>(s->db.get());
  }
  s->stats_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan sp(lane, "bench.plans");
    s->plan_seed = config.seed * 104729 + 3;
    s->stream = std::make_unique<PlanStream>(*s->db, s->plan_seed);
    s->plans = s->stream->Take(hot ? kHotPlans : kColdWarmupPlans);
  }

  // The cloud side ships a checkpoint; the customer side loads it into a
  // model built with different initial weights.
  const std::string ckpt = config.work_dir + "/serve-" +
                           std::to_string(::getpid()) + ".mtcp";
  std::shared_ptr<MtmlfQo> shipped, served;
  {
    ScopedSpan sp(lane, "model.init");
    shipped = NewModel(s->db.get(), s->baseline.get(), config.seed * 17);
    served = NewModel(s->db.get(), s->baseline.get(), config.seed * 17 + 1);
    s->reference =
        NewModel(s->db.get(), s->baseline.get(), config.seed * 17 + 2);
  }
  {
    ScopedSpan sp(lane, "serve.checkpoint_save");
    t0 = Clock::now();
    auto st = mtmlf::serve::SaveCheckpoint(ckpt, *shipped);
    s->save_ms = SecondsSince(t0) * 1e3;
    if (!st.ok()) Die("SaveCheckpoint", st);
  }
  {
    ScopedSpan sp(lane, "serve.checkpoint_load");
    t0 = Clock::now();
    auto st = mtmlf::serve::LoadCheckpoint(ckpt, served.get());
    s->load_ms = SecondsSince(t0) * 1e3;
    if (!st.ok()) Die("LoadCheckpoint", st);
  }
  {
    auto st = mtmlf::serve::LoadCheckpoint(ckpt, s->reference.get());
    if (!st.ok()) Die("LoadCheckpoint", st);
  }
  std::remove(ckpt.c_str());

  {
    ScopedSpan sp(lane, "serve.start");
    auto st = s->registry.Register(kModelVersion, served);
    if (st.ok()) st = s->registry.Publish(kModelVersion);
    if (!st.ok()) Die("registry", st);
    s->server = std::make_unique<mtmlf::serve::InferenceServer>(
        &s->registry, mtmlf::serve::InferenceServer::Options{});
    st = s->server->Start();
    if (!st.ok()) Die("InferenceServer::Start", st);
    mtmlf::serve::SocketFrontEnd::Options fopts;
    fopts.unix_path = socket_path;
    s->front = std::make_unique<mtmlf::serve::SocketFrontEnd>(
        s->server.get(), &s->registry, fopts);
    st = s->front->Start();
    if (!st.ok()) Die("SocketFrontEnd::Start", st);
    const int connections = hot ? kHotConnections : kColdConnections;
    for (int c = 0; c < connections; ++c) {
      mtmlf::serve::IpcClient::Options copts;
      copts.unix_path = socket_path;
      s->clients.push_back(std::make_unique<mtmlf::serve::IpcClient>(copts));
      st = s->clients.back()->Connect();
      if (!st.ok()) Die("IpcClient::Connect", st);
    }
  }

  // Warm-up: serve-hot sends its working set once per connection, which
  // fills the cache; serve-cold sends plans kept apart from the measured
  // ones, which records the execution tapes of the common plan shapes.
  {
    ScopedSpan sp(lane, "serve.warmup");
    t0 = Clock::now();
    const std::vector<Plan>& plans = s->plans;
    std::vector<std::thread> threads;
    std::atomic<int> errors{0};
    for (size_t c = 0; c < s->clients.size(); ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < plans.size(); ++i) {
          if (!hot && i % s->clients.size() != c) continue;
          auto r = s->clients[c]->Predict(0, plans[i].query, *plans[i].plan);
          if (!r.ok()) errors.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    s->warmup_s = SecondsSince(t0);
    if (errors.load() != 0) {
      std::fprintf(stderr, "warm-up: %d failed requests\n", errors.load());
      std::exit(1);
    }
  }
  return s;
}

// A served answer kept for checking after the measured phase.
struct Answer {
  uint32_t plan;
  double card;
  double cost;
};

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<double> traced_us;  // traced run: requests sent under a span
  std::vector<Answer> answers;    // serve-cold only
  uint64_t sent = 0, failed = 0, hits = 0, degraded = 0, wrong_version = 0,
           mismatched = 0;
  double cpu_s = 0.0;
  uint64_t queue_depth_max = 0;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Root card and cost of an in-process eager Run for every plan, on 4
// threads: no server, cache, arena or tape.
std::vector<std::pair<double, double>> References(
    const MtmlfQo& model, const std::vector<Plan>& plans) {
  std::vector<std::pair<double, double>> ref(plans.size());
  std::vector<std::thread> threads;
  const size_t workers = 4;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      mtmlf::tensor::NoGradGuard no_grad;
      for (size_t k = w; k < plans.size(); k += workers) {
        const Plan& p = plans[k];
        auto fwd = model.Run(0, p.query, *p.plan);
        ref[k] = {model.NodeCardPredictions(fwd)[0],
                  model.NodeCostPredictions(fwd)[0]};
      }
    });
  }
  for (auto& t : threads) t.join();
  return ref;
}

// Closed-loop load for `seconds`. serve-hot: connection c of n loops over
// the whole working set in whole passes from its own offset. serve-cold:
// every connection sends the next plan of the shared stream. With `refs`
// (serve-hot) every answer is checked as it arrives; otherwise answers are
// kept, by stream position, for checking afterwards. Per-request storage is
// kept small so that peak RSS does not follow the request count. When
// tracing, every other request is sent under a span, so traced and untraced
// requests see the same server state and their latencies give the tracing
// overhead.
std::vector<ClientLog> DriveLoad(
    ServeSetup* s, bool hot, double seconds,
    const std::vector<std::pair<double, double>>* refs, Tracer* tracer,
    double* wall_s) {
  const size_t n = s->clients.size();
  std::vector<ClientLog> logs(n);
  std::vector<std::thread> threads;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Tracer::Lane* lane = tracer->NewLane();
      ClientLog& log = logs[c];
      auto& client = *s->clients[c];
      const double cpu0 = ThreadCpuSeconds();
      log.latency_us.reserve(static_cast<size_t>(seconds * 20000));
      auto send = [&](size_t i, const Plan& plan) {
        const bool traced = lane != nullptr && log.sent % 2 == 0;
        ScopedSpan sp(traced ? lane : nullptr, "ipc.predict", i);
        auto t0 = Clock::now();
        auto r = client.Predict(0, plan.query, *plan.plan);
        const double us = SecondsSince(t0) * 1e6;
        (traced ? log.traced_us : log.latency_us).push_back(us);
        ++log.sent;
        log.queue_depth_max = std::max<uint64_t>(
            log.queue_depth_max, s->server->metrics().queue_depth());
        if (!r.ok()) {
          ++log.failed;
          return;
        }
        const auto& pred = r.value();
        log.hits += pred.cache_hit ? 1 : 0;
        log.degraded += pred.degraded ? 1 : 0;
        log.wrong_version += pred.model_version != kModelVersion ? 1 : 0;
        if (refs != nullptr) {
          const auto& [card, cost] = (*refs)[i];
          if (!SameBits(card, pred.card) || !SameBits(cost, pred.cost_ms)) {
            ++log.mismatched;
          }
        } else {
          log.answers.push_back(
              Answer{static_cast<uint32_t>(i), pred.card, pred.cost_ms});
        }
      };
      if (hot) {
        const auto& plans = s->plans;
        const size_t offset = c * plans.size() / n;
        while (Clock::now() < deadline) {
          for (size_t k = 0; k < plans.size(); ++k) {
            const size_t i = (offset + k) % plans.size();
            send(i, plans[i]);
          }
        }
      } else {
        while (Clock::now() < deadline) {
          auto [i, plan] = s->stream->Next();
          send(i, plan);
        }
      }
      log.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (auto& t : threads) t.join();
  *wall_s = SecondsSince(start);
  return logs;
}

// Server counters at a phase boundary, for the trace file.
void RecordSnapshot(Tracer* tracer, const std::string& phase,
                    const mtmlf::serve::MetricsSnapshot& m) {
  const std::pair<const char*, uint64_t> counters[] = {
      {"requests", m.requests},
      {"cache_hits", m.cache_hits},
      {"cache_misses", m.cache_misses},
      {"fused_forwards", m.fused_forwards},
      {"tape_replays", m.tape_replays},
      {"tape_records", m.tape_records},
      {"arena_high_water", m.arena_high_water},
      {"tensor_ops", m.tensor_ops},
      {"tensor_heap_nodes", m.tensor_heap_nodes},
      {"tensor_arena_nodes", m.tensor_arena_nodes},
  };
  for (const auto& [name, value] : counters) {
    tracer->Counter(phase, name, static_cast<double>(value));
  }
}

}  // namespace

RunResult RunServe(const RunConfig& config, bool hot, Tracer* tracer) {
  RunResult result;
  Tracer::Lane* lane = tracer->main_lane();
  const std::string socket_path =
      config.work_dir + "/pb-" + std::to_string(::getpid()) + ".sock";

  // ---- Set-up. The measured phase runs on the first one. ------------------
  std::vector<double> setup_s, build_s, stats_s, save_ms, load_ms, warmup_s;
  auto set_up = [&] {
    auto t0 = Clock::now();
    auto s = BuildSetup(config, hot, socket_path, lane);
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(s->build_s);
    stats_s.push_back(s->stats_s);
    save_ms.push_back(s->save_ms);
    load_ms.push_back(s->load_ms);
    warmup_s.push_back(s->warmup_s);
    return s;
  };
  std::unique_ptr<ServeSetup> s = set_up();

  // ---- Measured phase. ------------------------------------------------------
  // serve-hot's few plans get their references first, so every answer can
  // be checked as it arrives.
  std::vector<std::pair<double, double>> hot_refs;
  if (hot) {
    hot_refs = References(*s->reference, s->plans);
  }
  const auto& metrics = s->server->metrics();
  auto before = metrics.Snapshot();
  const uint64_t batches0 = metrics.batches();
  const double cpu0 = ProcessCpuSeconds();
  double wall_s = 0.0;
  std::vector<ClientLog> logs =
      DriveLoad(s.get(), hot, config.seconds, hot ? &hot_refs : nullptr,
                tracer, &wall_s);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  auto after = metrics.Snapshot();
  const uint64_t batches1 = metrics.batches();

  std::vector<double> latency, traced_latency;
  uint64_t requests = 0, depth_max = 0;
  double client_cpu = 0.0;
  for (const auto& log : logs) {
    latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
    traced_latency.insert(traced_latency.end(), log.traced_us.begin(),
                          log.traced_us.end());
    requests += log.sent;
    client_cpu += log.cpu_s;
    depth_max = std::max(depth_max, log.queue_depth_max);
  }
  const double p50 = Median(latency);
  result.Layer("serve.qps", static_cast<double>(requests) / wall_s, "1/s");
  result.E2e("p50_us", p50, "us");
  result.Layer("proc.cpu_us_per_op",
               cpu_s / static_cast<double>(requests) * 1e6, "us");

  // ---- Output checks. -------------------------------------------------------
  uint64_t hits = 0, degraded = 0, wrong_version = 0, mismatched = 0;
  for (const auto& log : logs) {
    result.failed += log.failed;
    hits += log.hits;
    degraded += log.degraded;
    wrong_version += log.wrong_version;
    mismatched += log.mismatched;
  }
  result.attempted = requests;
  result.Check(degraded == 0, "a reply came from the degraded path");
  result.Check(wrong_version == 0, "a reply carried another model version");
  if (hot) {
    result.Check(after.cache_misses == before.cache_misses &&
                     hits == requests - result.failed,
                 "serve-hot missed the cache after warm-up");
  } else {
    result.Check(after.cache_hits == before.cache_hits && hits == 0,
                 "serve-cold hit the cache on a never-seen plan");
    // Regenerate the answered plans from the same seed, a chunk at a time,
    // and compare each answer with its reference.
    std::vector<Answer> answers;
    for (auto& log : logs) {
      answers.insert(answers.end(), log.answers.begin(), log.answers.end());
      log.answers = {};
    }
    std::sort(answers.begin(), answers.end(),
              [](const Answer& a, const Answer& b) { return a.plan < b.plan; });
    PlanStream replay(*s->db, s->plan_seed);
    replay.Take(kColdWarmupPlans);
    size_t first = kColdWarmupPlans;  // stream position of chunk[0]
    for (size_t a = 0; a < answers.size();) {
      const size_t end = std::min(answers.size(), a + kColdCheckChunk);
      auto chunk = replay.Take(answers[end - 1].plan + 1 - first);
      auto ref = References(*s->reference, chunk);
      for (; a < end; ++a) {
        const auto& [card, cost] = ref[answers[a].plan - first];
        if (!SameBits(card, answers[a].card) ||
            !SameBits(cost, answers[a].cost)) {
          ++mismatched;
        }
      }
      first += chunk.size();
    }
  }
  result.Check(mismatched == 0,
               "a served prediction differs from the in-process Run");

  // ---- Per-layer figures of the measured phase. ----------------------------
  const double dreq = static_cast<double>(after.requests - before.requests);
  // The server histogram's p50 is a bucket midpoint that reads the same run
  // after run (296 us on serve-hot), so the exact mean is reported beside
  // its p99; the p50 still splits the client p50 into server and IPC parts.
  result.Layer("serve.server_mean_us", metrics.latency().MeanUs(), "us");
  result.Layer("serve.server_p99_us", metrics.latency().PercentileUs(0.99),
               "us");
  result.Layer("serve.ipc_overhead_us_p50",
               p50 - metrics.latency().PercentileUs(0.5), "us");
  result.Layer("serve.ipc_p99_us", mtmlf::Summarize(latency).p99, "us");
  result.Layer("serve.client_cpu_us_per_req",
               client_cpu / static_cast<double>(requests) * 1e6, "us");
  result.Layer("serve.mean_batch",
               batches1 > batches0 ? dreq / static_cast<double>(batches1 -
                                                                 batches0)
                                   : 0.0,
               "count");
  result.Layer("serve.queue_depth_max", static_cast<double>(depth_max),
               "count");
  result.Layer("serve.cache_hit_rate",
               dreq > 0 ? static_cast<double>(after.cache_hits -
                                              before.cache_hits) / dreq
                        : 0.0,
               "ratio");
  result.Layer("serve.cache_misses",
               static_cast<double>(after.cache_misses - before.cache_misses),
               "count");
  const uint64_t fused = after.fused_forwards - before.fused_forwards;
  result.Layer("serve.fused_group_mean",
               fused == 0 ? 0.0
                          : static_cast<double>(after.fused_requests -
                                                before.fused_requests) /
                                static_cast<double>(fused),
               "count");
  result.Layer("tensor.tape_replays",
               static_cast<double>(after.tape_replays - before.tape_replays),
               "count");
  result.Layer("tensor.tape_records",
               static_cast<double>(after.tape_records - before.tape_records),
               "count");
  result.Layer("tensor.ops_per_req",
               static_cast<double>(after.tensor_ops - before.tensor_ops) / dreq,
               "count");
  result.Layer("tensor.heap_nodes_per_req",
               static_cast<double>(after.tensor_heap_nodes -
                                   before.tensor_heap_nodes) /
                   dreq,
               "count");
  result.Layer("tensor.arena_nodes_per_req",
               static_cast<double>(after.tensor_arena_nodes -
                                   before.tensor_arena_nodes) /
                   dreq,
               "count");
  result.Layer("tensor.arena_high_water_kb",
               static_cast<double>(after.arena_high_water) / 1024.0, "KB");
  RecordSnapshot(tracer, "measured_begin", before);
  RecordSnapshot(tracer, "measured_end", after);

  // ---- Traced-only: tracing overhead, then model probes. -------------------
  if (tracer->enabled()) {
    result.Layer("trace.overhead_pct",
                 100.0 * (Median(traced_latency) - p50) / p50, "%");
    std::vector<PlanRef> probe;
    for (size_t i = 0; i < std::min(kProbePlans, s->plans.size()); ++i) {
      probe.emplace_back(&s->plans[i].query, s->plans[i].plan.get());
    }
    // The reference model carries the served weights (same checkpoint).
    result.Layer("model.forward_us_p50",
                 ForwardProbeUs(*s->reference, probe, lane), "us");
    result.Layer("featurize.encode_us_p50",
                 EncodeProbeUs(s->reference.get(), probe, lane), "us");
  }

  s.reset();
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");

  // ---- Set-up again, only to time it. ---------------------------------------
  // These come after the peak RSS is taken: memory the allocator keeps from
  // torn-down stacks would otherwise add to it, by a different amount each
  // run.
  for (int k = 1; k < kSetups; ++k) set_up();
  std::remove(socket_path.c_str());
  result.E2e("setup_s", Median(setup_s), "s");
  result.Layer("datagen.build_s", Median(build_s), "s");
  result.Layer("optimizer.stats_s", Median(stats_s), "s");
  result.Layer("serve.checkpoint_save_ms", Median(save_ms), "ms");
  result.Layer("serve.checkpoint_load_ms", Median(load_ms), "ms");
  result.Layer("serve.warmup_s", Median(warmup_s), "s");
  return result;
}

}  // namespace perfbench
