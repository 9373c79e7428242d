// train-plan: the cloud-side cost and the quality the paper claims.
//
// Set-up builds an IMDB-like database, its histogram statistics and a
// labelled JOB-style workload of 3-8-table queries. The measured part
// pretrains every Enc_i and then jointly trains MTMLF-QO for a fixed number
// of epochs; it is repeated from the same initial weights until the run's
// time is used, and the median round is reported. The trained model then
// plans every query with PredictJoinOrder (timed) and estimates every plan
// node of the held-out queries (untimed). The chosen orders are scored with
// the labeller's simulator outside any timed region.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "checks.h"
#include "common.h"
#include "common/rng.h"
#include "datagen/imdb_like.h"
#include "model/mtmlf_qo.h"
#include "nn/optimizer.h"
#include "optimizer/baseline_card_est.h"
#include "probes.h"
#include "tensor/workspace.h"
#include "trace.h"
#include "train/trainer.h"
#include "workload/dataset.h"

namespace perfbench {

namespace {

using mtmlf::model::MtmlfQo;
using mtmlf::query::PlanNode;
using mtmlf::workload::LabeledQuery;

// Input make-up. Shared by every seed; the seed only changes the data, the
// queries and the initial weights.
constexpr double kDbScale = 0.25;
// Queries labelled per set-up; the split below keeps kTrainPerSize training
// and kTestPerSize held-out queries of every table count from kMinTables to
// kMaxTables, so a seed changes which queries are drawn but not the mix of
// sizes that training and planning costs depend on.
constexpr int kNumQueries = 300;
constexpr int kMinTables = 3;
constexpr int kMaxTables = 8;
constexpr int kTrainPerSize = 24;
constexpr int kTestPerSize = 8;
constexpr int kSingleTablePerTable = 30;
constexpr int kEncEpochs = 2;
constexpr int kJointEpochs = 5;
constexpr int kSetups = 3;          // set-up repeats; the median is reported
constexpr int kJoinCountSample = 40;
constexpr size_t kJoinCountMaxTables = 3;
constexpr int kStepReplay = 32;     // training steps replayed when traced

struct Setup {
  std::unique_ptr<mtmlf::storage::Database> db;
  std::unique_ptr<mtmlf::optimizer::BaselineCardEstimator> baseline;
  mtmlf::workload::Dataset dataset;
  mtmlf::workload::DatasetOptions ds_opts;
  double build_s = 0.0;
  double stats_s = 0.0;
  double dataset_s = 0.0;
};

Setup BuildSetup(uint64_t seed, Tracer::Lane* lane) {
  ScopedSpan span(lane, "bench.setup");
  Setup s;
  auto t0 = Clock::now();
  {
    ScopedSpan sp(lane, "datagen.build");
    mtmlf::Rng rng(seed);
    mtmlf::datagen::ImdbLikeOptions opts;
    opts.scale = kDbScale;
    auto db = mtmlf::datagen::BuildImdbLike(opts, &rng);
    if (!db.ok()) {
      std::fprintf(stderr, "BuildImdbLike: %s\n",
                   db.status().ToString().c_str());
      std::exit(1);
    }
    s.db = db.take();
  }
  s.build_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan sp(lane, "optimizer.stats");
    s.baseline =
        std::make_unique<mtmlf::optimizer::BaselineCardEstimator>(s.db.get());
  }
  s.stats_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan sp(lane, "workload.dataset");
    s.ds_opts.num_queries = kNumQueries;
    s.ds_opts.single_table_queries_per_table = kSingleTablePerTable;
    s.ds_opts.generator.min_tables = kMinTables;
    s.ds_opts.generator.max_tables = kMaxTables;
    s.ds_opts.seed = seed * 7919 + 7;
    auto ds = mtmlf::workload::BuildDataset(s.db.get(), s.baseline.get(),
                                            s.ds_opts);
    if (!ds.ok()) {
      std::fprintf(stderr, "BuildDataset: %s\n",
                   ds.status().ToString().c_str());
      std::exit(1);
    }
    s.dataset = ds.take();
  }
  s.dataset_s = SecondsSince(t0);
  std::vector<int> per_size(kMaxTables + 1, 0);
  auto& split = s.dataset.split;
  split = {};
  for (size_t i = 0; i < s.dataset.queries.size(); ++i) {
    const size_t m = s.dataset.queries[i].query.tables.size();
    if (m > static_cast<size_t>(kMaxTables)) continue;
    const int k = per_size[m]++;
    if (k < kTrainPerSize) {
      split.train.push_back(i);
    } else if (k < kTrainPerSize + kTestPerSize) {
      split.test.push_back(i);
    }
  }
  for (int m = kMinTables; m <= kMaxTables; ++m) {
    if (per_size[m] < kTrainPerSize + kTestPerSize) {
      std::fprintf(stderr, "train-plan: only %d queries of %d tables\n",
                   per_size[m], m);
    }
  }
  return s;
}

mtmlf::train::TrainOptions TrainOpts(uint64_t seed) {
  mtmlf::train::TrainOptions opts;
  opts.enc_pretrain_epochs = kEncEpochs;
  opts.joint_epochs = kJointEpochs;
  opts.seed = seed * 31 + 5;
  return opts;
}

std::unique_ptr<MtmlfQo> FreshModel(const Setup& s, uint64_t seed) {
  auto model =
      std::make_unique<MtmlfQo>(mtmlf::featurize::ModelConfig{}, seed * 13 + 1);
  model->AddDatabase(s.db.get(), s.baseline.get());
  return model;
}

bool SameParameters(const MtmlfQo& a, const MtmlfQo& b) {
  std::vector<mtmlf::nn::NamedParam> pa, pb;
  a.CollectNamedParameters(&pa);
  b.CollectNamedParameters(&pb);
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const auto& ta = pa[i].second;
    const auto& tb = pb[i].second;
    if (pa[i].first != pb[i].first || ta.size() != tb.size() ||
        std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// One optimizer step of the joint trainer, replayed call by call so the
// traced run can split a step into forward, loss, backward and Adam. The
// replay trains a separate fresh model and leaves the measured one alone.
void ReplaySteps(const Setup& s, uint64_t seed, Tracer::Lane* lane,
                 RunResult* result) {
  auto model = FreshModel(s, seed);
  std::vector<mtmlf::tensor::Tensor> params;
  model->CollectSharedTaskParameters(&params);
  mtmlf::nn::Adam adam(std::move(params), mtmlf::nn::Adam::Options{});
  const auto opts = TrainOpts(seed);
  std::vector<double> fwd_ms, loss_ms, bwd_ms, adam_ms, ops, heap;
  const auto& train = s.dataset.split.train;
  for (int i = 0; i < kStepReplay; ++i) {
    const LabeledQuery& lq =
        s.dataset.queries[train[static_cast<size_t>(i) % train.size()]];
    ScopedSpan step(lane, "train.step", static_cast<uint64_t>(i));
    auto before = mtmlf::tensor::ReadAllocCounters();
    auto t0 = Clock::now();
    std::optional<MtmlfQo::Forward> fwd;
    {
      ScopedSpan sp(lane, "model.run_grad");
      fwd.emplace(model->Run(0, lq.query, *lq.plan));
    }
    auto t1 = Clock::now();
    std::optional<mtmlf::tensor::Tensor> loss;
    {
      ScopedSpan sp(lane, "model.loss");
      loss.emplace(model->MultiTaskLoss(*fwd, lq, opts.weights));
    }
    auto t2 = Clock::now();
    {
      ScopedSpan sp(lane, "tensor.backward");
      loss->Backward();
    }
    auto t3 = Clock::now();
    auto after = mtmlf::tensor::ReadAllocCounters();
    fwd_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    loss_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
    bwd_ms.push_back(std::chrono::duration<double, std::milli>(t3 - t2).count());
    ops.push_back(static_cast<double>(after.ops - before.ops));
    heap.push_back(static_cast<double>(after.heap_nodes - before.heap_nodes));
    if ((i + 1) % opts.batch_size == 0) {
      ScopedSpan sp(lane, "nn.adam");
      auto ta = Clock::now();
      adam.Step(1.0f / static_cast<float>(opts.batch_size));
      adam_ms.push_back(SecondsSince(ta) * 1e3);
    }
  }
  result->Layer("model.step_forward_ms", Median(fwd_ms), "ms");
  result->Layer("model.step_loss_ms", Median(loss_ms), "ms");
  result->Layer("tensor.step_backward_ms", Median(bwd_ms), "ms");
  result->Layer("nn.step_adam_ms", Median(adam_ms), "ms");
  result->Layer("tensor.ops_per_step", mtmlf::Summarize(ops).mean, "count");
  result->Layer("tensor.heap_nodes_per_step", mtmlf::Summarize(heap).mean,
                "count");
}

}  // namespace

RunResult RunTrainPlan(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  Tracer::Lane* lane = tracer->main_lane();

  // ---- Set-up, repeated; the last one is measured. -------------------------
  std::vector<double> setup_s, build_s, stats_s, dataset_s;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    auto t0 = Clock::now();
    setup.emplace(BuildSetup(config.seed, lane));
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(setup->build_s);
    stats_s.push_back(setup->stats_s);
    dataset_s.push_back(setup->dataset_s);
  }
  const Setup& s = *setup;
  const auto& queries = s.dataset.queries;
  const auto& test = s.dataset.split.test;
  RecordAllocCounters(tracer, "setup_end");
  result.E2e("setup_s", Median(setup_s), "s");
  result.Layer("datagen.build_s", Median(build_s), "s");
  result.Layer("optimizer.stats_s", Median(stats_s), "s");
  result.Layer("workload.dataset_s", Median(dataset_s), "s");

  // ---- Measured: pretrain + joint training, whole rounds. ------------------
  const auto opts = TrainOpts(config.seed);
  size_t single_table = 0;
  for (const auto& per_table : s.dataset.single_table_queries) {
    single_table += per_table.size();
  }
  const double queries_per_round =
      static_cast<double>(single_table) * kEncEpochs +
      static_cast<double>(s.dataset.split.train.size()) * kJointEpochs;
  std::unique_ptr<MtmlfQo> model;
  std::vector<double> train_s, pretrain_s, joint_s, cpu_s;
  std::vector<double> traced_train_s;
  bool deterministic = true;
  auto measure_start = Clock::now();
  for (int round = 0;; ++round) {
    // In the traced run, even rounds are untraced and odd rounds traced, so
    // the run itself shows what the spans cost.
    const bool traced_round = tracer->enabled() && round % 2 == 1;
    Tracer::Lane* round_lane = traced_round ? lane : nullptr;
    auto candidate = FreshModel(s, config.seed);
    mtmlf::train::Trainer trainer(candidate.get());
    ScopedSpan span(round_lane, "train.round", static_cast<uint64_t>(round));
    double cpu0 = ProcessCpuSeconds();
    auto t0 = Clock::now();
    mtmlf::Status st;
    {
      ScopedSpan sp(round_lane, "train.pretrain");
      st = trainer.PretrainFeaturizer(0, s.dataset, opts);
    }
    auto t1 = Clock::now();
    mtmlf::Status st2;
    {
      ScopedSpan sp(round_lane, "train.joint");
      st2 = trainer.TrainJoint({{0, &s.dataset}}, opts);
    }
    double elapsed = SecondsSince(t0);
    double cpu = ProcessCpuSeconds() - cpu0;
    result.attempted += 2;
    result.failed += (st.ok() ? 0 : 1) + (st2.ok() ? 0 : 1);
    if (!st.ok() || !st2.ok()) {
      std::fprintf(stderr, "training failed: %s / %s\n",
                   st.ToString().c_str(), st2.ToString().c_str());
      break;
    }
    (traced_round ? traced_train_s : train_s).push_back(elapsed);
    if (!traced_round) {
      pretrain_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      joint_s.push_back(SecondsSince(t1));
      cpu_s.push_back(cpu);
    }
    if (model == nullptr) {
      model = std::move(candidate);
    } else if (!SameParameters(*model, *candidate)) {
      deterministic = false;
    }
    const int min_rounds = tracer->enabled() ? 2 : 1;
    if (round + 1 >= min_rounds && SecondsSince(measure_start) >= config.seconds) {
      break;
    }
  }
  result.Check(deterministic,
               "training rounds from the same seed ended at different weights");
  if (model == nullptr) return result;
  const double train_med = Median(train_s);
  result.E2e("p50_us", train_med / queries_per_round * 1e6, "us");
  result.Layer("proc.cpu_us_per_op", Median(cpu_s) / queries_per_round * 1e6,
               "us");
  result.Layer("train.train_s", train_med, "s");
  result.Layer("train.pretrain_s", Median(pretrain_s), "s");
  result.Layer("train.joint_ex_per_s",
               static_cast<double>(s.dataset.split.train.size()) *
                   kJointEpochs / Median(joint_s),
               "1/s");
  if (tracer->enabled()) {
    result.Layer("trace.overhead_pct",
                 100.0 * (Median(traced_train_s) - train_med) / train_med,
                 "%");
  }

  RecordAllocCounters(tracer, "train_end");

  // ---- Planning latency: one PredictJoinOrder per held-out query. ----------
  mtmlf::model::BeamSearchOptions beam;
  beam.rerank_by_cost = true;
  // Planning time grows with the table count, and the held-out set holds
  // kTestPerSize queries of each count. The pooled median of such a set sits
  // on the boundary between two counts and jumps with single queries, so
  // the planning figure is the median time per table count, averaged over
  // the counts.
  std::vector<std::vector<double>> plan_us(kMaxTables + 1);
  std::vector<double> run_us, decode_us;
  std::vector<std::vector<int>> orders(queries.size());
  {
    mtmlf::tensor::Workspace arena;
    for (size_t i : test) {
      const LabeledQuery& lq = queries[i];
      double pjo_us = 0.0;
      {
        ScopedSpan sp(lane, "model.plan", i);
        auto t0 = Clock::now();
        auto order = model->PredictJoinOrder(0, lq, beam);
        pjo_us = SecondsSince(t0) * 1e6;
        ++result.attempted;
        if (!order.ok()) {
          ++result.failed;
          continue;
        }
        orders[i] = order.value();
      }
      plan_us[lq.query.tables.size()].push_back(pjo_us);
      if (tracer->enabled()) {
        // No-grad Run alone, in an arena as PredictJoinOrder runs it.
        mtmlf::tensor::NoGradGuard no_grad;
        double us = 0.0;
        {
          mtmlf::tensor::WorkspaceScope scope(&arena);
          ScopedSpan sp(lane, "model.run", i);
          auto t0 = Clock::now();
          auto fwd = model->Run(0, lq.query, *lq.plan);
          us = SecondsSince(t0) * 1e6;
        }
        arena.Reset();
        run_us.push_back(us);
        decode_us.push_back(pjo_us - us);
      }
    }
  }
  std::vector<double> per_count;
  for (const auto& us : plan_us) {
    if (!us.empty()) per_count.push_back(Median(us));
  }
  result.Layer("model.plan_ms_p50", mtmlf::Summarize(per_count).mean / 1e3,
               "ms");
  if (tracer->enabled()) {
    result.Layer("model.encode_ms_p50", Median(run_us) / 1e3, "ms");
    result.Layer("model.decode_ms_p50", Median(decode_us) / 1e3, "ms");
  }

  // ---- Checks on the chosen orders (the benchmark's own code). -------------
  for (size_t i = 0; i < queries.size(); ++i) {
    if (orders[i].empty()) continue;
    result.Check(IsConnectedPermutation(queries[i].query, orders[i]),
                 "a predicted join order is not a connected permutation");
  }

  RecordAllocCounters(tracer, "plan_end");

  // ---- Estimates on every plan node of the held-out queries. ---------------
  std::vector<double> card_q, cost_q, hist_q;
  int empty_roots = 0;
  {
    mtmlf::tensor::NoGradGuard no_grad;
    for (size_t idx : test) {
      const LabeledQuery& lq = queries[idx];
      if (lq.true_card == 0.0) ++empty_roots;
      std::vector<const PlanNode*> plans = {lq.plan.get()};
      for (const auto& alt : lq.alt_plans) plans.push_back(alt.get());
      for (const PlanNode* plan : plans) {
        auto fwd = model->Run(0, lq.query, *plan);
        auto cards = model->NodeCardPredictions(fwd);
        auto costs = model->NodeCostPredictions(fwd);
        ++result.attempted;
        for (size_t n = 0; n < fwd.nodes.size(); ++n) {
          const PlanNode& node = *fwd.nodes[n];
          card_q.push_back(mtmlf::QError(cards[n], node.true_cardinality));
          cost_q.push_back(mtmlf::QError(costs[n], node.true_cost));
          hist_q.push_back(mtmlf::QError(
              s.baseline->EstimateSubset(lq.query, node.BaseTables()),
              node.true_cardinality));
        }
      }
    }
  }
  const double card_p50 = Median(card_q);
  const double hist_p50 = Median(hist_q);
  result.Layer("model.card_qerror_p50", card_p50, "ratio");
  result.Layer("model.card_qerror_p95", mtmlf::Summarize(card_q).p95, "ratio");
  result.Layer("model.cost_qerror_p50", Median(cost_q), "ratio");
  result.Layer("optimizer.card_qerror_p50", hist_p50, "ratio");
  result.Layer("workload.empty_root_share",
               static_cast<double>(empty_roots) /
                   static_cast<double>(test.size()),
               "ratio");
  result.Check(card_p50 < hist_p50,
               "learned card q-error median is not below the histogram's");
  std::fprintf(stderr,
               "train-plan: %zu held-out queries (%d with an empty result), "
               "%zu plan nodes; card q-error p50 learned %.3f vs histogram "
               "%.3f\n",
               test.size(), empty_roots, card_q.size(), card_p50, hist_p50);

  // ---- Labels against a naive join counter. --------------------------------
  {
    std::vector<const PlanNode*> candidates;
    std::vector<const LabeledQuery*> owners;
    for (size_t idx : test) {
      const LabeledQuery& lq = queries[idx];
      for (const PlanNode* node : mtmlf::query::PreOrder(lq.plan.get())) {
        if (node->BaseTables().size() <= kJoinCountMaxTables) {
          candidates.push_back(node);
          owners.push_back(&lq);
        }
      }
    }
    mtmlf::Rng pick(config.seed ^ 0x5eedULL);
    int checked = 0;
    for (int k = 0; k < kJoinCountSample && !candidates.empty(); ++k) {
      size_t c = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1));
      auto count = NaiveJoinCount(*s.db, owners[c]->query,
                                  candidates[c]->BaseTables());
      result.Check(count.has_value(),
                   "naive join counter could not evaluate a labelled node");
      if (!count.has_value()) continue;
      result.Check(*count == candidates[c]->true_cardinality,
                   "a true-cardinality label differs from the naive count");
      ++checked;
    }
    result.Check(checked > 0, "no labelled sub-plan was recounted");
  }

  // ---- Plan quality under the simulator (untimed). -------------------------
  {
    mtmlf::workload::QueryLabeler scorer(s.db.get(), s.baseline.get(),
                                         s.ds_opts.labeler);
    double learned_ms = 0.0, baseline_ms = 0.0, oracle_ms = 0.0;
    double worst = 0.0;
    int regressed = 0, exact = 0, scored = 0;
    for (size_t idx : test) {
      const LabeledQuery& lq = queries[idx];
      if (orders[idx].empty() || lq.optimal_order.size() < 2) continue;
      auto learned = scorer.SimulateOrderLatencyMs(lq.query, orders[idx]);
      auto base = scorer.SimulateOrderLatencyMs(lq.query, lq.postgres_order);
      auto oracle = scorer.SimulateOrderLatencyMs(lq.query, lq.optimal_order);
      if (!learned.ok() || !base.ok() || !oracle.ok()) {
        result.Check(false, "the simulator rejected a join order");
        continue;
      }
      learned_ms += learned.value();
      baseline_ms += base.value();
      oracle_ms += oracle.value();
      worst = std::max(worst, learned.value() / base.value());
      if (learned.value() > base.value()) ++regressed;
      if (orders[idx] == lq.optimal_order) ++exact;
      ++scored;
    }
    result.Layer("exec.plan_exec_s", learned_ms / 1e3, "s");
    result.Layer("exec.baseline_exec_s", baseline_ms / 1e3, "s");
    result.Layer("exec.oracle_exec_s", oracle_ms / 1e3, "s");
    result.Layer("model.jo_exact_match",
                 scored == 0 ? 0.0 : static_cast<double>(exact) / scored,
                 "ratio");
    result.Layer("model.jo_regressed", regressed, "count");
    result.Layer("model.jo_worst_ratio", worst, "ratio");
    std::fprintf(stderr,
                 "train-plan: %d scored held-out queries; simulated total "
                 "learned %.3f s, baseline %.3f s, oracle %.3f s\n",
                 scored, learned_ms / 1e3, baseline_ms / 1e3, oracle_ms / 1e3);
  }

  // ---- Traced-only probes: labelling, featurization, training steps. -------
  if (tracer->enabled()) {
    mtmlf::workload::QueryLabeler labeler(s.db.get(), s.baseline.get(),
                                          s.ds_opts.labeler);
    std::vector<double> label_ms;
    for (size_t idx : test) {
      ScopedSpan sp(lane, "exec.label", idx);
      auto t0 = Clock::now();
      auto labeled = labeler.Label(queries[idx].query, true);
      label_ms.push_back(SecondsSince(t0) * 1e3);
      result.Check(labeled.ok(), "relabelling a held-out query failed");
    }
    result.Layer("exec.label_ms_p50", Median(label_ms), "ms");

    std::vector<PlanRef> probe;
    for (size_t idx : test) {
      probe.emplace_back(&queries[idx].query, queries[idx].plan.get());
    }
    result.Layer("model.forward_us_p50", ForwardProbeUs(*model, probe, lane),
                 "us");
    result.Layer("featurize.encode_us_p50",
                 EncodeProbeUs(model.get(), probe, lane), "us");
  }
  if (tracer->enabled()) ReplaySteps(s, config.seed, lane, &result);

  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
