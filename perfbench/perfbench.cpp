// The repo benchmark: three workloads through the library's
// public API, end-to-end metrics from untraced runs and per-layer
// metrics from a separate traced run.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --self-test
//
// Workloads (BENCHMARK.json says why each exists):
//   grey1e4-bmmb          BMMB, grey-zone field n = 1e4, no trace
//   grey1e4-bmmb-checked  the same execution with a spooled trace, the
//                         TraceHasher and the full ExecutionChecker
//                         attached live, then finish()
//   fig1-campaign         sweeps/fig1_standard.json through the runner
//
// One op is one simulated run; in the campaign, one grid run (a pass
// runs the whole grid).  Loads are closed-loop: the next op starts when
// the previous one has ended.  Ops repeat while the next one, estimated
// by the mean so far, still fits in --seconds (at least one runs).
// Peak RSS is read after the first op or pass, so it does not depend on
// how many ops the host's speed let into the window.
//
// Layers are measured from outside, at public seams only:
//   graph   the topology generator call
//   core    Experiment construction
//   mac     Experiment::run, and the scheduler through a timing
//           decorator installed via SchedulerSpec::factory
//   sim     trace record and byte counts
//   check   timing sim::TraceConsumer wrappers around the hasher and
//           the streaming ExecutionChecker, plus finish()
//   runner  spec load + build, SweepRunner::Options::onRecord
//           completion stamps per worker, aggregateRecords, toJson
// With --trace 1 the run records spans around those calls (kept in
// memory, written to --spans when the run ends) and reports per-layer
// metrics; with --trace 0 only the end-to-end clocks are read.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is a JSON object with the host stamp (nproc,
// compiler, build type), the per-op samples and any failure reasons.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/golden.h"
#include "check/oracles.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "runner/emit.h"
#include "runner/json.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"
#include "sim/trace_sink.h"

#ifndef AMMB_PERFBENCH_BUILD_TYPE
#define AMMB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ammb;
namespace json = runner::json;
using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

json::Array toArray(const std::vector<double>& v) {
  return json::Array(v.begin(), v.end());
}

// --- spans -------------------------------------------------------------------

/// In-memory span log: one entry per call into a layer, with the span
/// that caused it, its op and its worker.  Thread-safe (campaign
/// workers record concurrently); written out once, when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished interval; returns its id.
  std::size_t add(const std::string& name, std::size_t parent, int op,
                  int worker, Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, op, worker, msBetween(origin_, start),
                      msBetween(origin_, end), {}});
    return spans_.size() - 1;
  }

  void setEnd(std::size_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].endMs = msBetween(origin_, end);
  }

  void count(std::size_t id, const std::string& key, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].counts.emplace_back(key, value);
  }

  /// Self time per span name: each span's duration minus the union of
  /// its children's intervals (children on parallel workers overlap).
  std::map<std::string, double> selfMsByName() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNone) children[s.parent].emplace_back(s.startMs, s.endMs);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<double, double>>& c = children[i];
      std::sort(c.begin(), c.end());
      double covered = 0.0;
      double reach = spans_[i].startMs;
      for (const auto& [start, end] : c) {
        const double from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      out[spans_[i].name] += spans_[i].endMs - spans_[i].startMs - covered;
    }
    return out;
  }

  json::Value toJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    json::Array out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Object o;
      o.emplace_back("id", i);
      o.emplace_back("name", s.name);
      o.emplace_back("parent",
                     s.parent == kNone ? json::Value() : json::Value(s.parent));
      o.emplace_back("op", s.op);
      o.emplace_back("worker", s.worker);
      o.emplace_back("start_ms", s.startMs);
      o.emplace_back("end_ms", s.endMs);
      json::Object counts;
      for (const auto& [k, v] : s.counts) counts.emplace_back(k, v);
      o.emplace_back("counts", std::move(counts));
      out.push_back(std::move(o));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    int op;
    int worker;
    double startMs;
    double endMs;
    std::vector<std::pair<std::string, double>> counts;
  };

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Where a span hangs: the log (null in untraced runs), its parent, the
/// op and the worker.
struct SpanCtx {
  SpanLog* log = nullptr;
  std::size_t parent = SpanLog::kNone;
  int op = 0;
  int worker = 0;
};

/// RAII span; a no-op without a log.
class ScopedSpan {
 public:
  ScopedSpan(const SpanCtx& ctx, const std::string& name)
      : log_(ctx.log),
        id_(log_ != nullptr ? log_->add(name, ctx.parent, ctx.op, ctx.worker,
                                        Clock::now(), Clock::now())
                            : SpanLog::kNone),
        ctx_{ctx.log, id_, ctx.op, ctx.worker} {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->setEnd(id_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The context for spans this one causes.
  const SpanCtx& child() const { return ctx_; }
  void count(const std::string& key, double value) {
    if (log_ != nullptr) log_->count(id_, key, value);
  }

 private:
  SpanLog* log_;
  std::size_t id_;
  SpanCtx ctx_;
};

// --- layer decorators --------------------------------------------------------

/// Busy time and call count of one fine-grained seam.  Per-call spans
/// would be millions of entries, so these seams are aggregated and
/// attached as counts to the enclosing mac.run span.
struct Busy {
  std::uint64_t calls = 0;
  Clock::duration time{};

  double ms() const {
    return std::chrono::duration<double, std::milli>(time).count();
  }
  void add(const Busy& o) {
    calls += o.calls;
    time += o.time;
  }
};

struct SchedStats {
  Busy plans;
  Busy picks;
  std::uint64_t plannedDeliveries = 0;

  void add(const SchedStats& o) {
    plans.add(o.plans);
    picks.add(o.picks);
    plannedDeliveries += o.plannedDeliveries;
  }
};

/// Timing decorator around a library scheduler.  Forwards every
/// virtual unchanged, so the execution is the undecorated one.
class TimedScheduler final : public mac::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<mac::Scheduler> inner, SchedStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void attach(mac::MacEngine& engine) override {
    Scheduler::attach(engine);
    inner_->attach(engine);
  }

  mac::DeliveryPlan planBcast(const mac::Instance& instance) override {
    const auto t0 = Clock::now();
    mac::DeliveryPlan plan = inner_->planBcast(instance);
    stats_.plans.time += Clock::now() - t0;
    ++stats_.plans.calls;
    stats_.plannedDeliveries += plan.deliveries.size();
    return plan;
  }

  InstanceId pickProgressDelivery(
      NodeId receiver, const std::vector<InstanceId>& candidates) override {
    const auto t0 = Clock::now();
    const InstanceId pick = inner_->pickProgressDelivery(receiver, candidates);
    stats_.picks.time += Clock::now() - t0;
    ++stats_.picks.calls;
    return pick;
  }

 private:
  std::unique_ptr<mac::Scheduler> inner_;
  SchedStats& stats_;
};

/// Timing wrapper around a streaming trace consumer.
class TimedConsumer final : public sim::TraceConsumer {
 public:
  TimedConsumer(sim::TraceConsumer& inner, Busy& busy)
      : inner_(inner), busy_(busy) {}

  void onRecord(const sim::TraceRecord& record) override {
    const auto t0 = Clock::now();
    inner_.onRecord(record);
    busy_.time += Clock::now() - t0;
    ++busy_.calls;
  }

 private:
  sim::TraceConsumer& inner_;
  Busy& busy_;
};

// --- fingerprints and per-layer totals ---------------------------------------

/// The deterministic identity of one execution.
struct Fingerprint {
  mac::EngineStats stats;
  bool solved = false;
  Time solveTime = kTimeNever;
  bool hashed = false;
  std::uint64_t traceHash = 0;
};

Fingerprint fingerprintOf(const core::RunResult& r) {
  Fingerprint f;
  f.stats = r.stats;
  f.solved = r.solved;
  f.solveTime = r.solveTime;
  return f;
}

/// Same execution: engine counters and solve time agree, and the trace
/// hashes agree wherever both sides hashed their trace.
bool sameExecution(const Fingerprint& a, const Fingerprint& b) {
  const mac::EngineStats& x = a.stats;
  const mac::EngineStats& y = b.stats;
  return a.solved == b.solved && a.solveTime == b.solveTime &&
         x.bcasts == y.bcasts && x.rcvs == y.rcvs &&
         x.forcedRcvs == y.forcedRcvs && x.acks == y.acks &&
         x.aborts == y.aborts && x.delivers == y.delivers &&
         x.arrives == y.arrives &&
         (!a.hashed || !b.hashed || a.traceHash == b.traceHash);
}

std::string hashHex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Per-layer totals over one traced op (or a whole decorated grid).
struct Layers {
  double graphMs = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t gEdges = 0;
  std::uint64_t gpEdges = 0;
  double ctorMs = 0.0;
  std::uint64_t solveTicks = 0;
  Time latencyP95 = 0;  ///< max over executions
  mac::EngineStats stats;
  double runMs = 0.0;
  SchedStats sched;
  std::uint64_t traceRecords = 0;
  std::uint64_t traceBytes = 0;
  Busy execFeed;
  Busy hashFeed;
  double finishMs = 0.0;
  std::uint64_t violations = 0;

  void addTopology(const graph::DualGraph& g, double ms) {
    graphMs += ms;
    nodes += static_cast<std::uint64_t>(g.n());
    gEdges += g.g().edgeCount();
    gpEdges += g.gPrime().edgeCount();
  }

  void addStats(const mac::EngineStats& s) {
    stats.bcasts += s.bcasts;
    stats.rcvs += s.rcvs;
    stats.forcedRcvs += s.forcedRcvs;
    stats.acks += s.acks;
    stats.aborts += s.aborts;
    stats.delivers += s.delivers;
    stats.arrives += s.arrives;
  }

  void add(const Layers& o) {
    graphMs += o.graphMs;
    nodes += o.nodes;
    gEdges += o.gEdges;
    gpEdges += o.gpEdges;
    ctorMs += o.ctorMs;
    solveTicks += o.solveTicks;
    latencyP95 = std::max(latencyP95, o.latencyP95);
    addStats(o.stats);
    runMs += o.runMs;
    sched.add(o.sched);
    traceRecords += o.traceRecords;
    traceBytes += o.traceBytes;
    execFeed.add(o.execFeed);
    hashFeed.add(o.hashFeed);
    finishMs += o.finishMs;
    violations += o.violations;
  }
};

/// The runner layer, measured on the campaign's traced pass.
struct RunnerLayer {
  double specLoadMs = 0.0;
  double runMsSum = 0.0;
  double busyFrac = 0.0;
  double tailIdleMs = 0.0;
  double aggregateMs = 0.0;
  double emitMs = 0.0;
  double runMsP98 = 0.0;
};

// --- one execution -------------------------------------------------------------

/// How one execution is wired.
struct ExecMode {
  /// Install the timing decorators (traced ops).
  bool decorate = false;
  /// Record the trace and attach TraceHasher + ExecutionChecker.
  bool checked = false;
  /// Stop after wiring (set-up samples).
  bool setupOnly = false;
};

struct Execution {
  Fingerprint fp;
  std::vector<std::string> violations;
  double wiringMs = 0.0;  ///< Experiment ctor + oracle attachment
  double runMs = 0.0;
  double rssAfterSetupMb = 0.0;
};

/// Wires one Experiment, runs it and takes the oracles' verdict,
/// accumulating every layer's time and counts into `layers`.  Every
/// argument the checker keeps by reference (the topology view, the
/// protocol, `config.mac`, the workload) is a named object that
/// outlives it.
Execution execute(const graph::DualGraph& topology,
                  const core::ProtocolSpec& protocol,
                  core::ArrivalProcess& arrivals,
                  const core::MmbWorkload& workload, core::RunConfig config,
                  ExecMode mode, Layers& layers, const SpanCtx& ctx) {
  Execution out;
  if (mode.decorate) {
    const core::SchedulerKind kind = config.scheduler.kind;
    const int lineLength = config.scheduler.lowerBoundLineLength;
    SchedStats& stats = layers.sched;
    config.scheduler.factory = [kind, lineLength,
                                &stats]() -> std::unique_ptr<mac::Scheduler> {
      return std::make_unique<TimedScheduler>(
          core::makeScheduler(kind, lineLength), stats);
    };
  }
  config.recordTrace = mode.checked;

  const auto c0 = Clock::now();
  std::optional<core::Experiment> experiment;
  {
    ScopedSpan span(ctx, "core.experiment_ctor");
    experiment.emplace(topology, protocol, arrivals, config);
  }
  layers.ctorMs += msBetween(c0, Clock::now());

  check::TraceHasher hasher;
  std::optional<check::ExecutionChecker> checker;
  std::optional<TimedConsumer> timedHasher;
  std::optional<TimedConsumer> timedChecker;
  if (mode.checked) {
    checker.emplace(experiment->view(), protocol, config.mac, workload);
    sim::TraceConsumer* consumers[2] = {&hasher, &*checker};
    if (mode.decorate) {
      consumers[0] = &timedHasher.emplace(hasher, layers.hashFeed);
      consumers[1] = &timedChecker.emplace(*checker, layers.execFeed);
    }
    for (sim::TraceConsumer* c : consumers) {
      experiment->mutableTrace().attachConsumer(c);
    }
  }
  const auto s1 = Clock::now();
  out.wiringMs = msBetween(c0, s1);
  out.rssAfterSetupMb = currentRssMb();
  if (mode.setupOnly) return out;

  const Busy plans0 = layers.sched.plans;
  core::RunResult result;
  {
    ScopedSpan span(ctx, "mac.run");
    result = experiment->run();
    span.count("rcvs", static_cast<double>(result.stats.rcvs));
    span.count("sched.plans",
               static_cast<double>(layers.sched.plans.calls - plans0.calls));
    span.count("sched.plan_ms",
               std::chrono::duration<double, std::milli>(
                   layers.sched.plans.time - plans0.time)
                   .count());
  }
  const auto r1 = Clock::now();
  out.runMs = msBetween(s1, r1);
  layers.runMs += out.runMs;
  out.fp = fingerprintOf(result);
  if (result.solved) {
    layers.solveTicks += static_cast<std::uint64_t>(result.solveTime);
  }
  layers.latencyP95 = std::max(layers.latencyP95, result.messages.p95Latency);
  layers.addStats(result.stats);

  if (mode.checked) {
    ScopedSpan span(ctx, "check.finish");
    out.violations = checker->finish(result).violations;
    out.fp.hashed = true;
    out.fp.traceHash = hasher.hash();
    const std::uint64_t records = experiment->trace().size();
    layers.traceRecords += records;
    layers.traceBytes +=
        records * (config.traceMode == sim::TraceMode::mem()
                       ? sizeof(sim::TraceRecord)
                       : sim::SpoolTraceSink::kRecordBytes);
    layers.violations += out.violations.size();
    layers.finishMs += msBetween(r1, Clock::now());
  }
  return out;
}

// --- single-run workloads ------------------------------------------------------

struct FieldWorkload {
  NodeId n = 0;
  double avgDegree = 0.0;
  double c = 1.5;
  double pGrey = 0.3;
  int k = 8;
  mac::MacParams mac;
  bool fmmb = false;
  /// The oracle stack is part of every op.
  bool checked = false;
  Time maxTime = kTimeNever;
};

/// Set-up-only samples per run, each on its own field of the seed.
constexpr int kSetupSamples = 9;

FieldWorkload greyBmmb(bool checked) {
  FieldWorkload w;
  w.n = 10'000;
  w.avgDegree = 13.0;
  w.pGrey = 0.3;
  w.mac.fprog = 4;
  w.mac.fack = 32;
  w.mac.variant = mac::ModelVariant::kStandard;
  w.checked = checked;
  w.maxTime = 200'000;
  return w;
}

/// A small FMMB field (enhanced model, abort-heavy) for the self-test.
FieldWorkload fmmbField() {
  FieldWorkload w;
  w.n = 120;
  w.avgDegree = 7.0;
  w.pGrey = 0.4;
  w.mac.fprog = 4;
  w.mac.fack = 64;
  w.mac.variant = mac::ModelVariant::kEnhanced;
  w.fmmb = true;
  w.maxTime = 2'000'000;
  return w;
}

/// k sources spaced n/k apart, all arriving at t = 0.
core::MmbWorkload spacedSources(NodeId n, int k) {
  core::MmbWorkload w;
  w.k = k;
  const NodeId stride = n / static_cast<NodeId>(k);
  for (int i = 0; i < k; ++i) {
    w.arrivals.push_back({static_cast<NodeId>(i * stride), i, 0});
  }
  return w;
}

struct FieldOp {
  Execution ex;
  Layers layers;
  double setupMs = 0.0;
  double wallMs = 0.0;
  double peakRssMb = 0.0;
};

/// One op: build field `field` of the seed (0 is the seed's own field;
/// set-up samples draw further ones so their median does not rest on
/// one field's generator retries), wire, run and vet.
FieldOp runFieldOp(const FieldWorkload& w, std::uint64_t seed, ExecMode mode,
                   std::uint64_t field, SpanLog* log, int op) {
  FieldOp out;
  const auto t0 = Clock::now();
  ScopedSpan opSpan({log, SpanLog::kNone, op, 0}, "op");
  std::optional<graph::DualGraph> topology;
  {
    ScopedSpan span(opSpan.child(), "graph.build");
    Rng rng = SeedSequence(seed).childRng(rngstream::kTopology, field);
    topology.emplace(
        graph::gen::greyZoneField(w.n, w.avgDegree, w.c, w.pGrey, rng));
  }
  out.layers.addTopology(*topology, msBetween(t0, Clock::now()));

  const core::MmbWorkload workload = spacedSources(w.n, w.k);
  const std::unique_ptr<core::ArrivalProcess> arrivals =
      core::streamWorkload(workload);
  const core::ProtocolSpec protocol =
      w.fmmb ? core::fmmbProtocol(core::FmmbParams::make(w.n))
             : core::bmmbProtocol();
  core::RunConfig config;
  config.mac = w.mac;
  config.scheduler = core::SchedulerKind::kRandom;
  config.limits.maxTime = w.maxTime;
  config.seed = seed;
  config.traceMode = sim::TraceMode::spool();
  out.ex = execute(*topology, protocol, *arrivals, workload, config, mode,
                   out.layers, opSpan.child());
  out.setupMs = out.layers.graphMs + out.ex.wiringMs;
  out.wallMs = msBetween(t0, Clock::now());
  out.peakRssMb = peakRssMb();
  return out;
}

// --- the campaign ----------------------------------------------------------------

constexpr const char* kCampaignSpec = "sweeps/fig1_standard.json";

/// The campaign spec with its seed window shifted by the benchmark seed
/// (seed 1 is the file's own window).
runner::SweepSpec loadCampaign(std::uint64_t seed) {
  runner::SpecDoc doc = runner::loadSpecFile(kCampaignSpec);
  const std::uint64_t width = doc.seedEnd - doc.seedBegin;
  doc.seedBegin += (seed - 1) * width;
  doc.seedEnd = doc.seedBegin + width;
  return runner::buildSweep(doc);
}

struct CampaignPass {
  double setupMs = 0.0;
  double poolMs = 0.0;
  double wallMs = 0.0;
  double rssAfterSetupMb = 0.0;
  std::vector<double> runMs;  ///< per grid run, completion-to-completion
  std::vector<Fingerprint> fps;  ///< by run index
  std::uint64_t rcvs = 0;
  std::vector<std::string> failures;  ///< one per failed grid run
  RunnerLayer runner;
};

/// One pass over the grid: load + build the spec, run every point on
/// the pool, aggregate, emit, and vet every record.
CampaignPass runCampaignPass(std::uint64_t seed, int threads, SpanLog* log,
                             int op) {
  CampaignPass out;
  const auto t0 = Clock::now();
  ScopedSpan opSpan({log, SpanLog::kNone, op, 0}, "op");
  std::optional<runner::SweepSpec> spec;
  {
    ScopedSpan span(opSpan.child(), "runner.spec_load");
    spec.emplace(loadCampaign(seed));
  }
  const std::vector<runner::RunPoint> points = runner::enumerateRuns(*spec);
  const auto p0 = Clock::now();
  out.setupMs = msBetween(t0, p0);
  out.runner.specLoadMs = out.setupMs;
  out.rssAfterSetupMb = currentRssMb();

  // Completion stamps per worker: a run's latency is the gap since its
  // worker's previous completion (or the pool start).
  std::mutex mu;
  std::map<std::thread::id, int> workerOf;
  std::vector<Clock::time_point> lastDone;
  out.runMs.resize(points.size(), 0.0);
  std::optional<ScopedSpan> poolSpan;
  poolSpan.emplace(opSpan.child(), "runner.pool");
  const SpanCtx poolCtx = poolSpan->child();
  runner::SweepRunner::Options options;
  options.threads = threads;
  options.onRecord = [&](const runner::RunRecord& record) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, fresh] = workerOf.emplace(
        std::this_thread::get_id(), static_cast<int>(lastDone.size()));
    if (fresh) lastDone.push_back(p0);
    const int worker = it->second;
    const std::size_t index = record.point.runIndex;
    out.runMs[index] = msBetween(lastDone[worker], now);
    if (log != nullptr) {
      const std::size_t id = log->add("runner.run", poolCtx.parent, op,
                                      worker, lastDone[worker], now);
      log->count(id, "run_index", static_cast<double>(index));
    }
    lastDone[worker] = now;
  };
  std::vector<runner::RunRecord> records =
      runner::SweepRunner(options).runPoints(*spec, points);
  poolSpan.reset();
  const auto p1 = Clock::now();
  out.poolMs = msBetween(p0, p1);

  runner::AggregateOptions aggregate;
  aggregate.threads = runner::effectiveThreads(threads, records.size());
  std::optional<runner::SweepResult> result;
  {
    ScopedSpan span(opSpan.child(), "runner.aggregate");
    result.emplace(runner::aggregateRecords(*spec, records, aggregate));
  }
  const auto a1 = Clock::now();
  std::size_t emitted = 0;
  {
    ScopedSpan span(opSpan.child(), "runner.emit");
    emitted = runner::toJson(*result).size();
    span.count("bytes", static_cast<double>(emitted));
  }
  const auto e1 = Clock::now();
  out.wallMs = msBetween(t0, e1);

  out.fps.resize(records.size());
  for (const runner::RunRecord& r : records) {
    out.fps[r.point.runIndex] = fingerprintOf(r.result);
    out.rcvs += r.result.stats.rcvs;
    std::string why;
    if (r.failed()) {
      why = "threw: " + r.error;
    } else if (!r.result.solved) {
      why = "unsolved";
    } else if (!r.checkViolations.empty()) {
      why = "oracle: " + r.checkViolations.front();
    }
    if (!why.empty()) {
      out.failures.push_back("run " + std::to_string(r.point.runIndex) + " " +
                             why);
    }
  }
  if (emitted == 0 || result->errorCount() != 0) {
    out.failures.push_back("the aggregate reports errors");
  }

  RunnerLayer& rl = out.runner;
  for (double v : out.runMs) rl.runMsSum += v;
  rl.busyFrac = ratio(rl.runMsSum, static_cast<double>(threads) * out.poolMs);
  for (const Clock::time_point& t : lastDone) {
    rl.tailIdleMs += out.poolMs - msBetween(p0, t);
  }
  rl.aggregateMs = msBetween(p1, a1);
  rl.emitMs = msBetween(a1, e1);
  rl.runMsP98 = percentile(out.runMs, 98);
  return out;
}

/// Re-executes every grid point through the seams the runner itself
/// uses (generators, runConfigFor, protocolSpecFor) with the timed
/// scheduler and the timed oracle stack attached, and checks each
/// execution against the runner's record of it.  Returns the layer
/// totals; appends one failure per point that differs or fails.
Layers runDecoratedGrid(std::uint64_t seed, int threads,
                        const std::vector<Fingerprint>& reference,
                        SpanLog* log, int op,
                        std::vector<std::string>& failures) {
  const runner::SweepSpec spec = loadCampaign(seed);
  const std::vector<runner::RunPoint> points = runner::enumerateRuns(spec);
  ScopedSpan gridSpan({log, SpanLog::kNone, op, 0}, "grid.decorated");
  std::atomic<std::size_t> next{0};
  std::vector<Layers> perWorker(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::string>> workerFailures(perWorker.size());
  auto work = [&](int worker) {
    Layers& acc = perWorker[static_cast<std::size_t>(worker)];
    for (std::size_t i = next.fetch_add(1); i < points.size();
         i = next.fetch_add(1)) {
      const runner::RunPoint& point = points[i];
      SpanCtx ctx = gridSpan.child();
      ctx.worker = worker;
      ScopedSpan runSpan(ctx, "grid.run");
      std::string problem;
      try {
        const auto g0 = Clock::now();
        std::optional<graph::DualGraph> topology;
        {
          ScopedSpan span(runSpan.child(), "graph.build");
          topology.emplace(spec.topologies[point.topoIdx].make(point.seed));
        }
        acc.addTopology(*topology, msBetween(g0, Clock::now()));
        const int k = spec.ks[point.kIdx];
        const std::unique_ptr<core::ArrivalProcess> arrivals =
            spec.workloads[point.wlIdx].make(k, topology->n(), point.seed);
        const core::MmbWorkload workload =
            core::materializeWorkload(*arrivals);
        const core::ProtocolSpec protocol = runner::protocolSpecFor(
            spec, topology->n(), k, point.reactIdx);
        ExecMode mode;
        mode.decorate = true;
        mode.checked = true;
        const Execution ex =
            execute(*topology, protocol, *arrivals, workload,
                    runner::runConfigFor(spec, point), mode, acc,
                    runSpan.child());
        if (!ex.violations.empty()) {
          problem = "oracle: " + ex.violations.front();
        } else if (!sameExecution(ex.fp, reference[i])) {
          problem = "decorated execution differs from the runner's record";
        }
      } catch (const std::exception& e) {
        problem = std::string("threw: ") + e.what();
      }
      if (!problem.empty()) {
        workerFailures[static_cast<std::size_t>(worker)].push_back(
            "run " + std::to_string(i) + " " + problem);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int wkr = 1; wkr < threads; ++wkr) pool.emplace_back(work, wkr);
  work(0);
  for (std::thread& t : pool) t.join();
  Layers total;
  for (std::size_t i = 0; i < perWorker.size(); ++i) {
    total.add(perWorker[i]);
    failures.insert(failures.end(), workerFailures[i].begin(),
                    workerFailures[i].end());
  }
  return total;
}

// --- result assembly -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure reasons
  std::vector<Metric> metrics;
  json::Object info;

  /// Counts `ops` attempted ops of which `failures` failed.
  void vet(std::size_t ops, const std::vector<std::string>& failures,
           const std::string& label) {
    attempted += ops;
    failed += std::min(ops, failures.size());
    for (const std::string& f : failures) {
      if (problems.size() < 8) problems.push_back(label + ": " + f);
    }
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string formatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(const Outcome& o, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + formatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// The per-layer metrics, in BENCHMARK.json order.  Layers a workload
/// does not exercise read 0.
void emitLayers(Outcome& o, const Layers& l, double rssGrowthMb,
                const RunnerLayer& r, double untracedMs, double tracedMs) {
  const mac::EngineStats& s = l.stats;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  o.metric("graph.build_ms", l.graphMs, "ms");
  o.metric("graph.nodes", d(l.nodes), "count");
  o.metric("graph.g_edges", d(l.gEdges), "count");
  o.metric("graph.gp_edges", d(l.gpEdges), "count");
  o.metric("core.experiment_ctor_ms", l.ctorMs, "ms");
  o.metric("core.solve_ticks", d(l.solveTicks), "ticks");
  o.metric("core.msg_latency_p95_ticks", static_cast<double>(l.latencyP95),
           "ticks");
  o.metric("core.delivers", d(s.delivers), "count");
  o.metric("core.useful_rcv_frac", ratio(d(s.delivers), d(s.rcvs)), "ratio");
  o.metric("mac.run_ms", l.runMs, "ms");
  o.metric("mac.engine_self_ms",
           l.runMs - l.sched.plans.ms() - l.sched.picks.ms() -
               l.execFeed.ms() - l.hashFeed.ms(),
           "ms");
  o.metric("mac.bcasts", d(s.bcasts), "count");
  o.metric("mac.rcvs", d(s.rcvs), "count");
  o.metric("mac.acks", d(s.acks), "count");
  o.metric("mac.aborts", d(s.aborts), "count");
  o.metric("mac.forced_rcvs", d(s.forcedRcvs), "count");
  o.metric("mac.ack_frac", ratio(d(s.acks), d(s.bcasts)), "ratio");
  o.metric("mac.sched.plan_ms", l.sched.plans.ms(), "ms");
  o.metric("mac.sched.plans", d(l.sched.plans.calls), "count");
  o.metric("mac.sched.planned_deliveries", d(l.sched.plannedDeliveries),
           "count");
  o.metric("mac.sched.ns_per_plan",
           ratio(l.sched.plans.ms() * 1e6, d(l.sched.plans.calls)), "ns");
  o.metric("mac.sched.progress_picks", d(l.sched.picks.calls), "count");
  o.metric("mac.rss_run_growth_mb", rssGrowthMb, "MB");
  o.metric("sim.trace.records", d(l.traceRecords), "count");
  o.metric("sim.trace.bytes", d(l.traceBytes), "bytes");
  o.metric("check.exec.feed_ms", l.execFeed.ms(), "ms");
  o.metric("check.exec.ns_per_record",
           ratio(l.execFeed.ms() * 1e6, d(l.execFeed.calls)), "ns");
  o.metric("check.exec.finish_ms", l.finishMs, "ms");
  o.metric("check.hash.feed_ms", l.hashFeed.ms(), "ms");
  o.metric("check.violations", d(l.violations), "count");
  o.metric("runner.spec_load_ms", r.specLoadMs, "ms");
  o.metric("runner.run_ms_sum", r.runMsSum, "ms");
  o.metric("runner.busy_frac", r.busyFrac, "ratio");
  o.metric("runner.tail_idle_ms", r.tailIdleMs, "ms");
  o.metric("runner.aggregate_ms", r.aggregateMs, "ms");
  o.metric("runner.emit_ms", r.emitMs, "ms");
  o.metric("runner.run_ms_p98", r.runMsP98, "ms");
  o.metric("trace.overhead_ms", tracedMs - untracedMs, "ms");
  o.metric("trace.overhead_frac", ratio(tracedMs - untracedMs, untracedMs),
           "ratio");
  o.info.emplace_back("untraced_wall_ms", untracedMs);
  o.info.emplace_back("traced_wall_ms", tracedMs);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spansPath;
};

/// Closed-loop measuring loop: runs `op(i)` (returning its wall ms) while
/// the next one, estimated by the mean so far, still fits the window.
template <typename Op>
void measureFor(double seconds, Op op) {
  const auto start = Clock::now();
  double totalMs = 0.0;
  for (int i = 0;; ++i) {
    totalMs += op(i);
    const double mean = totalMs / (i + 1);
    if (msBetween(start, Clock::now()) + mean > seconds * 1000.0) return;
  }
}

std::vector<std::string> fieldFailures(const FieldOp& op,
                                       const Fingerprint& reference) {
  if (!op.ex.fp.solved) return {"unsolved"};
  if (!op.ex.violations.empty()) return {"oracle: " + op.ex.violations.front()};
  if (!sameExecution(op.ex.fp, reference)) {
    return {"fingerprint differs from the reference execution"};
  }
  return {};
}

void runFieldWorkload(const Args& args, const FieldWorkload& w, Outcome& o,
                      SpanLog* log) {
  ExecMode plainMode;
  plainMode.checked = w.checked;
  if (!args.trace) {
    std::vector<double> setupMs;
    ExecMode setupMode = plainMode;
    setupMode.setupOnly = true;
    for (int i = 0; i < kSetupSamples; ++i) {
      setupMs.push_back(
          runFieldOp(w, args.seed, setupMode, static_cast<std::uint64_t>(i),
                     nullptr, -1)
              .setupMs);
    }
    std::vector<FieldOp> ops;
    measureFor(args.seconds, [&](int i) {
      ops.push_back(runFieldOp(w, args.seed, plainMode, 0, nullptr, i));
      o.vet(1, fieldFailures(ops.back(), ops.front().ex.fp),
            "op " + std::to_string(i));
      return ops.back().wallMs;
    });
    std::vector<double> wall;
    std::vector<double> run;
    std::vector<double> usPerRcv;
    for (const FieldOp& op : ops) {
      wall.push_back(op.wallMs);
      run.push_back(op.ex.runMs);
      usPerRcv.push_back(op.ex.runMs * 1000.0 /
                         static_cast<double>(std::max<std::uint64_t>(
                             op.ex.fp.stats.rcvs, 1)));
    }
    const double runP50 = median(run);
    o.metric("setup_s", median(setupMs) / 1000.0, "s");
    o.metric("wall_s", median(wall) / 1000.0, "s");
    o.metric("us_per_rcv", median(usPerRcv), "us");
    o.metric("peak_rss_mb", ops.front().peakRssMb, "MB");
    o.metric("runs_per_s", ratio(1000.0, runP50), "1/s");
    o.metric("run_ms_p50", runP50, "ms");
    o.info.emplace_back("setup_ms", toArray(setupMs));
    o.info.emplace_back("wall_ms", toArray(wall));
    o.info.emplace_back("run_ms", toArray(run));
    o.info.emplace_back("rcvs",
                        static_cast<std::int64_t>(ops.front().ex.fp.stats.rcvs));
    o.info.emplace_back("solve_ticks",
                        static_cast<std::int64_t>(ops.front().ex.fp.solveTime));
    if (ops.front().ex.fp.hashed) {
      o.info.emplace_back("trace_hash", hashHex(ops.front().ex.fp.traceHash));
    }
    return;
  }

  // Traced run: an untraced op, then the decorated op the per-layer
  // numbers come from, then — for grey1e4-bmmb, which has no oracles of
  // its own — the checked execution that vets it: the
  // grey1e4-bmmb-checked op.
  const FieldOp plain = runFieldOp(w, args.seed, plainMode, 0, nullptr, 0);
  ExecMode tracedMode;
  tracedMode.decorate = true;
  tracedMode.checked = w.checked;
  FieldOp traced = runFieldOp(w, args.seed, tracedMode, 0, log, 1);
  o.vet(1, fieldFailures(plain, traced.ex.fp), "untraced op");
  o.vet(1, fieldFailures(traced, plain.ex.fp), "traced op");
  Fingerprint vetted = traced.ex.fp;
  if (!tracedMode.checked) {
    ExecMode checkedMode;
    checkedMode.checked = true;
    const FieldOp checkedOp = runFieldOp(w, args.seed, checkedMode, 0, log, 2);
    o.vet(1, fieldFailures(checkedOp, plain.ex.fp), "checked op");
    traced.layers.violations = checkedOp.layers.violations;
    vetted = checkedOp.ex.fp;
  }
  if (vetted.hashed) o.info.emplace_back("trace_hash", hashHex(vetted.traceHash));
  emitLayers(o, traced.layers, traced.peakRssMb - traced.ex.rssAfterSetupMb,
             RunnerLayer{}, plain.wallMs, traced.wallMs);
}

void runCampaign(const Args& args, Outcome& o, SpanLog* log) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(4u, hw));
  o.info.emplace_back("threads", threads);

  if (!args.trace) {
    // The campaign's set-up (spec load + build) takes tens of
    // microseconds, so its median rests on many samples.
    std::vector<double> setupMs;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      const runner::SweepSpec spec = loadCampaign(args.seed);
      setupMs.push_back(msBetween(t0, Clock::now()));
    }
    std::vector<CampaignPass> passes;
    double firstPeakRssMb = 0.0;
    measureFor(args.seconds, [&](int i) {
      passes.push_back(runCampaignPass(args.seed, threads, nullptr, i));
      if (i == 0) firstPeakRssMb = peakRssMb();
      std::vector<std::string> failures = passes.back().failures;
      const std::vector<Fingerprint>& ref = passes.front().fps;
      for (std::size_t r = 0; r < ref.size(); ++r) {
        if (!sameExecution(passes.back().fps[r], ref[r])) {
          failures.push_back("run " + std::to_string(r) +
                             " differs from the first pass");
        }
      }
      o.vet(passes.back().fps.size(), failures, "pass " + std::to_string(i));
      return passes.back().wallMs;
    });
    std::vector<double> wall;
    std::vector<double> usPerRcv;
    std::vector<double> runsPerS;
    std::vector<double> p50;
    for (const CampaignPass& p : passes) {
      wall.push_back(p.wallMs);
      usPerRcv.push_back(p.poolMs * 1000.0 /
                         static_cast<double>(std::max<std::uint64_t>(p.rcvs, 1)));
      runsPerS.push_back(static_cast<double>(p.runMs.size()) * 1000.0 /
                         p.poolMs);
      p50.push_back(percentile(p.runMs, 50));
    }
    o.metric("setup_s", median(setupMs) / 1000.0, "s");
    o.metric("wall_s", median(wall) / 1000.0, "s");
    o.metric("us_per_rcv", median(usPerRcv), "us");
    o.metric("peak_rss_mb", firstPeakRssMb, "MB");
    o.metric("runs_per_s", median(runsPerS), "1/s");
    o.metric("run_ms_p50", median(p50), "ms");
    o.info.emplace_back("setup_samples", setupMs.size());
    o.info.emplace_back("wall_ms", toArray(wall));
    o.info.emplace_back("runs_per_pass", passes.front().runMs.size());
    return;
  }

  // Traced run: an untraced pass, a pass with runner spans, then the
  // decorated re-execution of the grid for the lower layers.
  const CampaignPass plain = runCampaignPass(args.seed, threads, nullptr, 0);
  o.vet(plain.fps.size(), plain.failures, "untraced pass");
  const CampaignPass traced = runCampaignPass(args.seed, threads, log, 1);
  std::vector<std::string> failures = traced.failures;
  for (std::size_t r = 0; r < plain.fps.size(); ++r) {
    if (!sameExecution(traced.fps[r], plain.fps[r])) {
      failures.push_back("run " + std::to_string(r) +
                         " differs from the untraced pass");
    }
  }
  o.vet(traced.fps.size(), failures, "traced pass");
  std::vector<std::string> gridFailures;
  const Layers grid =
      runDecoratedGrid(args.seed, threads, plain.fps, log, 2, gridFailures);
  o.vet(plain.fps.size(), gridFailures, "decorated grid");
  // The tail is p98 of one pass's grid runs: ten or more runs lie
  // beyond it whenever the grid has at least 500 runs (648 here).
  o.info.emplace_back("run_ms_p98_samples", traced.runMs.size());
  emitLayers(o, grid, peakRssMb() - traced.rssAfterSetupMb, traced.runner,
             plain.wallMs, traced.wallMs);
}

// --- self-test ---------------------------------------------------------------------

/// The observer-effect check: on small fields of both protocols the
/// timed scheduler decorator and the timed consumer wrappers leave the
/// trace hash and EngineStats of the undecorated run untouched, and see
/// every plan and every record.
bool selfTest(std::string* report) {
  bool ok = true;
  for (bool fmmb : {false, true}) {
    FieldWorkload w = fmmb ? fmmbField() : greyBmmb(true);
    if (!fmmb) {
      w.n = 400;
      w.avgDegree = 10.0;
    }
    for (std::uint64_t seed : {1u, 2u}) {
      ExecMode mode;
      mode.checked = true;
      const FieldOp plain = runFieldOp(w, seed, mode, 0, nullptr, 0);
      mode.decorate = true;
      const FieldOp timed = runFieldOp(w, seed, mode, 0, nullptr, 0);
      const bool same =
          plain.ex.fp.solved && plain.ex.violations.empty() &&
          timed.ex.violations.empty() &&
          sameExecution(plain.ex.fp, timed.ex.fp) &&
          timed.layers.sched.plans.calls == plain.ex.fp.stats.bcasts &&
          timed.layers.execFeed.calls == plain.layers.traceRecords &&
          timed.layers.hashFeed.calls == plain.layers.traceRecords;
      ok = ok && same;
      *report += std::string(fmmb ? "fmmb" : "bmmb") + " n=" +
                 std::to_string(w.n) + " seed=" + std::to_string(seed) +
                 " hash=" + hashHex(plain.ex.fp.traceHash) + " decorated=" +
                 hashHex(timed.ex.fp.traceHash) +
                 (same ? " same\n" : " DIFFERENT\n");
    }
  }
  return ok;
}

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace" && (v == "0" || v == "1")) {
      args.trace = v == "1";
    } else if (a == "--spans") {
      args.spansPath = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seed >= 1 && args.seconds > 0.0;
}

json::Object hostStamp(bool ndebug) {
  json::Object host;
  host.emplace_back(
      "nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  host.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#else
  host.emplace_back("compiler", "unknown");
#endif
  host.emplace_back("build_type", AMMB_PERFBENCH_BUILD_TYPE);
  host.emplace_back("ndebug", ndebug);
  return host;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    std::string report;
    const bool ok = selfTest(&report);
    std::printf("%s%s\n", report.c_str(),
                ok ? "self-test ok" : "self-test FAILED");
    return ok ? 0 : 1;
  }
  Args args;
  bool parsed = false;
  try {
    parsed = parseArgs(argc, argv, args);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] | --self-test\n");
    return 2;
  }
  std::optional<FieldWorkload> field;
  if (args.workload == "grey1e4-bmmb") {
    field = greyBmmb(false);
  } else if (args.workload == "grey1e4-bmmb-checked") {
    field = greyBmmb(true);
  } else if (args.workload != "fig1-campaign") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Outcome o;
  std::optional<SpanLog> spans;
  if (args.trace) spans.emplace(Clock::now());
  SpanLog* log = spans ? &*spans : nullptr;
  try {
    if (args.trace) {
      std::string report;
      o.vet(1, selfTest(&report) ? std::vector<std::string>{}
                                 : std::vector<std::string>{report},
            "observer-effect self-test");
    }
    if (field.has_value()) {
      runFieldWorkload(args, *field, o, log);
    } else {
      runCampaign(args, o, log);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (log != nullptr) {
    json::Object self;
    for (const auto& [name, ms] : log->selfMsByName()) {
      self.emplace_back(name, ms);
    }
    o.info.emplace_back("span_self_ms", std::move(self));
    if (!args.spansPath.empty()) {
      json::Object doc;
      doc.emplace_back("workload", args.workload);
      doc.emplace_back("seed", static_cast<std::int64_t>(args.seed));
      doc.emplace_back("spans", log->toJson());
      std::ofstream file(args.spansPath);
      file << json::dump(doc, 1) << "\n";
      if (!file) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spansPath.c_str());
        return 1;
      }
    }
  }

  // Timings from a build with assertions on are not this program's.
  if (!ndebug) o.problems.push_back("built without NDEBUG: results invalid");
  json::Object info;
  info.emplace_back("workload", args.workload);
  info.emplace_back("seed", static_cast<std::int64_t>(args.seed));
  info.emplace_back("trace", args.trace);
  info.emplace_back("host", hostStamp(ndebug));
  for (auto& member : o.info) info.push_back(std::move(member));
  info.emplace_back("problems",
                    json::Array(o.problems.begin(), o.problems.end()));
  std::printf("%s\n", json::dump(info).c_str());
  printResult(o, ndebug && o.failed == 0);
  return 0;
}
